//! Sample statistics and the result line.
//!
//! Timings are reported as a median plus a *tail*: the highest whole
//! percentile that still has at least [`TAIL_BEYOND`] samples above it,
//! together with that percentile and the sample count, so a tail is never
//! quoted from fewer samples than it claims to summarise.

use std::fmt::Write as _;

/// Minimum number of samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail latency: the value at percentile `pct` of `n` samples, with
/// `beyond` samples strictly above its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// The highest whole percentile `p` (1..=99) whose nearest-rank sample
/// has at least [`TAIL_BEYOND`] samples ranked above it. `None` when the
/// sample is too small for even the first percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (1..=99u32).rev().find_map(|pct| {
        // Nearest rank: the smallest rank r with r/n >= pct/100.
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: v[rank - 1],
            n,
            beyond,
        })
    })
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the measured layers leave unexplained: `total` minus the sum of
/// the attributed `parts`. Signed — a negative residual means the traced
/// parts cost more than the dark whole (tracing overhead or noise).
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Reset this process's `VmHWM` to its current resident size (Linux 4.0
/// and later), so a later [`peak_rss_mb`] covers only what ran after it.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Ops attempted and failed in one run, plus the first few failure
/// descriptions for the human-readable log.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Outcome {
    /// Record one op: `Ok(())` or a description of how it failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(why);
            }
        }
    }

    /// Failed or refused ops as a share of attempted ones.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Named metrics in emission order, each with its unit.
#[derive(Default, Debug)]
pub struct Metrics {
    pub entries: Vec<(String, f64, String)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        debug_assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric {name} emitted twice"
        );
        self.entries.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Render a finite float as JSON with every digit Rust prints for it
/// (shortest round-trip form); non-finite values become `null`, which the
/// result check rejects.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The one-line result object the benchmark prints last.
pub fn result_line(correct: bool, outcome: &Outcome, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, ten samples above it; p91 has nine.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.n, t.beyond), (90, 90.0, 100, 10));
        // 1000 samples: p99 is rank 990 with ten above.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99, 990.0, 10));
        // 37 samples: rank ceil(0.72 * 37) = 27 leaves ten; p73 (rank 28)
        // would leave nine.
        let t = tail(&ramp(37)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (72, 27.0, 10));
        for n in [11usize, 25, 64, 333, 2048] {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            if t.pct < 99 {
                let next = ((t.pct as usize + 1) * n).div_ceil(100);
                assert!(
                    n - next < TAIL_BEYOND,
                    "n={n}: p{} also qualifies",
                    t.pct + 1
                );
            }
        }
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(11)).unwrap().value, 1.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn residual_is_total_minus_parts_and_may_go_negative() {
        assert_eq!(residual(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual(4.0, &[]), 4.0);
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
    }

    #[test]
    fn failures_raise_the_failed_share() {
        let mut o = Outcome::default();
        for _ in 0..3 {
            o.record(Ok(()));
        }
        assert_eq!(o.failed_share(), 0.0);
        o.record(Err("oracle mismatch".into()));
        assert_eq!((o.attempted, o.failed), (4, 1));
        assert_eq!(o.failed_share(), 0.25);
        assert_eq!(o.first_failures, vec!["oracle mismatch".to_owned()]);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        let o = Outcome {
            attempted: 7,
            failed: 0,
            first_failures: vec![],
        };
        let line = result_line(true, &o, &m);
        let v = rescue_telemetry::json::parse(&line).unwrap();
        let obj = v.as_object().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let lat = v.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(lat.get("value").unwrap().as_number(), Some(1.25));
        assert_eq!(lat.get("unit").unwrap().as_str(), Some("ms"));
        assert!(!line.contains('\n'));
    }
}
