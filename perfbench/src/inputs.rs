//! Workload inputs, generated from the run's seed during set-up, with
//! every expected answer computed by the dedicated diagnoser of [8]
//! (`diagnose_baseline`), the oracle the program's output is checked
//! against.
//!
//! Per-input cost spans two orders of magnitude on these nets (a single
//! |A| = 5 dQSQ diagnosis ranges from 0.2 s to 28 s), so each workload
//! pins its input *size* while the seed picks the instances. Sizes are
//! bounded only by oracle-side quantities — the explanation states the
//! dedicated diagnoser explores, the unfolding's size — never by anything
//! the program under test computes, so a change to the program cannot
//! change which inputs a seed yields.

use rescue::{AlarmSeq, Diagnosis, PetriNet};
use rescue_petri::{random_net, random_run, NetConfig, UnfoldLimits, Unfolding};

/// SplitMix64: a tiny, dependency-free, fully deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_D1A6_0515)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The telecom-shaped net of the repository's diagnosis sweeps: one
/// private 3-state cycle per peer plus a chord, peers chained by
/// 1-bounded buffers, a 3-letter alarm alphabet.
pub fn telecom_net(peers: usize, seed: u64) -> PetriNet {
    random_net(&NetConfig {
        peers,
        states_per_peer: 3,
        extra_transitions: 1,
        links: peers.saturating_sub(1).max(1),
        alphabet: 3,
        joins: 0,
        seed,
    })
}

/// A sampled run of exactly `len` alarms, or `None` if the run dies first.
fn sample_alarms(net: &PetriNet, seed: u64, len: usize) -> Option<AlarmSeq> {
    let run = random_run(net, seed, len).ok()?;
    let alarms = AlarmSeq::from_run(net, &run);
    (alarms.len() == len).then_some(alarms)
}

/// The oracle's diagnosis of every nonempty prefix of `alarms`.
fn prefix_oracles(net: &PetriNet, alarms: &AlarmSeq) -> Vec<Diagnosis> {
    (1..=alarms.len())
        .map(|k| {
            let prefix = AlarmSeq::new(alarms.alarms[..k].to_vec());
            rescue_diagnosis::diagnose_baseline(net, &prefix).0
        })
        .collect()
}

/// One batch diagnosis problem with its expected answer.
pub struct BatchCase {
    pub net: PetriNet,
    pub alarms: AlarmSeq,
    pub expect: Diagnosis,
    /// Events the dedicated diagnoser materializes (Theorem 4 target).
    pub events: usize,
}

/// Cap on the explanation states the oracle explores for one batch alarm
/// sequence. Uncapped, a single |A| = 5 case can take 28 s, and the
/// largest case sets a run's peak memory.
const MAX_STATES: usize = 12;

/// Batch strata: (|A|, cases per run).
///
/// Each alarm length gets the same share of the measured wall time, so
/// `throughput_per_s` weighs |A| = 2, 3, 4 and 5 alike: a stratum's count
/// is 10.5 s over its mean dQSQ diagnosis time. Those means — 32.9, 91.1,
/// 197.2 and 215.3 ms — were measured on the program as this benchmark was
/// written, over the cases of seeds 1–8 (340 per seed, drawn as here),
/// diagnosed in one shuffled order on a 2-vCPU x86-64 VM. The whole list
/// is about 42 s of work there, so a run sees most cases once.
pub const BATCH_STRATA: [(usize, usize); 4] = [(2, 320), (3, 115), (4, 53), (5, 49)];

/// Batch cases for one run: telecom nets of 3, 4 and 5 peers in turn
/// within each stratum of [`BATCH_STRATA`], alarm sequences from
/// `random_run`, shuffled so any time-bounded prefix of the list keeps the
/// mix.
pub fn batch_cases(seed: u64, scale: f64) -> Vec<BatchCase> {
    let mut rng = Rng::new(seed);
    let mut cases = Vec::new();
    for (len, count) in BATCH_STRATA {
        let want = ((count as f64 * scale).ceil() as usize).max(1);
        for i in 0..want {
            cases.push(loop {
                let net = telecom_net(3 + i % 3, rng.next_u64());
                let Some(alarms) = sample_alarms(&net, rng.next_u64(), len) else {
                    continue;
                };
                let (expect, stats) = rescue_diagnosis::diagnose_baseline(&net, &alarms);
                if stats.states <= MAX_STATES {
                    break BatchCase {
                        net,
                        alarms,
                        expect,
                        events: stats.events,
                    };
                }
            });
        }
    }
    rng.shuffle(&mut cases);
    cases
}

/// The serving workload's inputs: the registered nets and a pool of
/// 3–4-alarm session scripts with per-prefix oracles.
pub struct ServeInputs {
    /// `(name, net)`; the name is the `.pn` file stem the server uses.
    pub nets: Vec<(String, PetriNet)>,
    /// Scripts, alternating between `figure1` and the telecom nets.
    pub scripts: Vec<Script>,
}

pub struct Script {
    /// Index into [`ServeInputs::nets`].
    pub net: usize,
    pub alarms: AlarmSeq,
    pub expect: Vec<Diagnosis>,
}

/// Generated telecom nets the server registers next to `figure1`. With a
/// single one, that one net's cost decided a whole run; with six of eight
/// scripts each, the last pushes of a handful of scripts set the request
/// tail, and set-up time swung with how long the seed took to find them.
pub const SERVE_TELECOM_NETS: usize = 12;
/// Session scripts per telecom net; `figure1` gets as many as all of
/// them together, so half the sessions run on it.
pub const SCRIPTS_PER_NET: usize = 16;

/// Accepted band of depth-5 unfolding events for the served telecom nets;
/// the cost of their 3–4-alarm sessions, and their largest push, follow
/// this size.
const SERVE_UNFOLD_BAND: (usize, usize) = (80, 95);

/// Cap on the oracle's explored states for one serving script: the
/// heaviest scripts' last pushes set the request tail.
const SCRIPT_STATES: usize = 8;

/// `count` scripts of 3 or 4 alarms on `pn` within `max_states`, or `None`
/// if the net rarely yields one.
fn scripts_for(
    net: usize,
    pn: &PetriNet,
    count: usize,
    max_states: usize,
    rng: &mut Rng,
) -> Option<Vec<Script>> {
    let mut scripts = Vec::new();
    for _ in 0..count * 50 {
        let len = 3 + scripts.len() % 2;
        let Some(alarms) = sample_alarms(pn, rng.next_u64(), len) else {
            continue;
        };
        if rescue_diagnosis::diagnose_baseline(pn, &alarms).1.states <= max_states {
            let expect = prefix_oracles(pn, &alarms);
            scripts.push(Script {
                net,
                alarms,
                expect,
            });
            if scripts.len() == count {
                return Some(scripts);
            }
        }
    }
    None
}

/// `figure1` plus [`SERVE_TELECOM_NETS`] generated 3-peer telecom nets
/// inside [`SERVE_UNFOLD_BAND`], and scripts of 3 or 4 alarms on each,
/// interleaved so consecutive sessions alternate between `figure1` and the
/// telecom nets in turn.
pub fn serve_inputs(seed: u64) -> ServeInputs {
    let mut rng = Rng::new(seed ^ 0x5E_47E5);
    let telecom_scripts = SERVE_TELECOM_NETS * SCRIPTS_PER_NET;
    let figure1 = rescue_petri::figure1();
    // figure1's runs are all small; only the telecom scripts are capped.
    let mut figure1_scripts = scripts_for(0, &figure1, telecom_scripts, usize::MAX, &mut rng)
        .expect("figure1 yields runs of 3 and 4 alarms")
        .into_iter();
    let mut nets = vec![("figure1".to_owned(), figure1)];
    let mut telecom = Vec::new();
    while nets.len() <= SERVE_TELECOM_NETS {
        let net = telecom_net(3, rng.next_u64());
        let events = Unfolding::build(&net, &UnfoldLimits::depth(5)).num_events();
        if !(SERVE_UNFOLD_BAND.0..=SERVE_UNFOLD_BAND.1).contains(&events) {
            continue;
        }
        if let Some(scripts) =
            scripts_for(nets.len(), &net, SCRIPTS_PER_NET, SCRIPT_STATES, &mut rng)
        {
            telecom.push(scripts.into_iter());
            nets.push((format!("telecom3-{}", nets.len()), net));
        }
    }
    let mut scripts = Vec::new();
    for k in 0..telecom_scripts {
        scripts.extend(figure1_scripts.next());
        scripts.extend(telecom[k % SERVE_TELECOM_NETS].next());
    }
    ServeInputs { nets, scripts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let show = |seed: u64| -> Vec<String> {
            batch_cases(seed, 0.02)
                .iter()
                .map(|c| format!("{} {}", rescue_petri::print_net(&c.net), c.alarms))
                .collect()
        };
        assert_eq!(show(7), show(7));
        assert_ne!(show(7), show(8));
    }

    #[test]
    fn batch_strata_are_respected() {
        let cases = batch_cases(3, 0.02);
        let mut lens: Vec<usize> = cases.iter().map(|c| c.alarms.len()).collect();
        lens.sort();
        lens.dedup();
        assert_eq!(lens, vec![2, 3, 4, 5]);
        for c in &cases {
            assert_eq!(
                c.expect,
                rescue_diagnosis::diagnose_baseline(&c.net, &c.alarms).0
            );
        }
    }

    #[test]
    fn serve_scripts_alternate_nets_and_carry_prefix_oracles() {
        let inputs = serve_inputs(1);
        assert_eq!(inputs.nets.len(), 1 + SERVE_TELECOM_NETS);
        assert_eq!(
            inputs.scripts.len(),
            2 * SERVE_TELECOM_NETS * SCRIPTS_PER_NET
        );
        for (i, s) in inputs.scripts.iter().enumerate() {
            let want = if i % 2 == 0 {
                0
            } else {
                1 + (i / 2) % SERVE_TELECOM_NETS
            };
            assert_eq!(s.net, want);
            assert!((3..=4).contains(&s.alarms.len()));
            assert_eq!(s.expect.len(), s.alarms.len());
        }
    }
}
