//! The Magic Sets rewriting — the paper's other named optimization
//! (§1/§3.1: "two main, closely related, optimization techniques … namely
//! Query-Sub-Query \[34\] and Magic Set \[7\]").
//!
//! Magic Sets keeps one *magic* relation `m_R^a` per reachable adorned
//! predicate (playing the role of QSQ's `in-R^a`) but, instead of chaining
//! supplementary relations, guards each original rule with its magic atom
//! and re-derives binding prefixes inside the magic rules:
//!
//! ```text
//! R^a(head) :- m_R^a(bound head args), b₁^a₁, …, bₙ^aₙ.
//! m_S^aj(bound args of bⱼ) :- m_R^a(…), b₁^a₁, …, bⱼ₋₁^aⱼ₋₁.   (S intensional)
//! ```
//!
//! Same answers as QSQ (both compute the query-relevant facts), different
//! space/time trade-off: no `sup` tuples are stored, at the cost of
//! re-joining rule prefixes once per magic rule. The `magic_vs_qsq`
//! experiment quantifies the trade-off; the test suite checks answer
//! equivalence on every program family we have.

use crate::adorn::{adorn_args, AdornedPred, Adornment};
use crate::eval::{split_edb_facts, Materialized, QsqError};
use crate::rewrite::RewriteError;
use rescue_datalog::{
    filter_answers, seminaive, Atom, Database, EvalBudget, EvalStats, PredId, Program, Rule, Sym,
    TermId, TermStore,
};
use rustc_hash::{FxHashMap, FxHashSet};

/// The result of a Magic Sets rewriting.
#[derive(Clone, Debug)]
pub struct MagicOutput {
    pub program: Program,
    /// The seed: `m_Q^a(query constants)`.
    pub seed_pred: PredId,
    pub seed_row: Box<[TermId]>,
    /// The adorned query relation and the filter pattern for answers.
    pub answer_pred: PredId,
    pub answer_atom: Atom,
    /// `R^a ↦ fresh PredId` for intensional relations.
    pub adorned: FxHashMap<AdornedPred, PredId>,
    /// `m_R^a ↦ fresh PredId`.
    pub magic: FxHashMap<AdornedPred, PredId>,
}

struct MagicRewriter<'a> {
    program: &'a Program,
    adorned: FxHashMap<AdornedPred, PredId>,
    magic: FxHashMap<AdornedPred, PredId>,
    out: Program,
    worklist: Vec<AdornedPred>,
    seen: FxHashSet<AdornedPred>,
}

impl<'a> MagicRewriter<'a> {
    fn adorned_pred(&mut self, store: &mut TermStore, ap: AdornedPred) -> PredId {
        if let Some(&p) = self.adorned.get(&ap) {
            return p;
        }
        let name = format!("{}__{}", store.sym_str(ap.base.name), ap.adornment.label());
        let p = PredId {
            name: store.sym(&name),
            peer: ap.base.peer,
        };
        self.adorned.insert(ap, p);
        p
    }

    fn magic_pred(&mut self, store: &mut TermStore, ap: AdornedPred) -> PredId {
        if let Some(&p) = self.magic.get(&ap) {
            return p;
        }
        let name = format!(
            "m_{}__{}",
            store.sym_str(ap.base.name),
            ap.adornment.label()
        );
        let p = PredId {
            name: store.sym(&name),
            peer: ap.base.peer,
        };
        self.magic.insert(ap, p);
        p
    }

    fn enqueue(&mut self, ap: AdornedPred) {
        if self.seen.insert(ap) {
            self.worklist.push(ap);
        }
    }

    fn process(&mut self, store: &mut TermStore, ap: AdornedPred) {
        let rules: Vec<Rule> = self
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == ap.base)
            .cloned()
            .collect();
        for rule in rules {
            self.rewrite_rule(store, ap, &rule);
        }
    }

    fn rewrite_rule(&mut self, store: &mut TermStore, ap: AdornedPred, rule: &Rule) {
        let head = &rule.head;
        let magic_head = self.magic_pred(store, ap);
        let magic_args: Vec<TermId> = ap
            .adornment
            .bound_positions()
            .map(|p| head.args[p])
            .collect();
        let guard = Atom::new(magic_head, magic_args);

        // Walk the body computing adornments, emitting one magic rule per
        // intensional atom and collecting the adorned body.
        let mut bound: Vec<Sym> = Vec::new();
        for pos in ap.adornment.bound_positions() {
            store.collect_vars(head.args[pos], &mut bound);
        }
        let mut adorned_body: Vec<Atom> = Vec::new();
        for atom in &rule.body {
            let ad_j = adorn_args(store, &atom.args, &bound);
            if self.program.is_idb(atom.pred) {
                let sub = AdornedPred {
                    base: atom.pred,
                    adornment: ad_j,
                };
                // Magic rule: the callee's bindings from the prefix so far.
                let callee_magic = self.magic_pred(store, sub);
                let m_args: Vec<TermId> = ad_j.bound_positions().map(|p| atom.args[p]).collect();
                let mut body = vec![guard.clone()];
                body.extend(adorned_body.iter().cloned());
                // Prefix disequalities that are ground here are sound to
                // include but unnecessary; Magic Sets traditionally omits
                // them (over-approximating relevance is harmless).
                self.out.push(Rule {
                    head: Atom::new(callee_magic, m_args),
                    body,
                    diseqs: vec![],
                });
                self.enqueue(sub);
                let adorned_callee = self.adorned_pred(store, sub);
                adorned_body.push(Atom::new(adorned_callee, atom.args.clone()));
            } else {
                adorned_body.push(atom.clone());
            }
            for &a in &atom.args {
                store.collect_vars(a, &mut bound);
            }
        }

        // The guarded rule.
        let adorned_head = self.adorned_pred(store, ap);
        let mut body = vec![guard];
        body.extend(adorned_body);
        self.out.push(Rule {
            head: Atom::new(adorned_head, head.args.clone()),
            body,
            diseqs: rule.diseqs.clone(),
        });
    }
}

/// Rewrite `program` for `query` with Magic Sets.
pub fn magic_rewrite(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
) -> Result<MagicOutput, RewriteError> {
    if program.has_negation() {
        return Err(RewriteError::NegationUnsupported);
    }
    if !program.is_idb(query.pred) {
        return Err(RewriteError::ExtensionalQuery {
            pred: store.sym_str(query.pred.name).to_owned(),
        });
    }
    let flags: Vec<bool> = query.args.iter().map(|&a| store.is_ground(a)).collect();
    let ad = Adornment::from_bools(&flags);
    let ap = AdornedPred {
        base: query.pred,
        adornment: ad,
    };
    let mut rw = MagicRewriter {
        program,
        adorned: FxHashMap::default(),
        magic: FxHashMap::default(),
        out: Program::new(),
        worklist: Vec::new(),
        seen: FxHashSet::default(),
    };
    rw.enqueue(ap);
    let seed_pred = rw.magic_pred(store, ap);
    let answer_pred = rw.adorned_pred(store, ap);
    while let Some(next) = rw.worklist.pop() {
        rw.process(store, next);
    }
    let seed_row: Box<[TermId]> = ad.bound_positions().map(|p| query.args[p]).collect();
    Ok(MagicOutput {
        program: rw.out,
        seed_pred,
        seed_row,
        answer_pred,
        answer_atom: Atom::new(answer_pred, query.args.clone()),
        adorned: rw.adorned,
        magic: rw.magic,
    })
}

/// The outcome of a Magic Sets evaluation.
#[derive(Clone, Debug)]
pub struct MagicRun {
    pub answers: Vec<Vec<TermId>>,
    pub stats: EvalStats,
    pub materialized: Materialized,
    pub rewrite: MagicOutput,
}

/// Answer `query` over `program` via Magic Sets (mirrors
/// [`crate::qsq_answer`]).
pub fn magic_answer(
    program: &Program,
    query: &Atom,
    store: &mut TermStore,
    db: &mut Database,
    budget: &EvalBudget,
) -> Result<MagicRun, QsqError> {
    let (rules, edb) = split_edb_facts(program);
    for (pred, row) in edb {
        db.insert(pred, row);
    }
    let rw = magic_rewrite(&rules, query, store)?;
    db.insert(rw.seed_pred, rw.seed_row.clone());
    let stats = seminaive(&rw.program, store, db, budget).map_err(QsqError::Eval)?;
    let answers = filter_answers(db, store, &rw.answer_atom);
    // Breakdown: adorned vs magic vs base.
    let mut m = Materialized::default();
    for (pred, rel) in db.iter() {
        if rw.magic.values().any(|&p| p == pred) {
            m.input += rel.len();
        } else if rw.adorned.values().any(|&p| p == pred) {
            m.adorned += rel.len();
        } else {
            m.base += rel.len();
        }
    }
    Ok(MagicRun {
        answers,
        stats,
        materialized: m,
        rewrite: rw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::qsq_answer;
    use rescue_datalog::{parse_atom, parse_program};

    fn both(src: &str, query: &str) -> (Vec<Vec<String>>, Vec<Vec<String>>, usize, usize) {
        let mut st = TermStore::new();
        let prog = parse_program(src, &mut st).unwrap();
        let q = parse_atom(query, &mut st).unwrap();
        let mut db_m = Database::new();
        let magic = magic_answer(&prog, &q, &mut st, &mut db_m, &EvalBudget::default()).unwrap();
        let mut db_q = Database::new();
        let qsq = qsq_answer(&prog, &q, &mut st, &mut db_q, &EvalBudget::default()).unwrap();
        let render = |rows: &[Vec<TermId>]| -> Vec<Vec<String>> {
            let mut v: Vec<Vec<String>> = rows
                .iter()
                .map(|r| r.iter().map(|&t| st.display(t)).collect())
                .collect();
            v.sort();
            v
        };
        (
            render(&magic.answers),
            render(&qsq.answers),
            magic.materialized.derived_total(),
            qsq.materialized.derived_total(),
        )
    }

    #[test]
    fn magic_agrees_with_qsq_on_figure3() {
        let mut src = String::from(
            r#"
            R@r(X, Y) :- A@r(X, Y).
            R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
            S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
            T@t(X, Y) :- C@t(X, Y).
        "#,
        );
        for i in 1..8 {
            src.push_str(&format!("A@r(\"{}\", \"{}\").\n", i, i + 1));
            src.push_str(&format!("B@s(\"{}\", m{}).\n", i + 1, i + 1));
            src.push_str(&format!("C@t(\"{}\", \"{}\").\n", i + 1, i + 2));
        }
        let (m, q, m_derived, q_derived) = both(&src, r#"R@r("1", Y)"#);
        assert_eq!(m, q);
        assert!(!m.is_empty());
        // No sup tuples: magic stores less.
        assert!(m_derived <= q_derived);
    }

    #[test]
    fn magic_agrees_on_recursion_with_functions() {
        let src = r#"
            Even@a(z).
            Even@a(s(N)) :- Odd@b(N).
            Odd@b(s(N)) :- Even@a(N), Small@c(N).
            Small@c(z). Small@c(s(z)). Small@c(s(s(z))).
        "#;
        let (m, q, _, _) = both(src, "Even@a(X)");
        assert_eq!(m, q);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn magic_agrees_with_diseqs() {
        let src = r#"
            Item@p(a). Item@p(b). Item@p(c).
            Other@p(X, Y) :- Item@p(X), Item@p(Y), X != Y.
        "#;
        let (m, q, _, _) = both(src, "Other@p(a, Y)");
        assert_eq!(m, q);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn magic_same_generation() {
        let mut src = String::from(
            r#"
            Sg@p(X, X) :- Person@p(X).
            Sg@p(X, Y) :- Par@p(X, XP), Sg@p(XP, YP), Par@p(Y, YP).
        "#,
        );
        for (c, p) in [
            ("t0", "t"),
            ("t1", "t"),
            ("t00", "t0"),
            ("t01", "t0"),
            ("t10", "t1"),
            ("t11", "t1"),
        ] {
            src.push_str(&format!("Par@p({c}, {p}).\n"));
        }
        for x in ["t", "t0", "t1", "t00", "t01", "t10", "t11"] {
            src.push_str(&format!("Person@p({x}).\n"));
        }
        let (m, q, _, _) = both(&src, "Sg@p(t00, Y)");
        assert_eq!(m, q);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn magic_terminates_on_diagnosis_programs() {
        // The real stress test: the generated diagnosis program, no depth
        // bound — Magic Sets must stay query-bounded too.
        use rescue_datalog::Database;
        let net = rescue_petri_stub::figure1_program();
        let mut st = TermStore::new();
        let prog = parse_program(&net.0, &mut st).unwrap();
        let q = parse_atom(&net.1, &mut st).unwrap();
        let mut db = Database::new();
        let run = magic_answer(&prog, &q, &mut st, &mut db, &EvalBudget::default()).unwrap();
        let _ = run;
    }

    /// A tiny self-contained stand-in so this crate's tests don't depend
    /// on `rescue-diagnosis` (which depends on us): a hand-written
    /// unfolding-flavoured program with function symbols whose naive
    /// evaluation is infinite but whose query is binding-bounded.
    mod rescue_petri_stub {
        pub fn figure1_program() -> (String, String) {
            (
                r#"
                Node@p(g(r, c1)).
                Node@p(g(f(X), c2)) :- Node@p(X), Grow@p.
                Grow@p.
                Probe@p(X) :- Node@p(X).
                "#
                .to_owned(),
                "Probe@p(g(r, c1))".to_owned(),
            )
        }
    }
}
