//! Exhaustive exploration of the operational semantics — the convenience
//! layer over [`crate::engine`].
//!
//! [`reachable_terminals`] and [`reachable_terminals_with`] enumerate
//! outcomes: they deduplicate machines up to *timestamp renaming* (two
//! stores that differ only in the rational representatives of their
//! timestamps are observationally identical, so each location's
//! timestamps are replaced by their rank before hashing) and return the
//! terminal machines.
//!
//! These functions are thin wrappers: the engines themselves (iterative
//! worklist, interned canonical states, work-stealing expansion, trace
//! enumeration) live in [`crate::engine`], and checkers that need to
//! steer the search implement [`crate::engine::StateVisitor`] /
//! [`crate::engine::TraceVisitor`] directly.

use crate::engine::{
    Control, EngineError, Explorer, SearchOrder, StateId, Strategy, WorklistEngine,
};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine};

pub use crate::engine::canonicalize;
pub use crate::engine::CanonState;
/// Budget configuration (the engine's [`crate::engine::EngineConfig`],
/// re-exported under its historical name).
pub use crate::engine::EngineConfig as ExploreConfig;
pub use crate::engine::ExploreStats;

/// Explores the full state space from `m0`, returning all *terminal*
/// machines (no thread can step), deduplicated canonically.
///
/// Uses the sequential depth-first engine; [`reachable_terminals_with`]
/// selects other engines.
///
/// # Errors
///
/// Returns [`EngineError::BudgetExceeded`] if more than `config.max_states`
/// canonical states are reachable, or [`EngineError::CorruptFrontier`] on a
/// corrupted machine.
pub fn reachable_terminals<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    config: ExploreConfig,
) -> Result<Vec<Machine<E>>, EngineError> {
    let engine = WorklistEngine::new(config, SearchOrder::Dfs);
    collect_terminals(&engine, locs, m0)
}

/// [`reachable_terminals`] with an explicit engine [`Strategy`]
/// (DFS / BFS / work-stealing / DPOR). All strategies return the same
/// canonical terminal set; only discovery order — and, for
/// [`Strategy::Dpor`], the number of traces explored to find it —
/// differs.
///
/// # Errors
///
/// As [`reachable_terminals`].
pub fn reachable_terminals_with<E: Expr + Send + Sync>(
    locs: &LocSet,
    m0: Machine<E>,
    config: ExploreConfig,
    strategy: Strategy,
) -> Result<Vec<Machine<E>>, EngineError> {
    if strategy == Strategy::Dpor {
        // The reduced walk reaches every terminal through one
        // representative trace per equivalence class instead of visiting
        // every canonical state.
        let (terminals, _) = crate::engine::dpor_reachable_terminals(
            locs,
            m0,
            config,
            crate::engine::Dependence::Observational,
        )?;
        return Ok(terminals);
    }
    let engine = crate::engine::explorer::<E>(strategy, config);
    collect_terminals(engine.as_ref(), locs, m0)
}

fn collect_terminals<E: Expr>(
    engine: &dyn Explorer<E>,
    locs: &LocSet,
    m0: Machine<E>,
) -> Result<Vec<Machine<E>>, EngineError> {
    let mut terminals = Vec::new();
    engine.explore(locs, m0, &mut |m: &Machine<E>, _id: StateId| {
        if m.is_terminal() {
            terminals.push(m.clone());
        }
        Control::Continue
    })?;
    Ok(terminals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{TraceEngine, TraceVisitor};
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{RecordedExpr, StepLabel, Transition};
    use crate::trace::TraceLabels;
    use std::collections::HashSet;

    /// A trace visitor from a closure.
    struct Visitor<F>(F);

    impl<F: FnMut(&TraceLabels, &Transition<RecordedExpr>) -> Control> TraceVisitor<RecordedExpr>
        for Visitor<F>
    {
        fn visit(&mut self, trace: &TraceLabels, t: &Transition<RecordedExpr>) -> Control {
            (self.0)(trace, t)
        }
    }

    fn locs_ab() -> (LocSet, Loc, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        let b = l.fresh("b", LocKind::Nonatomic);
        (l, a, b)
    }

    #[test]
    fn store_buffering_all_four_outcomes() {
        // SB: P0: a=1; r0=b   P1: b=1; r1=a — both reads CAN be stale:
        // each reader's frontier knows nothing of the other's write.
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let terms = reachable_terminals(&locs, m0, ExploreConfig::default()).unwrap();
        let outcomes: HashSet<(Val, Val)> = terms
            .iter()
            .map(|m| (m.threads[0].expr.reads[0], m.threads[1].expr.reads[0]))
            .collect();
        // Racy programs admit all four outcomes (weak reads allowed).
        for o in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!(outcomes.contains(&(Val(o.0), Val(o.1))), "missing {o:?}");
        }
    }

    #[test]
    fn canonicalization_merges_timestamp_variants() {
        // Two threads writing to the same location in either order reach
        // stores with different rationals but (for the same value order)
        // identical canonical forms.
        let (locs, a, _) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let terms = reachable_terminals(&locs, m0, ExploreConfig::default()).unwrap();
        // Terminal stores: histories [0,1,2] or [0,2,1] — exactly two
        // canonical classes.
        assert_eq!(terms.len(), 2);
    }

    #[test]
    fn all_strategies_agree_on_terminals() {
        let (locs, a, b) = locs_ab();
        let mk = || {
            let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
            let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
            Machine::initial(&locs, [p0, p1])
        };
        let outcome_set = |strategy| {
            let terms =
                reachable_terminals_with(&locs, mk(), ExploreConfig::default(), strategy).unwrap();
            terms
                .iter()
                .map(|m| (m.threads[0].expr.reads[0], m.threads[1].expr.reads[0]))
                .collect::<HashSet<_>>()
        };
        let dfs = outcome_set(Strategy::Dfs);
        assert_eq!(dfs, outcome_set(Strategy::Bfs));
        assert_eq!(dfs, outcome_set(Strategy::WorkStealing));
    }

    #[test]
    fn trace_enumeration_sees_all_interleavings() {
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let mut complete = 0;
        let mut v = Visitor(|tr: &TraceLabels, t: &Transition<RecordedExpr>| {
            if tr.len() == 2 && t.target.is_terminal() {
                complete += 1;
            }
            Control::Continue
        });
        TraceEngine::new(ExploreConfig::default())
            .explore(&locs, m0, &mut v)
            .unwrap();
        // Independent writes to different locations: 2 interleavings.
        assert_eq!(complete, 2);
    }

    #[test]
    fn budget_is_enforced() {
        let (locs, a, _) = locs_ab();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        let tiny = ExploreConfig {
            max_states: 10,
            max_traces: 10,
        };
        assert!(matches!(
            reachable_terminals(&locs, m0.clone(), tiny),
            Err(EngineError::BudgetExceeded { .. })
        ));
        let mut go = Visitor(|_: &TraceLabels, _: &Transition<RecordedExpr>| Control::Continue);
        let r = TraceEngine::new(tiny).explore(&locs, m0, &mut go);
        assert!(matches!(r, Err(EngineError::BudgetExceeded { .. })));
    }

    #[test]
    fn visit_stop_aborts() {
        let (locs, a, _) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 4]);
        let m0 = Machine::initial(&locs, [p0]);
        let mut seen = 0;
        let mut v = Visitor(|_: &TraceLabels, _: &Transition<RecordedExpr>| {
            seen += 1;
            Control::Stop
        });
        TraceEngine::new(ExploreConfig::default())
            .explore(&locs, m0, &mut v)
            .unwrap();
        assert_eq!(seen, 1);
    }
}
