//! The replay lane's acceptance bar, asserted the way every replay
//! guarantee in this repository is: count transition-semantics probes
//! ([`bdrst::core::machine::semantics_probes`]) around the replayed
//! detection and every replayed trace checker, and demand the counter
//! does not move.
//!
//! The probe counter is process-global, so this file deliberately holds
//! a **single** test — sibling tests in the same binary would race it.

use bdrst::core::engine::{EngineConfig, Lane, TraceEngine};
use bdrst::core::localdrf::{
    all_traces_sequentially_consistent, check_global_drf, check_local_drf, is_l_stable_for_prefix,
    sc_race_freedom,
};
use bdrst::core::machine::semantics_probes;
use bdrst::core::LocPredicate;
use bdrst::lang::{Program, ThreadState};
use bdrst::litmus::all_tests;
use bdrst::race::{detect_races, DetectorConfig};

/// Every `bdrst_core::localdrf` checker's verdict on one lane, rendered
/// for comparison (full and replayed walks agree witness for witness).
fn checker_verdicts(p: &Program, lane: Lane<'_, ThreadState>) -> String {
    let cfg = EngineConfig::default();
    let l: LocPredicate = p.locs.nonatomic().collect();
    format!(
        "{:?} {:?} {:?} {:?} {:?}",
        sc_race_freedom(&p.locs, lane.clone(), cfg),
        all_traces_sequentially_consistent(&p.locs, lane.clone(), cfg),
        check_global_drf(&p.locs, lane.clone(), cfg),
        check_local_drf(&p.locs, lane.clone(), &l, cfg).is_ok(),
        is_l_stable_for_prefix(&p.locs, &[], lane, &l, cfg),
    )
}

#[test]
fn replayed_detection_performs_zero_transition_semantics_steps() {
    let cfg = EngineConfig::default();
    // Record every corpus program's trace tree and take the live
    // verdicts first — this is the only place the semantics runs.
    let prepared: Vec<_> = all_tests()
        .iter()
        .map(|t| {
            let p = Program::parse(t.source).unwrap();
            let live = detect_races(
                &p.locs,
                Lane::Full(p.initial_machine()),
                cfg,
                DetectorConfig::default(),
            )
            .unwrap();
            let live_checks = checker_verdicts(&p, Lane::Full(p.initial_machine()));
            let (graph, _) = TraceEngine::new(cfg)
                .record(&p.locs, p.initial_machine())
                .unwrap();
            (t.name, p, live, live_checks, graph)
        })
        .collect();

    let before = semantics_probes();
    for (name, p, live, live_checks, graph) in &prepared {
        let rep = detect_races(
            &p.locs,
            Lane::<ThreadState>::Replay(graph),
            cfg,
            DetectorConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rep.racy(), live.racy(), "{name}: verdicts diverge offline");
        assert_eq!(&rep.witnesses, &live.witnesses, "{name}: witnesses diverge");
        assert_eq!(
            &checker_verdicts(p, Lane::Replay(graph)),
            live_checks,
            "{name}: replayed checker verdicts diverge"
        );
    }
    assert_eq!(
        semantics_probes(),
        before,
        "offline detection or a replayed checker invoked the transition semantics"
    );
}
