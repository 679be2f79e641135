//! The partial-order-reduction acceptance gate: on every corpus program
//! with more than one thread, the DPOR lane must explore *strictly fewer*
//! complete traces than the full enumeration while reproducing the exact
//! outcome set, and every trace checker must reach the full walk's
//! verdicts on the reduced and replayed lanes. Random programs extend
//! the corpus sweep through the vendored proptest stub.

use proptest::prelude::*;

mod common;
use common::{assert_every_lane_agrees, small_program};

use bdrst::core::engine::{
    dpor_reachable_terminals, full_complete_traces, Dependence, EngineConfig, Lane,
    Strategy as EngineStrategy,
};
use bdrst::core::explore::ExploreConfig;
use bdrst::lang::Program;
use bdrst::litmus::all_tests;
use bdrst::race::{detect_races, DetectorConfig};
use std::collections::BTreeSet;

/// Outcome set of `p` through the full DFS engine.
fn full_outcomes(p: &Program) -> BTreeSet<bdrst::lang::Observation> {
    p.outcomes_with(ExploreConfig::default(), EngineStrategy::Dfs)
        .expect("exploration fits budget")
        .set()
        .clone()
}

/// Outcome set of `p` through the reduced lane.
fn dpor_outcomes(p: &Program) -> BTreeSet<bdrst::lang::Observation> {
    p.outcomes_with(ExploreConfig::default(), EngineStrategy::Dpor)
        .expect("reduced exploration fits budget")
        .set()
        .clone()
}

#[test]
fn corpus_dpor_prunes_every_multithreaded_program() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        let full = full_complete_traces(&p.locs, p.initial_machine(), EngineConfig::default())
            .expect("full enumeration fits budget");
        let (_, stats) = dpor_reachable_terminals(
            &p.locs,
            p.initial_machine(),
            EngineConfig::default(),
            Dependence::Observational,
        )
        .expect("reduced exploration fits budget");
        if p.threads.len() > 1 {
            assert!(
                stats.complete_traces < full,
                "{}: DPOR explored {} complete traces, full enumeration {}",
                t.name,
                stats.complete_traces,
                full
            );
        } else {
            // Single-threaded programs have exactly one schedule; the
            // reduction has nothing to prune and must not lose traces.
            assert_eq!(stats.complete_traces, full, "{}", t.name);
        }
    }
}

#[test]
fn corpus_dpor_outcome_sets_match_full_enumeration() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        assert_eq!(
            dpor_outcomes(&p),
            full_outcomes(&p),
            "outcome sets diverge on {}",
            t.name
        );
    }
}

/// Every trace checker reaches the full walk's verdict on the reduced
/// and the replayed lane, corpus-wide.
#[test]
fn corpus_reduced_checkers_match_full_verdicts() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        assert_every_lane_agrees(t.name, &p);
    }
}

#[test]
fn corpus_reduced_race_detection_matches_full_polarity() {
    for t in all_tests() {
        let p = Program::parse(t.source).expect("corpus programs parse");
        let full = detect_races(
            &p.locs,
            Lane::Full(p.initial_machine()),
            EngineConfig::default(),
            DetectorConfig::default(),
        )
        .expect("full detection fits budget");
        let reduced = detect_races(
            &p.locs,
            Lane::Reduced(p.initial_machine()),
            EngineConfig::default(),
            DetectorConfig::default(),
        )
        .expect("reduced detection fits budget");
        assert_eq!(
            full.racy(),
            reduced.racy(),
            "race polarity diverges on {}",
            t.name
        );
        // The reduced walk never processes more detector events than the
        // full one (same filter, strictly smaller tree).
        assert!(
            reduced.events <= full.events,
            "{}: reduced detector saw {} events, full {}",
            t.name,
            reduced.events,
            full.events
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reduced lane reproduces the full outcome set on ≥128 random
    /// programs.
    #[test]
    fn dpor_outcomes_match_full_on_random_programs(p in small_program()) {
        prop_assert_eq!(
            dpor_outcomes(&p),
            full_outcomes(&p),
            "outcome sets diverge on\n{}", p
        );
    }

    /// Every trace checker reaches the full walk's verdict on the reduced
    /// and the replayed lane, on ≥128 random programs.
    #[test]
    fn reduced_checkers_match_full_on_random_programs(p in small_program()) {
        assert_every_lane_agrees(&p.to_string(), &p);
    }

    /// The reduction never *adds* traces: reduced complete-trace counts
    /// are bounded by the full enumeration on every random program.
    #[test]
    fn dpor_never_explores_more_traces(p in small_program()) {
        let full = full_complete_traces(&p.locs, p.initial_machine(), EngineConfig::default())
            .expect("full enumeration fits budget");
        let (_, stats) = dpor_reachable_terminals(
            &p.locs,
            p.initial_machine(),
            EngineConfig::default(),
            Dependence::Observational,
        )
        .expect("reduced exploration fits budget");
        prop_assert!(
            stats.complete_traces <= full,
            "DPOR explored {} > full {} on\n{}", stats.complete_traces, full, p
        );
    }
}
