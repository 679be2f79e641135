//! Detector/checker differential suite: on the whole litmus corpus and
//! on ≥128 generated programs, "some explored SC trace has a race"
//! (the vector-clock detector, live and replayed) must agree exactly
//! with the DRF checkers' verdicts ([`sc_race_freedom`] /
//! [`check_global_drf`]), and every surfaced witness must survive the
//! O(n²) reference happens-before check with its space/time bounds
//! intact.

use proptest::prelude::*;

mod common;
use common::small_program;

use bdrst::core::engine::{EngineConfig, Lane, TraceEngine};
use bdrst::core::localdrf::{check_global_drf, sc_race_freedom, DrfStatus};
use bdrst::lang::{Program, ThreadState};
use bdrst::litmus::all_tests;
use bdrst::race::{detect_races, DetectorConfig};

fn cfg() -> EngineConfig {
    EngineConfig::default()
}

/// One full agreement check: detector (live + replayed) vs the checkers,
/// plus witness validity and bound assertions.
fn assert_detector_agrees(name: &str, p: &Program) {
    let oracle = sc_race_freedom(&p.locs, Lane::Full(p.initial_machine()), cfg())
        .unwrap_or_else(|e| panic!("{name}: oracle failed: {e}"));
    let oracle_racy = matches!(oracle, DrfStatus::Racy(_));

    let live = detect_races(
        &p.locs,
        Lane::Full(p.initial_machine()),
        cfg(),
        DetectorConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{name}: live detection failed: {e}"));
    assert_eq!(
        live.racy(),
        oracle_racy,
        "{name}: detector says {} but sc_race_freedom says {}",
        live.racy(),
        oracle_racy
    );

    // check_global_drf consistency: Theorem 14 holds for the paper's
    // semantics, so a detector-race-free program must come back
    // RaceFree from the global checker too.
    let global = check_global_drf(&p.locs, Lane::Full(p.initial_machine()), cfg())
        .unwrap_or_else(|e| panic!("{name}: global checker failed: {e}"));
    assert_eq!(matches!(global, DrfStatus::Racy(_)), live.racy());

    // Offline detection over the recorded tree: identical witnesses.
    let (graph, _) = TraceEngine::new(cfg())
        .record(&p.locs, p.initial_machine())
        .unwrap_or_else(|e| panic!("{name}: recording failed: {e}"));
    let replayed = detect_races(
        &p.locs,
        Lane::<ThreadState>::Replay(&graph),
        cfg(),
        DetectorConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{name}: replayed detection failed: {e}"));
    assert_eq!(
        live.witnesses, replayed.witnesses,
        "{name}: live and replayed witnesses diverge"
    );
    assert_eq!(live.events, replayed.events);

    // Every witness is a real race with coherent bounds.
    for w in &live.witnesses {
        assert!(w.validate(&p.locs), "{name}: invalid witness {w:?}");
        assert!(w.space_bound().contains(&w.loc));
        assert_eq!(w.time_bound(), w.second - w.first + 1);
        assert!(w.time_bound() >= 2, "{name}: a race needs two accesses");
        assert!(w.second < w.trace.len());
        // The space bound is exactly the locations the window touches.
        let touched: std::collections::BTreeSet<_> = w.trace[w.first..=w.second]
            .iter()
            .filter_map(|l| l.action.map(|a| a.loc))
            .collect();
        assert_eq!(&touched, w.space_bound(), "{name}: space bound drifted");
    }
}

#[test]
fn corpus_detector_agrees_with_checkers() {
    let mut racy = 0usize;
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        assert_detector_agrees(t.name, &p);
        if matches!(
            sc_race_freedom(&p.locs, Lane::Full(p.initial_machine()), cfg()).unwrap(),
            DrfStatus::Racy(_)
        ) {
            racy += 1;
        }
    }
    // The corpus exercises both classes.
    assert!(racy > 0, "no racy corpus test");
    assert!(racy < all_tests().len(), "no race-free corpus test");
}

#[test]
fn every_racy_corpus_test_yields_a_shrinkable_witness() {
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let report = detect_races(
            &p.locs,
            Lane::Full(p.initial_machine()),
            cfg(),
            DetectorConfig::default(),
        )
        .unwrap();
        if !report.racy() {
            continue;
        }
        let shrunk =
            bdrst::race::shrink_witness(&p, &report.witnesses[0], cfg(), DetectorConfig::default())
                .unwrap_or_else(|e| panic!("{}: shrink failed: {e}", t.name));
        assert!(shrunk.witness.validate(&shrunk.program.locs), "{}", t.name);
        // Shrinking never grows the program, and the result still races.
        let before: usize = p.threads.iter().map(|th| th.body.len()).sum();
        let after: usize = shrunk.program.threads.iter().map(|th| th.body.len()).sum();
        assert!(after <= before, "{}: shrink grew the program", t.name);
        assert!(
            detect_races(
                &shrunk.program.locs,
                Lane::Full(shrunk.program.initial_machine()),
                cfg(),
                DetectorConfig::default()
            )
            .unwrap()
            .racy(),
            "{}: shrunk program lost the race",
            t.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ≥128 generated programs: race-found ⇔ DRF-checker violation,
    /// live ≡ replayed, witnesses valid.
    #[test]
    fn generated_detector_agrees_with_checkers(p in small_program()) {
        assert_detector_agrees("generated", &p);
    }
}
