//! Shared random-program generators for the integration suites
//! (`properties`, `engine_agreement`, `differential`): one definition of
//! the generated fragment, so widening it (more threads, fences, ...)
//! widens every suite at once. Also the lane-agreement assertion the
//! `dpor_reduction` and `engine_agreement` suites share.

use proptest::prelude::*;

use bdrst::core::engine::{EngineConfig, Lane, TraceEngine, TraceGraph};
use bdrst::core::localdrf::{
    all_traces_sequentially_consistent, check_global_drf, check_local_drf, is_l_stable_for_prefix,
    sc_race_freedom, DrfStatus,
};
use bdrst::core::{Loc, LocKind, LocPredicate, LocSet};
use bdrst::lang::{Program, PureExpr, Reg, Stmt, ThreadProgram, ThreadState};
use bdrst::race::{detect_races, DetectorConfig};

/// Random straight-line statement over 2 nonatomic + 1 atomic locations,
/// 2 registers, constants 1..=2 (same shape as the litmus corpus).
fn stmt() -> impl Strategy<Value = Stmt> {
    let loc = 0u32..3;
    let reg = 0u16..2;
    let val = 1i64..3;
    prop_oneof![
        (reg.clone(), loc.clone()).prop_map(|(r, l)| Stmt::Load(Reg(r), Loc(l))),
        (loc, val).prop_map(|(l, v)| Stmt::Store(Loc(l), PureExpr::constant(v))),
        (reg.clone(), reg).prop_map(|(d, s)| Stmt::Assign(Reg(d), PureExpr::Reg(Reg(s)))),
    ]
}

/// A random two-thread program over a *wide* location set: 72 nonatomic
/// locations plus one atomic, with each thread touching a few scattered
/// locations. The state space stays small (few steps per thread) while
/// the store spans multiple pmap levels, so structural-sharing and
/// incremental-fingerprint properties are exercised on deep trees, not
/// just the 3-location corpus shape.
#[allow(dead_code)]
pub fn wide_program() -> impl Strategy<Value = Program> {
    const WIDE: u32 = 73; // 0..72 nonatomic, 72 atomic
    let stmt = || {
        let loc = 0u32..WIDE;
        let reg = 0u16..2;
        let val = 1i64..3;
        prop_oneof![
            (reg, loc.clone()).prop_map(|(r, l)| Stmt::Load(Reg(r), Loc(l))),
            (loc, val).prop_map(|(l, v)| Stmt::Store(Loc(l), PureExpr::constant(v))),
        ]
    };
    let t0 = prop::collection::vec(stmt(), 1..4);
    let t1 = prop::collection::vec(stmt(), 1..4);
    (t0, t1).prop_map(|(b0, b1)| {
        let mut locs = LocSet::new();
        for i in 0..WIDE - 1 {
            locs.fresh(format!("w{i}"), LocKind::Nonatomic);
        }
        locs.fresh("F", LocKind::Atomic);
        Program {
            locs,
            threads: vec![
                ThreadProgram {
                    name: "P0".into(),
                    regs: vec!["r0".into(), "r1".into()],
                    body: b0,
                },
                ThreadProgram {
                    name: "P1".into(),
                    regs: vec!["r0".into(), "r1".into()],
                    body: b1,
                },
            ],
        }
    })
}

/// A random two-thread program over the fixed location set.
pub fn small_program() -> impl Strategy<Value = Program> {
    let t0 = prop::collection::vec(stmt(), 1..4);
    let t1 = prop::collection::vec(stmt(), 1..4);
    (t0, t1).prop_map(|(b0, b1)| {
        let mut locs = LocSet::new();
        locs.fresh("a", LocKind::Nonatomic);
        locs.fresh("b", LocKind::Nonatomic);
        locs.fresh("F", LocKind::Atomic);
        Program {
            locs,
            threads: vec![
                ThreadProgram {
                    name: "P0".into(),
                    regs: vec!["r0".into(), "r1".into()],
                    body: b0,
                },
                ThreadProgram {
                    name: "P1".into(),
                    regs: vec!["r0".into(), "r1".into()],
                    body: b1,
                },
            ],
        }
    })
}

/// The verdict polarity of every trace checker on one lane. Lanes are
/// compared by polarity: the reduced walk may surface different witnesses.
#[derive(Debug, PartialEq, Eq)]
struct Verdicts {
    sc_racy: bool,
    all_sc: bool,
    global_racy: bool,
    local_drf: bool,
    detector_racy: bool,
}

/// `L` = every nonatomic location: the instance Theorem 14's proof uses.
fn all_nonatomics(p: &Program) -> LocPredicate {
    p.locs.nonatomic().collect()
}

fn verdicts(p: &Program, lane: Lane<'_, ThreadState>) -> Verdicts {
    let cfg = EngineConfig::default();
    let racy = |s: DrfStatus| matches!(s, DrfStatus::Racy(_));
    Verdicts {
        sc_racy: racy(sc_race_freedom(&p.locs, lane.clone(), cfg).expect("fits budget")),
        all_sc: all_traces_sequentially_consistent(&p.locs, lane.clone(), cfg)
            .expect("fits budget"),
        global_racy: racy(check_global_drf(&p.locs, lane.clone(), cfg).expect("theorem 14 holds")),
        local_drf: check_local_drf(&p.locs, lane.clone(), &all_nonatomics(p), cfg).is_ok(),
        detector_racy: detect_races(&p.locs, lane, cfg, DetectorConfig::default())
            .expect("fits budget")
            .racy(),
    }
}

/// Every trace checker on [`Lane::Reduced`] and on [`Lane::Replay`] (after
/// [`TraceEngine::record`]) reaches the verdict polarity of [`Lane::Full`].
/// L-stability is checked after every first step, so its prefix is
/// non-empty and the verdict is not trivially "stable".
#[allow(dead_code)]
pub fn assert_every_lane_agrees(name: &str, p: &Program) {
    let cfg = EngineConfig::default();
    let record = |m| -> TraceGraph {
        TraceEngine::new(cfg)
            .record(&p.locs, m)
            .expect("recording fits budget")
            .0
    };
    let m0 = p.initial_machine();
    let graph = record(m0.clone());
    let full = verdicts(p, Lane::Full(m0.clone()));
    for (lane_name, lane) in [
        ("reduced", Lane::Reduced(m0.clone())),
        ("replay", Lane::Replay(&graph)),
    ] {
        assert_eq!(verdicts(p, lane), full, "{name}: {lane_name} lane diverges");
    }

    let l = all_nonatomics(p);
    for t in m0.transitions(&p.locs) {
        let prefix = [t.label];
        let stable = |lane| is_l_stable_for_prefix(&p.locs, &prefix, lane, &l, cfg).unwrap();
        let graph = record(t.target.clone());
        let full = stable(Lane::Full(t.target.clone()));
        assert_eq!(
            stable(Lane::Reduced(t.target)),
            full,
            "{name}: reduced L-stability diverges after {}",
            t.label
        );
        assert_eq!(
            stable(Lane::Replay(&graph)),
            full,
            "{name}: replayed L-stability diverges after {}",
            t.label
        );
    }
}
