//! The streaming vector-clock race detector.
//!
//! [`RaceDetector`] consumes a trace one [`TransitionLabel`] at a time
//! and flags every extension whose last transition races with an earlier
//! one (Definition 10), using the epoch/vector-clock algebra of
//! [`crate::clock`] instead of the O(n²) happens-before closure: per
//! nonatomic location it keeps the last write (an epoch — writes to a
//! location are totally ordered until the first race, so the last write
//! dominates) and a per-thread read table; per atomic location, a
//! release clock accumulating every writer's clock (Definition 8's
//! `write → read/write` edge).
//!
//! The same detector state drives two consumption modes:
//!
//! * **walked** ([`detect_races`]) — as a [`TraceVisitor`] and
//!   [`ReplayVisitor`] riding any [`Lane`]: the full live walk, the
//!   partial-order-reduced walk, or a replay of a recorded
//!   [`bdrst_core::engine::TraceGraph`], which runs **zero**
//!   transition-semantics steps (the probe-counting suites assert this).
//!   Backtracking is handled by an undo stack: every applied event
//!   records what it overwrote, and the detector re-synchronises to the
//!   walk's current prefix, by trace length alone, before each extension.
//! * **linear** ([`RaceDetector::run_linear`]) — over one fixed label
//!   sequence, which is what the ddmin shrinker re-runs per candidate.
//!
//! Detection explores sequentially consistent traces by default
//! ([`DetectorConfig::sc_only`]), matching the hypothesis of the DRF
//! theorems: "some explored trace has a race" then agrees exactly with
//! [`bdrst_core::localdrf::sc_race_freedom`], which the differential
//! suites check corpus-wide and on generated programs.

use std::collections::BTreeSet;

use bdrst_core::engine::{
    Control, EngineConfig, EngineError, ExploreStats, Lane, ReplayStep, ReplayVisitor, TraceVisitor,
};
use bdrst_core::loc::{Loc, LocKind, LocSet};
use bdrst_core::machine::{Expr, ThreadId, Transition, TransitionLabel};
use bdrst_core::trace::TraceLabels;

use crate::clock::{Access, VectorClock};
use crate::witness::RaceWitness;

/// Detector knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectorConfig {
    /// Explore only sequentially consistent traces (no weak
    /// transitions) — the quantifier of the DRF theorems. Turning this
    /// off scans weak executions too (races are defined identically).
    pub sc_only: bool,
    /// Stop exploring once this many distinct witnesses (deduplicated by
    /// location, thread pair and access kinds) have been collected.
    pub max_witnesses: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            sc_only: true,
            max_witnesses: 16,
        }
    }
}

/// Per-nonatomic-location detector state.
#[derive(Clone, Debug, Default)]
struct NaState {
    /// The last write (adequate while the prefix is race-free: earlier
    /// writes are happens-before-ordered below it).
    write: Option<Access>,
    /// Per-thread last read (a same-thread later read dominates earlier
    /// ones for racing-against-a-write purposes).
    reads: Vec<Option<Access>>,
}

impl NaState {
    fn read_mut(&mut self, t: ThreadId) -> &mut Option<Access> {
        if self.reads.len() <= t.index() {
            self.reads.resize(t.index() + 1, None);
        }
        &mut self.reads[t.index()]
    }
}

/// What one applied event overwrote — enough to rewind it on DFS
/// backtrack. Nonatomic accesses and silent steps only tick the acting
/// thread's clock; atomic accesses join, so their previous clock is
/// snapshotted wholesale (clocks are thread-count-sized, litmus-scale).
#[derive(Clone, Debug)]
enum UndoKind {
    Tick,
    NaWrite {
        loc: Loc,
        prev: Option<Access>,
    },
    NaRead {
        loc: Loc,
        prev: Option<Access>,
    },
    AtomicRead {
        prev_clock: VectorClock,
    },
    AtomicWrite {
        loc: Loc,
        prev_clock: VectorClock,
        prev_release: VectorClock,
    },
}

#[derive(Clone, Debug)]
struct Undo {
    thread: ThreadId,
    kind: UndoKind,
}

/// The result of one detection run.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Distinct witnesses, in discovery (depth-first) order.
    pub witnesses: Vec<RaceWitness>,
    /// Events the detector processed (its throughput denominator).
    pub events: u64,
    /// The driving exploration's statistics.
    pub stats: ExploreStats,
}

impl RaceReport {
    /// True iff at least one race was observed.
    pub fn racy(&self) -> bool {
        !self.witnesses.is_empty()
    }
}

/// The streaming detector. See the module docs; construct with
/// [`RaceDetector::new`], drive it as a visitor (or via
/// [`detect_races`]), then take the report with
/// [`RaceDetector::into_report`].
pub struct RaceDetector<'a> {
    locs: &'a LocSet,
    config: DetectorConfig,
    clocks: Vec<VectorClock>,
    na: Vec<NaState>,
    releases: Vec<VectorClock>,
    undo: Vec<Undo>,
    events: u64,
    witnesses: Vec<RaceWitness>,
    seen: BTreeSet<(Loc, ThreadId, ThreadId, bool, bool)>,
}

impl<'a> RaceDetector<'a> {
    /// A fresh detector over the given location table.
    pub fn new(locs: &'a LocSet, config: DetectorConfig) -> RaceDetector<'a> {
        RaceDetector {
            locs,
            config,
            clocks: Vec::new(),
            na: vec![NaState::default(); locs.len()],
            releases: vec![VectorClock::new(); locs.len()],
            undo: Vec::new(),
            events: 0,
            witnesses: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finishes a run: the collected witnesses plus the driving
    /// exploration's statistics.
    pub fn into_report(self, stats: ExploreStats) -> RaceReport {
        RaceReport {
            witnesses: self.witnesses,
            events: self.events,
            stats,
        }
    }

    fn clock_mut(&mut self, t: ThreadId) -> &mut VectorClock {
        if self.clocks.len() <= t.index() {
            self.clocks.resize(t.index() + 1, VectorClock::new());
        }
        &mut self.clocks[t.index()]
    }

    /// Rewinds the most recently applied event.
    fn undo_one(&mut self) {
        let Undo { thread, kind } = self.undo.pop().expect("undo stack underflow");
        match kind {
            UndoKind::Tick => self.clocks[thread.index()].untick(thread),
            UndoKind::NaWrite { loc, prev } => {
                self.clocks[thread.index()].untick(thread);
                self.na[loc.index()].write = prev;
            }
            UndoKind::NaRead { loc, prev } => {
                self.clocks[thread.index()].untick(thread);
                *self.na[loc.index()].read_mut(thread) = prev;
            }
            UndoKind::AtomicRead { prev_clock } => {
                self.clocks[thread.index()] = prev_clock;
            }
            UndoKind::AtomicWrite {
                loc,
                prev_clock,
                prev_release,
            } => {
                self.clocks[thread.index()] = prev_clock;
                self.releases[loc.index()] = prev_release;
            }
        }
    }

    /// Applies the extension whose label stack is `trace` (the new event
    /// is the last label), after rewinding to the common prefix, and
    /// returns the engine control verdict.
    fn observe(&mut self, trace: &TraceLabels) -> Control {
        while self.undo.len() >= trace.len() {
            self.undo_one();
        }
        debug_assert_eq!(self.undo.len(), trace.len() - 1);
        self.events += 1;
        let idx = trace.len() - 1;
        let label = *trace.labels().last().expect("non-empty trace");
        let t = label.thread;

        let mut race: Option<Access> = None;
        let kind = match label.action {
            None => {
                self.clock_mut(t).tick(t);
                UndoKind::Tick
            }
            Some(la) => match self.locs.kind(la.loc) {
                LocKind::Atomic => {
                    let prev_clock = self.clock_mut(t).clone();
                    let release = self.releases[la.loc.index()].clone();
                    let clock = self.clock_mut(t);
                    clock.join(&release);
                    clock.tick(t);
                    if la.action.is_write() {
                        let published = clock.clone();
                        let rel = &mut self.releases[la.loc.index()];
                        let prev_release = rel.clone();
                        rel.join(&published);
                        UndoKind::AtomicWrite {
                            loc: la.loc,
                            prev_clock,
                            prev_release,
                        }
                    } else {
                        UndoKind::AtomicRead { prev_clock }
                    }
                }
                LocKind::Nonatomic => {
                    self.clock_mut(t); // ensure the clock row exists
                    let clock = &self.clocks[t.index()];
                    let st = &self.na[la.loc.index()];
                    // Race checks: current access vs the recorded
                    // frontier, keeping the earliest racing partner for
                    // the witness.
                    let mut consider = |cand: &Option<Access>| {
                        if let Some(c) = cand {
                            if !clock.dominates(c.thread, c.epoch)
                                && race.is_none_or(|r| c.index < r.index)
                            {
                                race = Some(*c);
                            }
                        }
                    };
                    consider(&st.write);
                    if la.action.is_write() {
                        for r in &st.reads {
                            consider(r);
                        }
                        let epoch = self.clocks[t.index()].tick(t);
                        let prev = self.na[la.loc.index()].write.replace(Access {
                            thread: t,
                            epoch,
                            index: idx,
                        });
                        UndoKind::NaWrite { loc: la.loc, prev }
                    } else {
                        let epoch = self.clocks[t.index()].tick(t);
                        let prev = self.na[la.loc.index()].read_mut(t).replace(Access {
                            thread: t,
                            epoch,
                            index: idx,
                        });
                        UndoKind::NaRead { loc: la.loc, prev }
                    }
                }
            },
        };
        self.undo.push(Undo { thread: t, kind });

        let Some(partner) = race else {
            return Control::Continue;
        };
        // A racy extension: report (deduplicated) and prune — extending
        // a trace that already raced would need race-recovery clock
        // logic, and every sibling branch is still explored in full.
        let w = RaceWitness::from_pair(trace.labels(), partner.index, idx);
        let key = (
            w.loc,
            w.threads.0,
            w.threads.1,
            w.actions.0.is_write(),
            w.actions.1.is_write(),
        );
        if self.seen.insert(key) {
            // Every *surfaced* witness is re-checked against the O(n²)
            // reference happens-before, release builds included — a
            // clock-algebra bug must be a loud invariant failure, never
            // a fabricated race report. Bounded by `max_witnesses`, so
            // the quadratic check never touches the hot path.
            assert!(w.validate(self.locs), "clock race not a reference race");
            self.witnesses.push(w);
        }
        if self.witnesses.len() >= self.config.max_witnesses {
            return Control::Stop;
        }
        Control::Prune
    }

    /// Runs the detector over one fixed label sequence (no branching, no
    /// undo), returning the first witness if the trace races. Used by
    /// the shrinker's candidate checks.
    pub fn run_linear(
        locs: &LocSet,
        config: DetectorConfig,
        labels: &[TransitionLabel],
    ) -> Option<RaceWitness> {
        let mut d = RaceDetector::new(
            locs,
            DetectorConfig {
                max_witnesses: 1,
                ..config
            },
        );
        let mut trace = TraceLabels::new();
        for l in labels {
            if config.sc_only && l.weak {
                continue;
            }
            trace.push(*l);
            if let Control::Stop = d.observe(&trace) {
                return d.witnesses.pop();
            }
        }
        d.witnesses.pop()
    }

    fn passes_filter(&self, label: &TransitionLabel) -> bool {
        !(self.config.sc_only && label.weak)
    }
}

impl<E: Expr> TraceVisitor<E> for RaceDetector<'_> {
    fn step_filter(&mut self, t: &Transition<E>) -> bool {
        self.passes_filter(&t.label)
    }

    fn visit(&mut self, trace: &TraceLabels, _t: &Transition<E>) -> Control {
        self.observe(trace)
    }
}

impl ReplayVisitor for RaceDetector<'_> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        self.passes_filter(label)
    }

    fn visit(&mut self, trace: &TraceLabels, _step: ReplayStep<'_>) -> Control {
        self.observe(trace)
    }
}

/// Detection over `lane`: walks every (by default SC) trace, streaming
/// each into the detector.
///
/// [`Lane::Full`] and [`Lane::Replay`] report identical witnesses (the
/// replay reproduces the live walk's order, filter and budget semantics).
/// [`Lane::Reduced`] streams one representative trace per equivalence
/// class: conservative commutations preserve labels and happens-before,
/// so a race in any trace appears in its representative and the
/// `racy()` polarity matches exactly. Its witness *set* may be smaller —
/// a pruned sibling order can surface a different thread pair first — so
/// reduced reports are compared by polarity, not witness-for-witness.
///
/// # Errors
///
/// [`EngineError`] on budget exhaustion or a corrupted machine.
pub fn detect_races<E: Expr>(
    locs: &LocSet,
    lane: Lane<'_, E>,
    engine: EngineConfig,
    config: DetectorConfig,
) -> Result<RaceReport, EngineError> {
    let replay = matches!(lane, Lane::Replay(_));
    let (phase, counter) = if replay {
        (
            bdrst_obs::Phase::RaceReplay,
            bdrst_obs::Counter::RaceEventsReplayed,
        )
    } else {
        (
            bdrst_obs::Phase::RaceLive,
            bdrst_obs::Counter::RaceEventsLive,
        )
    };
    let mut span = bdrst_obs::span(phase);
    let mut d = RaceDetector::new(locs, config);
    let stats = lane.walk(locs, engine, &mut d)?;
    bdrst_obs::counter_add(counter, d.events());
    span.set_arg(d.events());
    Ok(d.into_report(stats))
}

/// [`detect_races`] on [`Lane::Replay`] of `graph`. Kept under this name
/// only because `bdrstbench/tracer` calls it; new code passes the lane.
///
/// # Errors
///
/// As [`detect_races`].
pub fn detect_races_replayed(
    locs: &LocSet,
    graph: &bdrst_core::engine::TraceGraph,
    engine: EngineConfig,
    config: DetectorConfig,
) -> Result<RaceReport, EngineError> {
    let lane = Lane::<bdrst_core::machine::RecordedExpr>::Replay(graph);
    detect_races(locs, lane, engine, config)
}
