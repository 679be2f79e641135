//! L-stability, the local DRF theorem (Theorem 13) and the derived global
//! DRF theorem (Theorem 14), as executable checkers.
//!
//! * [`is_l_stable_for_prefix`] — Definition 12: `M` is L-stable if no
//!   trace through `M` has a data race between a transition before `M` and
//!   an L-sequential transition after it.
//! * [`check_local_drf`] — Theorem 13: from an L-stable `M`, after any
//!   L-sequential transition sequence, either every enabled transition is
//!   L-sequential, or some enabled *non-weak* transition on a location in
//!   `L` races with one of the transitions taken since `M`.
//! * [`check_global_drf`] — Theorem 14: if every sequentially consistent
//!   trace of a program is race-free, then every trace of the program is
//!   sequentially consistent.
//!
//! These checkers exhaustively verify the theorems on bounded state spaces;
//! they are used by the test suite across the whole litmus corpus, and by
//! the failure-injection tests, which check that deliberately broken
//! semantics (e.g. non-synchronising atomics) are caught.
//!
//! Each checker is one [`TraceVisitor`] + [`ReplayVisitor`] whose verdict
//! consumes transition *labels* only, and one public function that takes
//! the walk to run as a [`Lane`]: the full live enumeration
//! ([`Lane::Full`]), the partial-order-reduced one ([`Lane::Reduced`]),
//! or a replay of a recorded [`crate::engine::TraceGraph`]
//! ([`Lane::Replay`]), which runs no transition semantics at all — record
//! the tree once, then check L-stability for many `L` sets,
//! SC-race-freedom and Theorem 14's two scans against the same recording.
//! The engine's budget and error surface ([`EngineError`]) apply
//! uniformly across lanes. The reduced walk preserves labels,
//! happens-before, races and weak flags, so it classifies programs
//! exactly as the full one; witnesses may differ. The differential
//! suites run every checker on every lane over the litmus corpus and
//! generated programs.

use crate::engine::{
    Control, EngineConfig, EngineError, ExploreStats, Lane, ReplayStep, ReplayVisitor, TraceVisitor,
};
use crate::loc::LocSet;
use crate::machine::{Expr, Transition, TransitionLabel};
use crate::trace::{conflicting, is_l_sequential, LocPredicate, TraceLabels};

/// A counterexample to Theorem 13 found by [`check_local_drf`]: an
/// L-sequential suffix after which a non-L-sequential transition is enabled
/// yet no racing non-weak transition on `L` exists.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocalDrfViolation {
    /// The L-sequential transitions taken since the checked state.
    pub suffix: Vec<TransitionLabel>,
    /// The enabled transition that is not L-sequential.
    pub offending: TransitionLabel,
}

impl std::fmt::Display for LocalDrfViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "local DRF violated after L-sequential suffix:")?;
        for t in &self.suffix {
            writeln!(f, "  {t}")?;
        }
        write!(
            f,
            "offending non-L-sequential transition: {}",
            self.offending
        )
    }
}

/// The outcome of a DRF-style check that can also fail inside the engine
/// (budget exhaustion or state corruption).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError<V> {
    /// The property was violated, with a witness.
    Violation(V),
    /// The exploration engine failed before a verdict.
    Engine(EngineError),
}

impl<V: std::fmt::Debug> std::fmt::Display for CheckError<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Violation(v) => write!(f, "property violated: {v:?}"),
            CheckError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl<V: std::fmt::Debug> std::error::Error for CheckError<V> {}

impl<V> From<EngineError> for CheckError<V> {
    fn from(e: EngineError) -> CheckError<V> {
        CheckError::Engine(e)
    }
}

/// If the transition just appended to `all` (at index `n`) races with one
/// of the first `limit` transitions, returns the index of that partner.
fn races_with_prefix(locs: &LocSet, all: &TraceLabels, limit: usize) -> Option<usize> {
    let n = all.len() - 1;
    let hb = all.happens_before(locs);
    let last = all.labels()[n];
    all.labels()[..limit]
        .iter()
        .enumerate()
        .find(|(i, ti)| conflicting(ti, &last, locs) && !hb.contains(*i, n))
        .map(|(i, _)| i)
}

/// Visitor for Definition 12: explores L-sequential suffixes and reports a
/// race between any suffix transition and any prefix transition. The
/// verdict consumes labels only, so the visitor drives live walks
/// ([`TraceVisitor`]) and graph replays ([`ReplayVisitor`]) alike.
struct LStabilityVisitor<'a> {
    locs: &'a LocSet,
    prefix: &'a [TransitionLabel],
    l_set: &'a LocPredicate,
    stable: bool,
}

impl LStabilityVisitor<'_> {
    fn check(&mut self, suffix: &TraceLabels) -> Control {
        // Race between some prefix Ti and the transition just taken?
        let mut all = TraceLabels::from_labels(self.prefix.to_vec());
        for l in suffix.labels() {
            all.push(*l);
        }
        if races_with_prefix(self.locs, &all, self.prefix.len()).is_some() {
            self.stable = false;
            return Control::Stop;
        }
        Control::Continue
    }
}

impl<E: Expr> TraceVisitor<E> for LStabilityVisitor<'_> {
    fn step_filter(&mut self, t: &Transition<E>) -> bool {
        is_l_sequential(&t.label, self.l_set)
    }

    fn visit(&mut self, suffix: &TraceLabels, _t: &Transition<E>) -> Control {
        self.check(suffix)
    }
}

impl ReplayVisitor for LStabilityVisitor<'_> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        is_l_sequential(label, self.l_set)
    }

    fn visit(&mut self, suffix: &TraceLabels, _step: ReplayStep<'_>) -> Control {
        self.check(suffix)
    }
}

/// Checks Definition 12 for the state `M` reached via the transitions
/// `prefix`: walks every L-sequential suffix from `M` on `lane` (a
/// recording of `M`'s trace tree, for [`Lane::Replay`]) and reports
/// whether any suffix transition races with any prefix transition. One
/// recording serves every `L` set and every prefix reaching `M`.
///
/// (Definition 12 quantifies over *all* traces through `M`; callers that
/// need full generality enumerate prefixes reaching `M` and invoke this per
/// prefix. For the paper's reasoning patterns — "no concurrent accesses to
/// `L` before the fragment" — the given-prefix form is the one used.)
///
/// The verdict is a race-existence question over suffixes, so
/// [`Lane::Reduced`] answers it exactly: conservative commutations
/// preserve labels and happens-before, hence races.
///
/// # Errors
///
/// Returns [`EngineError`] if the suffix exploration exceeds the budget.
pub fn is_l_stable_for_prefix<E: Expr>(
    locs: &LocSet,
    prefix: &[TransitionLabel],
    lane: Lane<'_, E>,
    l_set: &LocPredicate,
    config: EngineConfig,
) -> Result<bool, EngineError> {
    let mut v = LStabilityVisitor {
        locs,
        prefix,
        l_set,
        stable: true,
    };
    lane.walk(locs, config, &mut v)?;
    Ok(v.stable)
}

/// Visitor for Theorem 13: walks L-sequential suffixes, checking the
/// theorem's conclusion at every reached state. The conclusion consumes
/// only the *labels* of the transitions enabled at the reached state, so
/// the same visitor drives live walks and graph replays.
struct LocalDrfVisitor<'a> {
    locs: &'a LocSet,
    l_set: &'a LocPredicate,
    violation: Option<LocalDrfViolation>,
}

impl<'a> LocalDrfVisitor<'a> {
    /// Checks the theorem's conclusion at one state, reached via `suffix`,
    /// whose enabled transitions carry the labels `enabled`.
    fn check_state(
        &self,
        suffix: &TraceLabels,
        enabled: impl Iterator<Item = TransitionLabel> + Clone,
    ) -> Option<LocalDrfViolation> {
        let mut non_l_seq = enabled.clone().filter(|l| !is_l_sequential(l, self.l_set));
        let Some(offending) = non_l_seq.next() else {
            return None; // first disjunct: all transitions L-sequential
        };
        // Second disjunct: find a non-weak transition on L racing with a Ti.
        let witness_exists = enabled.into_iter().any(|label| {
            if label.weak {
                return false;
            }
            let Some(action) = label.action else {
                return false;
            };
            if !self.l_set.contains(&action.loc) {
                return false;
            }
            // Race between some suffix Ti and this transition?
            let mut all = suffix.clone();
            all.push(label);
            races_with_prefix(self.locs, &all, all.len() - 1).is_some()
        });
        if witness_exists {
            None
        } else {
            Some(LocalDrfViolation {
                suffix: suffix.labels().to_vec(),
                offending,
            })
        }
    }

    fn check(
        &mut self,
        suffix: &TraceLabels,
        enabled: impl Iterator<Item = TransitionLabel> + Clone,
    ) -> Control {
        if let Some(v) = self.check_state(suffix, enabled) {
            self.violation = Some(v);
            return Control::Stop;
        }
        Control::Continue
    }
}

impl<E: Expr> TraceVisitor<E> for LocalDrfVisitor<'_> {
    fn step_filter(&mut self, t: &Transition<E>) -> bool {
        is_l_sequential(&t.label, self.l_set)
    }

    fn visit(&mut self, suffix: &TraceLabels, t: &Transition<E>) -> Control {
        let enabled = t.target.transitions(self.locs);
        self.check(suffix, enabled.iter().map(|t| t.label))
    }
}

impl ReplayVisitor for LocalDrfVisitor<'_> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        is_l_sequential(label, self.l_set)
    }

    fn visit(&mut self, suffix: &TraceLabels, step: ReplayStep<'_>) -> Control {
        self.check(suffix, step.enabled.iter().copied())
    }
}

/// Checks Theorem 13 from the machine state `M` at the root of `lane`,
/// assumed L-stable.
///
/// Explores every L-sequential transition sequence from `M` (within
/// budget). At each reached state, including `M` itself, if some enabled
/// transition is *not* L-sequential, verifies the theorem's guarantee:
/// an enabled non-weak transition on a location in `L` exists that has a
/// data race with one of the suffix transitions. Returns statistics on
/// success.
///
/// On [`Lane::Reduced`] the conclusion is checked along one
/// representative suffix per equivalence class. Any violation reported
/// is real (the checked states are reachable), and the per-state verdict
/// depends only on data that conservative commutations preserve — suffix
/// labels up to reordering of independent pairs, their races, and the
/// reached machine state — so equivalent suffixes agree on it.
///
/// # Errors
///
/// * [`CheckError::Violation`] with a [`LocalDrfViolation`] witness if the
///   theorem fails (impossible for the paper semantics; reachable with the
///   failure-injection semantics).
/// * [`CheckError::Engine`] if exploration exceeds the budget.
pub fn check_local_drf<E: Expr>(
    locs: &LocSet,
    lane: Lane<'_, E>,
    l_set: &LocPredicate,
    config: EngineConfig,
) -> Result<ExploreStats, CheckError<LocalDrfViolation>> {
    let mut visitor = LocalDrfVisitor {
        locs,
        l_set,
        violation: None,
    };
    // The empty suffix (state `M` itself) must also satisfy the theorem.
    let enabled = lane.root_enabled(locs);
    if let Some(v) = visitor.check_state(&TraceLabels::new(), enabled.into_iter()) {
        return Err(CheckError::Violation(v));
    }
    let stats = lane.walk(locs, config, &mut visitor)?;
    match visitor.violation {
        Some(v) => Err(CheckError::Violation(v)),
        None => Ok(stats),
    }
}

/// A witness that a program is not data-race-free: a sequentially
/// consistent trace containing a data race.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RaceWitness {
    /// The racy sequentially consistent trace.
    pub trace: Vec<TransitionLabel>,
    /// Indices of the racing pair within `trace`.
    pub pair: (usize, usize),
}

/// Classification of a program by [`sc_race_freedom`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DrfStatus {
    /// Every sequentially consistent trace is race-free.
    RaceFree,
    /// Some sequentially consistent trace has a race.
    Racy(RaceWitness),
}

/// Visitor enumerating SC traces and reporting the first race.
struct ScRaceVisitor<'a> {
    locs: &'a LocSet,
    status: DrfStatus,
}

impl ScRaceVisitor<'_> {
    fn check(&mut self, trace: &TraceLabels) -> Control {
        // Only the freshly appended transition needs checking: earlier
        // pairs were checked on earlier prefixes.
        let n = trace.len() - 1;
        if let Some(i) = races_with_prefix(self.locs, trace, n) {
            self.status = DrfStatus::Racy(RaceWitness {
                trace: trace.labels().to_vec(),
                pair: (i, n),
            });
            return Control::Stop;
        }
        Control::Continue
    }
}

impl<E: Expr> TraceVisitor<E> for ScRaceVisitor<'_> {
    fn step_filter(&mut self, t: &Transition<E>) -> bool {
        !t.label.weak
    }

    fn visit(&mut self, trace: &TraceLabels, _t: &Transition<E>) -> Control {
        self.check(trace)
    }
}

impl ReplayVisitor for ScRaceVisitor<'_> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        !label.weak
    }

    fn visit(&mut self, trace: &TraceLabels, _step: ReplayStep<'_>) -> Control {
        self.check(trace)
    }
}

/// Determines whether the program at the root of `lane` is data-race-free
/// in the sense of Theorem 14's hypothesis: all sequentially consistent
/// traces contain no data races.
///
/// [`Lane::Full`] and [`Lane::Replay`] walk in the same depth-first order
/// and report the same witness. [`Lane::Reduced`] reports the same
/// classification — a race in any SC trace appears in its explored
/// representative — but possibly a different witness, so differential
/// checks compare the [`DrfStatus`] polarity.
///
/// # Errors
///
/// Returns [`EngineError`] on budget exhaustion.
pub fn sc_race_freedom<E: Expr>(
    locs: &LocSet,
    lane: Lane<'_, E>,
    config: EngineConfig,
) -> Result<DrfStatus, EngineError> {
    let mut v = ScRaceVisitor {
        locs,
        status: DrfStatus::RaceFree,
    };
    lane.walk(locs, config, &mut v)?;
    Ok(v.status)
}

/// Visitor that stops at the first trace containing a weak transition.
struct WeakTraceVisitor {
    witness: Option<TransitionLabel>,
}

impl WeakTraceVisitor {
    fn check(&mut self, trace: &TraceLabels) -> Control {
        let last = *trace.labels().last().expect("non-empty");
        if last.weak {
            self.witness = Some(last);
            return Control::Stop;
        }
        Control::Continue
    }
}

impl<E: Expr> TraceVisitor<E> for WeakTraceVisitor {
    fn visit(&mut self, trace: &TraceLabels, _t: &Transition<E>) -> Control {
        self.check(trace)
    }
}

impl ReplayVisitor for WeakTraceVisitor {
    fn visit(&mut self, trace: &TraceLabels, _step: ReplayStep<'_>) -> Control {
        self.check(trace)
    }
}

/// Determines whether *every* trace of the program at the root of `lane`
/// is sequentially consistent, i.e. no weak transition is ever enabled
/// along a sequentially consistent trace. (The first weak transition of
/// any trace is preceded by an SC prefix, so SC-reachability suffices.)
/// Weak flags are part of the labels, which every lane preserves.
///
/// # Errors
///
/// Returns [`EngineError`] on budget exhaustion.
pub fn all_traces_sequentially_consistent<E: Expr>(
    locs: &LocSet,
    lane: Lane<'_, E>,
    config: EngineConfig,
) -> Result<bool, EngineError> {
    let mut v = WeakTraceVisitor { witness: None };
    lane.walk(locs, config, &mut v)?;
    Ok(v.witness.is_none())
}

/// A counterexample to Theorem 14: the program is data-race-free under
/// sequential consistency, yet admits a non-SC trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GlobalDrfViolation {
    /// The weak transition that should have been impossible.
    pub weak_transition: TransitionLabel,
}

/// Checks Theorem 14 on the program at the root of `lane`: if the
/// program is data-race-free (per [`sc_race_freedom`]), verifies that all
/// traces are sequentially consistent. Racy programs satisfy the theorem
/// vacuously.
///
/// Both scans walk `lane`. On [`Lane::Replay`] the transition semantics
/// never runs, so one recording ([`crate::engine::TraceEngine::record`])
/// serves the two scans. The recording enumerates the full (unfiltered)
/// tree, so a budget that fits the SC-filtered scan but not the whole
/// tree fails to record where [`Lane::Full`] would succeed.
///
/// # Errors
///
/// * [`CheckError::Violation`] if the theorem fails (never, for the paper
///   semantics).
/// * [`CheckError::Engine`] on budget exhaustion.
pub fn check_global_drf<E: Expr>(
    locs: &LocSet,
    lane: Lane<'_, E>,
    config: EngineConfig,
) -> Result<DrfStatus, CheckError<GlobalDrfViolation>> {
    let status = sc_race_freedom(locs, lane.clone(), config)?;
    if let DrfStatus::RaceFree = status {
        let mut v = WeakTraceVisitor { witness: None };
        lane.walk(locs, config, &mut v)?;
        if let Some(weak_transition) = v.witness {
            return Err(CheckError::Violation(GlobalDrfViolation {
                weak_transition,
            }));
        }
    }
    Ok(status)
}

/// [`check_local_drf`] on [`Lane::Replay`] of `graph`. Kept under this
/// name only because `bdrstbench/tracer` calls it; new code passes the
/// lane.
///
/// # Errors
///
/// As [`check_local_drf`].
pub fn check_local_drf_replayed(
    locs: &LocSet,
    graph: &crate::engine::TraceGraph,
    l_set: &LocPredicate,
    config: EngineConfig,
) -> Result<ExploreStats, CheckError<LocalDrfViolation>> {
    let lane = Lane::<crate::machine::RecordedExpr>::Replay(graph);
    check_local_drf(locs, lane, l_set, config)
}

/// [`sc_race_freedom`] on [`Lane::Reduced`] from `m0`. Kept under this
/// name only because `bdrstbench/tracer` calls it; new code passes the
/// lane.
///
/// # Errors
///
/// As [`sc_race_freedom`].
pub fn sc_race_freedom_reduced<E: Expr>(
    locs: &LocSet,
    m0: crate::machine::Machine<E>,
    config: EngineConfig,
) -> Result<DrfStatus, EngineError> {
    sc_race_freedom(locs, Lane::Reduced(m0), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{TraceEngine, TraceGraph};
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{Machine, RecordedExpr, StepLabel};

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    fn locs_abf() -> (LocSet, Loc, Loc, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        let b = l.fresh("b", LocKind::Nonatomic);
        let f = l.fresh("F", LocKind::Atomic);
        (l, a, b, f)
    }

    /// The three lanes over the same program: live, reduced, and a replay
    /// of `graph` (a recording of `m0`).
    fn lanes<'g, E: Expr>(m0: &Machine<E>, graph: &'g TraceGraph) -> [Lane<'g, E>; 3] {
        [
            Lane::Full(m0.clone()),
            Lane::Reduced(m0.clone()),
            Lane::Replay(graph),
        ]
    }

    #[test]
    fn drf_program_is_globally_sc() {
        // Message passing through an atomic is data-race-free... only if
        // the reader's access to `a` is conditional on the flag. A reader
        // that accesses `a` unconditionally races. Here: both threads write
        // disjoint locations with atomic flag sync — race-free.
        let (locs, a, _b, f) = locs_abf();
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
        ]);
        let p1 = RecordedExpr::new(vec![StepLabel::Read(f)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let status = check_global_drf(&locs, Lane::Full(m0), cfg()).unwrap();
        assert_eq!(status, DrfStatus::RaceFree);
    }

    #[test]
    fn racy_program_detected() {
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        match sc_race_freedom(&locs, Lane::Full(m0), cfg()).unwrap() {
            DrfStatus::Racy(w) => {
                assert!(w.pair.0 < w.pair.1);
            }
            DrfStatus::RaceFree => panic!("expected a race"),
        }
    }

    #[test]
    fn racy_program_has_weak_traces() {
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(a)]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        assert!(!all_traces_sequentially_consistent(&locs, Lane::Full(m0), cfg()).unwrap());
    }

    #[test]
    fn theorem13_holds_from_initial_state() {
        // Initial states are trivially L-stable; the theorem must hold for
        // any L. Use the SB shape, L = {a}.
        let (locs, a, b, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let l: LocPredicate = [a].into_iter().collect();
        check_local_drf(&locs, Lane::Full(m0), &l, cfg()).unwrap();
    }

    #[test]
    fn theorem13_holds_all_locations() {
        // L = all nonatomic locations: local DRF specialises to the global
        // guarantee (Theorem 14's proof uses exactly this instance).
        let (locs, a, b, f) = locs_abf();
        let p0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
            StepLabel::Read(b),
        ]);
        let p1 = RecordedExpr::new(vec![
            StepLabel::Read(f),
            StepLabel::Write(b, Val(1)),
            StepLabel::Read(a),
        ]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let l: LocPredicate = [a, b].into_iter().collect();
        check_local_drf(&locs, Lane::Full(m0), &l, cfg()).unwrap();
    }

    #[test]
    fn initial_state_is_l_stable() {
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let l: LocPredicate = [a].into_iter().collect();
        // Empty prefix: nothing to race with.
        assert!(is_l_stable_for_prefix(&locs, &[], Lane::Full(m0), &l, cfg()).unwrap());
    }

    #[test]
    fn mid_race_state_is_not_l_stable() {
        // After P0's write to `a` (the prefix), P1's conflicting write is
        // still to come: the state is not {a}-stable.
        let (locs, a, _, _) = locs_abf();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        // Take P0's write.
        let t = m0
            .transitions(&locs)
            .into_iter()
            .find(|t| t.label.thread.index() == 0)
            .unwrap();
        let l: LocPredicate = [a].into_iter().collect();
        let stable =
            is_l_stable_for_prefix(&locs, &[t.label], Lane::Full(t.target), &l, cfg()).unwrap();
        assert!(!stable);
    }

    /// One race-free MP-style and one racy program, each paired with
    /// the same `L = {a, b}`.
    fn lane_agreement_programs() -> (LocSet, LocPredicate, [Machine<RecordedExpr>; 2]) {
        let (locs, a, b, f) = locs_abf();
        let drf0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
            StepLabel::Read(b),
        ]);
        let drf1 = RecordedExpr::new(vec![
            StepLabel::Read(f),
            StepLabel::Write(b, Val(1)),
            StepLabel::Read(a),
        ]);
        let racy0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(a)]);
        let racy1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let l: LocPredicate = [a, b].into_iter().collect();
        let progs = [
            Machine::initial(&locs, [drf0, drf1]),
            Machine::initial(&locs, [racy0, racy1]),
        ];
        (locs, l, progs)
    }

    #[test]
    fn lanes_agree_on_race_and_sc_checkers() {
        let (locs, _, progs) = lane_agreement_programs();
        for m0 in progs {
            let (graph, _) = TraceEngine::new(cfg()).record(&locs, m0.clone()).unwrap();
            let full_racy = matches!(
                sc_race_freedom(&locs, Lane::Full(m0.clone()), cfg()).unwrap(),
                DrfStatus::Racy(_)
            );
            let full_sc =
                all_traces_sequentially_consistent(&locs, Lane::Full(m0.clone()), cfg()).unwrap();
            for lane in lanes(&m0, &graph) {
                let racy = matches!(
                    sc_race_freedom(&locs, lane.clone(), cfg()).unwrap(),
                    DrfStatus::Racy(_)
                );
                assert_eq!(full_racy, racy);
                assert_eq!(
                    full_sc,
                    all_traces_sequentially_consistent(&locs, lane.clone(), cfg()).unwrap()
                );
                let global = check_global_drf(&locs, lane, cfg()).unwrap();
                assert_eq!(full_racy, matches!(global, DrfStatus::Racy(_)));
            }
        }
    }

    #[test]
    fn lanes_agree_on_local_drf() {
        let (locs, l, progs) = lane_agreement_programs();
        for m0 in progs {
            let (graph, _) = TraceEngine::new(cfg()).record(&locs, m0.clone()).unwrap();
            let full_stable =
                is_l_stable_for_prefix(&locs, &[], Lane::Full(m0.clone()), &l, cfg()).unwrap();
            for lane in lanes(&m0, &graph) {
                assert_eq!(
                    full_stable,
                    is_l_stable_for_prefix(&locs, &[], lane.clone(), &l, cfg()).unwrap()
                );
                assert!(check_local_drf(&locs, lane, &l, cfg()).is_ok());
            }
        }
    }

    #[test]
    fn budget_trips_alike_on_every_lane() {
        // Every lane counts extensions against the same budget and
        // surfaces the same CheckError::Engine(BudgetExceeded).
        let (locs, a, _, _) = locs_abf();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 3]);
        let m0 = Machine::initial(&locs, [mk(), mk()]);
        let tiny = EngineConfig {
            max_states: 50,
            max_traces: 50,
        };
        let l: LocPredicate = [a].into_iter().collect();
        let (graph, _) = TraceEngine::new(cfg()).record(&locs, m0.clone()).unwrap();
        for lane in lanes(&m0, &graph) {
            match check_local_drf(&locs, lane, &l, tiny) {
                Err(CheckError::Engine(EngineError::BudgetExceeded { visited })) => {
                    assert_eq!(visited, tiny.max_traces + 1);
                }
                other => panic!("expected budget error, got {other:?}"),
            }
        }
    }

    /// An [`Expr`] wrapper that counts every transition-semantics probe
    /// (`steps()` calls): the instrument behind the no-re-execution
    /// guarantee of [`Lane::Replay`].
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct CountedExpr(RecordedExpr);

    static STEP_PROBES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl crate::machine::Expr for CountedExpr {
        fn steps(&self) -> crate::machine::Steps {
            STEP_PROBES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.steps()
        }

        fn apply_step(&self, index: usize, read_value: Val) -> CountedExpr {
            CountedExpr(self.0.apply_step(index, read_value))
        }
    }

    #[test]
    fn replayed_checkers_match_live_without_semantics() {
        let (locs, a, b, f) = locs_abf();
        // One racy and one race-free program.
        let progs: Vec<Vec<RecordedExpr>> = vec![
            vec![
                RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(a)]),
                RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]),
            ],
            vec![
                RecordedExpr::new(vec![
                    StepLabel::Write(a, Val(1)),
                    StepLabel::Write(f, Val(1)),
                    StepLabel::Read(b),
                ]),
                RecordedExpr::new(vec![
                    StepLabel::Read(f),
                    StepLabel::Write(b, Val(1)),
                    StepLabel::Read(a),
                ]),
            ],
        ];
        let l: LocPredicate = [a, b].into_iter().collect();
        for prog in progs {
            let counted = Machine::initial(&locs, prog.iter().cloned().map(CountedExpr));
            let plain = Machine::initial(&locs, prog);

            // Live verdicts (sequential oracles).
            let live_sc = sc_race_freedom(&locs, Lane::Full(plain.clone()), cfg()).unwrap();
            let live_all_sc =
                all_traces_sequentially_consistent(&locs, Lane::Full(plain.clone()), cfg())
                    .unwrap();
            let live_drf = check_local_drf(&locs, Lane::Full(plain.clone()), &l, cfg());
            let live_stable =
                is_l_stable_for_prefix(&locs, &[], Lane::Full(plain.clone()), &l, cfg()).unwrap();
            let live_global = check_global_drf(&locs, Lane::Full(plain), cfg());

            // Record once — this is the only place the semantics runs.
            let (graph, _) = TraceEngine::new(cfg()).record(&locs, counted).unwrap();
            let before = STEP_PROBES.load(std::sync::atomic::Ordering::Relaxed);

            let replay = || Lane::<CountedExpr>::Replay(&graph);
            let rep_sc = sc_race_freedom(&locs, replay(), cfg()).unwrap();
            let rep_all_sc = all_traces_sequentially_consistent(&locs, replay(), cfg()).unwrap();
            let rep_drf = check_local_drf(&locs, replay(), &l, cfg());
            let rep_stable = is_l_stable_for_prefix(&locs, &[], replay(), &l, cfg()).unwrap();
            let rep_global = check_global_drf(&locs, replay(), cfg());

            // The replays must not have probed the semantics at all.
            let after = STEP_PROBES.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(before, after, "replay invoked the transition semantics");

            assert_eq!(live_sc, rep_sc);
            assert_eq!(live_all_sc, rep_all_sc);
            assert_eq!(live_drf.is_ok(), rep_drf.is_ok());
            assert_eq!(live_stable, rep_stable);
            assert_eq!(live_global, rep_global);
            // Theorem 14 holds live, so the replayed scans must be
            // consistent with it: racy, or all traces SC.
            assert!(live_global.is_ok());
            assert!(matches!(rep_sc, DrfStatus::Racy(_)) || rep_all_sc);
        }
    }

    #[test]
    fn cached_global_drf_matches_live() {
        let (locs, a, _b, f) = locs_abf();
        let drf0 = RecordedExpr::new(vec![
            StepLabel::Write(a, Val(1)),
            StepLabel::Write(f, Val(1)),
        ]);
        let drf1 = RecordedExpr::new(vec![StepLabel::Read(f)]);
        let racy0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(a)]);
        let racy1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        for m0 in [
            Machine::initial(&locs, [drf0, drf1]),
            Machine::initial(&locs, [racy0, racy1]),
        ] {
            let live = check_global_drf(&locs, Lane::Full(m0.clone()), cfg());
            let (graph, _) = TraceEngine::new(cfg()).record(&locs, m0).unwrap();
            let cached = check_global_drf(&locs, Lane::<RecordedExpr>::Replay(&graph), cfg());
            match (&live, &cached) {
                (Ok(a), Ok(b)) => assert_eq!(
                    matches!(a, DrfStatus::Racy(_)),
                    matches!(b, DrfStatus::Racy(_))
                ),
                other => panic!("verdicts diverge: {other:?}"),
            }
        }
    }

    #[test]
    fn engine_error_converts_into_check_error() {
        let (locs, a, _, _) = locs_abf();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        let tiny = EngineConfig {
            max_states: 4,
            max_traces: 4,
        };
        let l: LocPredicate = [a].into_iter().collect();
        match check_local_drf(&locs, Lane::Full(m0), &l, tiny) {
            Err(CheckError::Engine(EngineError::BudgetExceeded { .. })) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }
}
