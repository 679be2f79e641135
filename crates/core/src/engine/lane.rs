//! The walk dispatcher of the trace-level checkers.
//!
//! Every trace-level verdict in this repository — Definition 12
//! L-stability, Theorems 13 and 14, race detection — is a visitor that
//! consumes transition *labels* only, so one visitor can ride any of three
//! walks of the trace tree. [`Lane`] names the walk, and [`Lane::walk`] is
//! the one place that maps it onto an engine; the checkers themselves are
//! written once.

use crate::engine::{
    Dependence, DporEngine, EngineConfig, EngineError, ExploreStats, ReplayVisitor, TraceEngine,
    TraceGraph, TraceVisitor,
};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine, TransitionLabel};

/// Which walk of the trace tree a checker runs.
///
/// * [`Lane::Full`] enumerates every trace live ([`TraceEngine::explore`]).
/// * [`Lane::Reduced`] enumerates one representative per equivalence
///   class ([`DporEngine`] under [`Dependence::Conservative`]).
///   Conservative commutations preserve transition labels,
///   happens-before, data races and weak flags, so trace-existence
///   verdicts ("some SC trace races", "some trace has a weak
///   transition") match [`Lane::Full`]'s while a fraction of the traces
///   is walked. Witnesses may differ: a different representative can
///   race first.
/// * [`Lane::Replay`] replays a tree recorded by [`TraceEngine::record`]
///   ([`TraceGraph::replay`]) in the live walk's order, filter and budget
///   semantics, running **zero** transition-semantics steps. The graph is
///   borrowed, never cloned.
///
/// The differential suites run every checker on every lane over the
/// litmus corpus and generated programs and assert equal verdicts.
#[derive(Clone, Debug)]
pub enum Lane<'g, E> {
    /// Every trace from this machine, walked live.
    Full(Machine<E>),
    /// One representative trace per conservative equivalence class from
    /// this machine, walked live.
    Reduced(Machine<E>),
    /// Every trace of a recorded tree, replayed.
    Replay(&'g TraceGraph),
}

impl<E: Expr> Lane<'_, E> {
    /// Drives `visitor` over this lane's walk.
    ///
    /// # Errors
    ///
    /// [`EngineError::BudgetExceeded`] after `config.max_traces`
    /// extensions (every lane counts alike);
    /// [`EngineError::CorruptFrontier`] from a live walk that reaches a
    /// corrupted machine.
    pub fn walk<V>(
        self,
        locs: &LocSet,
        config: EngineConfig,
        visitor: &mut V,
    ) -> Result<ExploreStats, EngineError>
    where
        V: TraceVisitor<E> + ReplayVisitor,
    {
        match self {
            Lane::Full(m0) => TraceEngine::new(config).explore(locs, m0, visitor),
            Lane::Reduced(m0) => {
                let stats = DporEngine::with_dependence(config, Dependence::Conservative)
                    .explore(locs, m0, visitor)?;
                Ok(ExploreStats {
                    visited: stats.visited,
                    transitions: stats.transitions,
                })
            }
            Lane::Replay(graph) => graph.replay(config, visitor),
        }
    }

    /// The labels enabled at the root of the walk: the empty trace's
    /// state, which Theorem 13 also constrains.
    pub fn root_enabled(&self, locs: &LocSet) -> Vec<TransitionLabel> {
        match self {
            Lane::Full(m0) | Lane::Reduced(m0) => {
                m0.transitions(locs).iter().map(|t| t.label).collect()
            }
            Lane::Replay(graph) => graph.root_enabled().to_vec(),
        }
    }
}
