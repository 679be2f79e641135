//! # bdrst-race — dynamic race detection with bounded witnesses
//!
//! The DRF theorem checkers ([`bdrst_core::localdrf`]) answer *whether*
//! a program is data-race-free; this crate answers *where and when* it
//! races, and what the paper's space/time bounds look like on a concrete
//! execution:
//!
//! * **[`detect`]** — the streaming [`detect::RaceDetector`]:
//!   FastTrack-style per-thread vector clocks with epoch compression
//!   ([`clock`]) over the model's happens-before (Definition 8 — atomic
//!   writes release, atomic accesses acquire). [`detect_races`] rides
//!   any [`bdrst_core::engine::Lane`]: live, partial-order reduced, or
//!   **offline** over a recorded [`bdrst_core::engine::TraceGraph`],
//!   running zero transition-semantics steps.
//! * **[`witness`]** — every racy pair becomes a structured
//!   [`witness::RaceWitness`]: the two conflicting accesses, the
//!   trace-index window between them (the *time* bound) and the set of
//!   locations touched inside the window (the *space* bound), with an
//!   O(n²) reference validator.
//! * **[`shrink`]** — ddmin-style delta debugging that minimises the
//!   program and the interleaving while preserving the race
//!   ([`shrink::shrink_witness`]).
//!
//! Detection quantifies over sequentially consistent traces by default,
//! so "some explored trace races" agrees exactly with
//! [`bdrst_core::localdrf::sc_race_freedom`] — the differential suites
//! check this on the whole litmus corpus and on generated programs.
//!
//! ## Example: a store-buffering race and its bounds
//!
//! ```
//! use bdrst_core::engine::Lane;
//! use bdrst_lang::Program;
//! use bdrst_race::{detect_races, DetectorConfig};
//!
//! let p = Program::parse(
//!     "nonatomic a b;
//!      thread P0 { a = 1; r0 = b; }
//!      thread P1 { b = 1; r1 = a; }",
//! ).unwrap();
//! let lane = Lane::Full(p.initial_machine());
//! let report = detect_races(&p.locs, lane, Default::default(), DetectorConfig::default()).unwrap();
//! assert!(report.racy());
//! let w = &report.witnesses[0];
//! assert!(w.validate(&p.locs));
//! assert!(w.time_bound() >= 2);
//! assert!(w.space_bound().contains(&w.loc));
//! ```

pub mod clock;
pub mod detect;
pub mod shrink;
pub mod witness;

pub use clock::{Access, VectorClock};
pub use detect::{detect_races, detect_races_replayed, DetectorConfig, RaceDetector, RaceReport};
pub use shrink::{ddmin, run_schedule, shrink_witness, ShrunkRace};
pub use witness::RaceWitness;
