//! # ncg-dynamics — best-response dynamics (Section 5.1 of the paper)
//!
//! Simulates the iterated locality-based game exactly as the paper's
//! experiments do:
//!
//! > *"The players play in turns, following a round-robin policy […]
//! > we compute a best-response strategy according to her local
//! > knowledge of the network, and whenever this strategy is strictly
//! > better than the current one we update the network. […] We
//! > continue until we attain an equilibrium […] we check if the last
//! > strategy profile of the current round already appeared as the
//! > last strategy profile of any previous round"*
//!
//! — in which case the dynamics cycles and no equilibrium will ever
//! be reached.
//!
//! * [`run`] — one dynamics from a given initial
//!   [`GameState`](ncg_core::GameState); deterministic (round-robin
//!   order, deterministic solver). Incremental by default: a
//!   [`ViewCache`] reuses player views across rounds and skips players
//!   whose radius-`k` ball provably did not change (see DESIGN.md §6);
//!   outcomes are bit-identical with the cache on or off.
//! * [`run_many`] — rayon-parallel batch over independent initial
//!   states, results in input order.
//! * [`run_with_cache`] — warm-started variant: a [`CacheArena`]
//!   (one [`ViewCache`] + one solver responder) carried across
//!   consecutive runs reuses every allocation; outcomes stay
//!   bit-identical to cold runs. The experiments sweep engine keeps
//!   one arena per repetition across all `(α, k)` cells.
//! * [`StateMetrics`] — the per-network statistics the paper collects
//!   after every round (diameter, social cost, degrees, bought edges,
//!   view sizes, fairness).
//! * [`scale`] — the million-node tier: CSR-native greedy
//!   responders over the same flat `GameState`, and simultaneous rounds
//!   with deterministic conflict resolution (approximate responders,
//!   exact pricing; see DESIGN.md §13).
//!
//! ## Example
//!
//! ```
//! use ncg_core::{GameSpec, GameState};
//! use ncg_dynamics::{run, DynamicsConfig, Outcome};
//!
//! let initial = GameState::cycle_successor(10);
//! let config = DynamicsConfig::new(GameSpec::max(1.0, 3));
//! let result = run(initial, &config);
//! assert!(matches!(result.outcome, Outcome::Converged { .. }));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod fingerprint;
mod metrics;
mod runner;
pub mod scale;
mod trace;
mod view_cache;

pub use fingerprint::CycleDetector;
pub use metrics::{MeasureScratch, StateMetrics};
pub use runner::{
    run, run_many, run_with, run_with_cache, CacheArena, DynamicsConfig, Outcome, RunResult,
};
pub use trace::{MoveEvent, Trace};
pub use view_cache::{CacheStats, ViewCache};
