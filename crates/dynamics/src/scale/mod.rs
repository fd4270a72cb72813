//! The million-node scale tier: CSR-native approximate dynamics.
//!
//! The exact tier (crate root) prices every candidate deviation
//! through materialised [`PlayerView`](ncg_core::PlayerView) graphs —
//! faithful to the paper but `O(n)` allocations per round, which caps
//! it around `n ≈ 10^5`. This module trades *none of the cost
//! semantics* and *some of the search breadth* for three orders of
//! magnitude: a greedy responder working directly on distance arrays
//! ([`respond`]), and simultaneous rounds with deterministic conflict
//! resolution ([`run_scale`]) that land every round's accepted moves
//! in one batched [`GameState::apply_moves`](ncg_core::GameState::apply_moves).
//! Both tiers share the one flat [`GameState`](ncg_core::GameState):
//! a strategy CSR plus a frozen CSR graph. See DESIGN.md §13 for the layout, the
//! conflict-resolution rule, and the approximation contract.
//!
//! Every move the tier applies is *provably* strictly improving under
//! the same worst-case deviation semantics as the exact tier
//! (Propositions 2.1/2.2); approximation only narrows which moves are
//! found, never their pricing. Artifacts are byte-identical for any
//! `NCG_THREADS` — enforced by the CI `scale` lane.

mod responder;
mod runner;

pub use responder::{collect_ball, respond, ScaleMove, ScaleResponderConfig, ScaleScratch};
pub use runner::{
    run_scale, RoundMode, ScaleArena, ScaleConfig, ScaleRoundStats, ScaleRunResult, ViewSample,
};
// The scale tier's former state names, kept for code that imports
// them from here.
pub use ncg_core::{ApplyScratch, GameState as ScaleState};
