#![warn(missing_docs)]

//! The LOTUS locality-optimizing triangle-counting algorithm (PPoPP'22).
//!
//! LOTUS distinguishes four triangle types by how many hub vertices they
//! contain (HHH, HHN, HNN, NNN) and counts them in three phases, each with
//! a bespoke data structure sized so that the *randomly accessed* data fits
//! in cache (paper §4):
//!
//! 1. **HHH + HHN** — iterate each vertex's hub neighbours pairwise and
//!    probe the dense triangular [`h2h::TriBitArray`] (1 bit per hub pair).
//! 2. **HNN** — intersect the 16-bit hub-neighbour (HE) lists of the
//!    endpoints of each non-hub edge, probing one against the other marked
//!    in a hub bitmap of at most 8 KiB per worker chunk.
//! 3. **NNN** — intersect the 32-bit non-hub (NHE) lists of the endpoints
//!    of each non-hub edge, probing one against the other marked in a
//!    window of at most 32 KiB per worker chunk (a merge join where the
//!    list spans more), never touching hub edges (the fruitless-search
//!    pruning of §3.3).
//!
//! Entry points: [`count::LotusCounter`] for the end-to-end pipeline,
//! [`preprocess::build_lotus_graph`] to materialize the [`LotusGraph`]
//! structure separately, and [`adaptive::adaptive_count`] for the
//! skew-checked dispatcher of §5.5.

pub mod adaptive;
pub mod blocking;
pub mod breakdown;
pub mod config;
pub mod count;
pub mod h2h;
pub mod kclique;
mod kernel;
pub mod per_vertex;
pub mod preprocess;
pub mod recursive;
pub mod resilient;
pub mod stats;
pub mod streaming;
pub mod structure;
pub mod tiling;
pub mod two_level;

pub use breakdown::Breakdown;
pub use config::{HubCount, LotusConfig};
pub use count::{CountError, LotusCounter, LotusResult, Phase};
pub use resilient::{count_with_budget, DegradeReason, ResilientCount};
pub use structure::LotusGraph;
