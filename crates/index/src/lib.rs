//! Highway-cover 2-hop hub labelling for exact shortest-path distance
//! queries on complex networks.
//!
//! This crate implements the labelling scheme of the source paper
//! (conf_edbt_Farhan021): pick the top-`k` highest-degree vertices as
//! *landmarks*, run one BFS from each landmark to build compact
//! per-vertex label arrays — `v` holds `(r, d(r, v))` iff no shortest
//! `r`–`v` path passes another landmark — plus a small `k × k` *highway*
//! of exact landmark-to-landmark distances, and answer queries as
//!
//! ```text
//! d(u, v) = min( label/highway upper bound,
//!                distance over paths avoiding all landmarks )
//! ```
//!
//! where the second term is computed by a bidirectional BFS that never
//! expands through a landmark and is cut off by the first term. Both halves
//! are cheap — labels are tiny because high-degree landmarks cover most
//! shortest paths in complex networks, and the fallback BFS explores only
//! the sparse landmark-free residue of the graph.
//!
//! Construction runs the per-landmark searches independently, optionally
//! sharded over scoped worker threads ([`BuildOptions`] /
//! [`BuildContext`]); the labelling is a pure function of the graph and
//! the landmark set, so the built index is byte-identical at every thread
//! count, and [`DynamicIndex`] repairs it after edge edits to exactly what
//! a rebuild would produce. *Which* vertices become landmarks is
//! pluggable ([`LandmarkSelector`] / [`SelectionStrategy`]): degree
//! ranking (the paper's default), greedy sampled-BFS coverage, or a seeded
//! random baseline, each deterministic so the guarantee holds per
//! strategy.
//!
//! Storage comes in two backings sharing one query engine:
//!
//! * [`HighwayCoverIndex`] — owned `Vec`s, produced by a build;
//! * [`IndexView`] — five borrowed slices over the identical flat layout
//!   (label entries are one packed [`LabelWord`] each: narrow
//!   `(hub << 16) | dist` words when the labels fit, wide
//!   `(hub << 32) | dist` words otherwise — see [`LabelEntries`]), which
//!   is what `hcl-store` serves straight out of a memory-mapped file.
//!   Untrusted slices are admitted through
//!   [`IndexView::from_parts`], which validates every invariant the engine
//!   indexes by.
//!
//! Every query result is exact; the test suite property-checks the engine
//! against the plain BFS oracle from `hcl-core` over multiple graph
//! families, seeds, and landmark counts.
//!
//! Observability is a compile-time opt-in: the query path is generic over
//! the [`Probe`] trait (no-op by default, so un-instrumented queries pay
//! nothing) and [`QueryStats`] is the standard collector; builds report
//! deterministic labelling counters and per-phase wall times through
//! [`BuildStats`] / [`HighwayCoverIndex::build_with_stats`].
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod build;
mod probe;
mod query;
pub mod repair;
mod select;
mod view;

pub use build::{
    BuildContext, BuildOptions, BuildStats, HighwayCoverIndex, IndexConfig, IndexStats,
};
pub use probe::{AnswerSource, MergeKind, Probe, QueryStats};
pub use query::QueryContext;
pub use repair::{repair, DynamicIndex, RepairOutcome};
pub use select::{ApproxCoverage, DegreeRank, LandmarkSelector, SeededRandom, SelectionStrategy};
pub use view::{IndexDataError, IndexView, LabelEntries, LabelPatch, LabelWord};
