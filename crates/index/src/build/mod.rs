//! Index construction: one labelling BFS per landmark, sharded over
//! worker threads, and the highway matrix read off the same searches.
//!
//! # The labelling rule and why it parallelises
//!
//! The labels follow the highway-cover rule of the source paper's base
//! labelling: vertex `v` holds `(r, d(r, v))` iff no shortest `r`–`v`
//! path passes through another landmark (a landmark therefore holds only
//! its own root entry). Each landmark's tree is computed by a full BFS
//! that carries a "passes a landmark" flag down the shortest-path DAG
//! (see [`tree`]); the same BFS yields the landmark's exact highway row,
//! so no closure pass is needed.
//!
//! Because a tree depends only on the graph and *where* the landmarks sit
//! — never on any other tree — the labelling is a pure function of
//! `(graph, landmark set)`. [`parallel`] hands landmark ranks to
//! `std::thread::scope` workers from an atomic cursor, each with its own
//! reusable [`BuildContext`], and lays the trees down in rank order: the
//! output is **byte-identical for every thread count**, which
//! `tests/parallel_build.rs` asserts across all testkit families, and
//! minimal, which `tests/minimality.rs` checks against the rule itself.
//! The incremental repair path (`crate::repair`) re-runs the same routine
//! for the trees an edit affects.

pub(crate) mod parallel;
pub(crate) mod tree;

use crate::select::{self, LandmarkSelector, SelectionStrategy};
use crate::view::{IndexView, LabelVec};
use hcl_core::bfs::BfsScratch;
use hcl_core::{Graph, VertexId};
use std::time::Instant;

/// Sentinel rank for vertices that are not landmarks.
pub(crate) const NOT_A_LANDMARK: u32 = u32::MAX;

/// Construction parameters for [`HighwayCoverIndex`].
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Number of landmarks (highest-degree vertices). Clamped to the vertex
    /// count at build time. More landmarks shrink the fallback search at the
    /// cost of larger labels and a longer build.
    pub num_landmarks: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self { num_landmarks: 16 }
    }
}

/// Full construction options: landmark count, worker threads, and the
/// landmark-selection strategy.
///
/// [`IndexConfig`] stays the simple "how many landmarks" surface;
/// `BuildOptions` adds worker-thread and selection control for
/// [`HighwayCoverIndex::build_with`]. Only the landmark count and the
/// strategy shape the output: it is byte-identical at every thread count
/// (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Number of landmarks; clamped to the vertex count at build time.
    pub num_landmarks: usize,
    /// Worker threads. `0` means auto: the `HCL_BUILD_THREADS` environment
    /// variable if set to a positive integer, otherwise `1` (the
    /// sequential path). The thread count never changes the output.
    pub threads: usize,
    /// Ignored. Kept so existing callers compile: the builder once ran
    /// landmarks in batches of this size, but landmark trees are now
    /// independent, so there is nothing left for it to shape.
    pub batch_size: usize,
    /// Landmark-selection strategy. `None` means auto: the
    /// `HCL_BUILD_STRATEGY` environment variable if set to a valid
    /// `name[:seed]` spelling, otherwise
    /// [`SelectionStrategy::DegreeRank`]. Unlike the thread count, the
    /// strategy *shapes the output* (it decides which vertices anchor the
    /// labelling), so persisted containers record it in their header.
    pub selection: Option<SelectionStrategy>,
}

impl BuildOptions {
    /// The worker-thread count this configuration resolves to (see
    /// [`BuildOptions::threads`]).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        Self::threads_from_env(1)
    }

    /// Thread count requested via the `HCL_BUILD_THREADS` environment
    /// variable, or `fallback` when unset/invalid/zero.
    ///
    /// The single authority on the env var's semantics: the library's auto
    /// mode falls back to `1` (never surprise a host process with
    /// parallelism), while the CLI passes all available cores.
    pub fn threads_from_env(fallback: usize) -> usize {
        std::env::var("HCL_BUILD_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(fallback)
    }

    /// The landmark-selection strategy this configuration resolves to:
    /// the explicit [`BuildOptions::selection`] if set, else the
    /// `HCL_BUILD_STRATEGY` environment variable, else degree ranking.
    pub fn resolved_selection(&self) -> SelectionStrategy {
        self.selection
            .or_else(SelectionStrategy::from_env)
            .unwrap_or_default()
    }

    /// One fresh [`BuildContext`] per resolved worker thread.
    fn contexts(&self) -> Vec<BuildContext> {
        (0..self.resolved_threads().max(1))
            .map(|_| BuildContext::new())
            .collect()
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            num_landmarks: IndexConfig::default().num_landmarks,
            threads: 0,
            batch_size: 0,
            selection: None,
        }
    }
}

impl From<IndexConfig> for BuildOptions {
    fn from(config: IndexConfig) -> Self {
        Self {
            num_landmarks: config.num_landmarks,
            ..Self::default()
        }
    }
}

/// Reusable scratch space for one build worker, mirroring
/// [`QueryContext`](crate::QueryContext) on the query side.
///
/// A landmark tree needs a distance array and a touched-list (provided by
/// [`BfsScratch`] from `hcl-core`), a per-vertex "passes a landmark" flag,
/// and two level frontiers. One context serves any number of searches —
/// buffers are reset via the touched-list, so reuse costs `O(visited)` per
/// search, not `O(n)`. Create one per worker thread; callers that rebuild
/// indexes repeatedly can hold a pool and pass it to
/// [`HighwayCoverIndex::build_in`].
#[derive(Default)]
pub struct BuildContext {
    pub(crate) scratch: BfsScratch,
    pub(crate) passes: Vec<bool>,
    pub(crate) frontier: Vec<VertexId>,
    pub(crate) next: Vec<VertexId>,
    /// Repair's dense scratch row: one re-labelled tree's distance per
    /// vertex, [`INFINITY`](hcl_core::INFINITY) where it holds no entry.
    /// Empty until the first repair; restored to all-`INFINITY` after use.
    pub(crate) row: Vec<u32>,
}

impl BuildContext {
    /// Creates an empty context; buffers grow lazily to the graph size.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `a + b` in distance arithmetic: saturating addition.
///
/// Because [`INFINITY`](hcl_core::INFINITY) is `u32::MAX`, saturation
/// doubles as absorption — anything plus unreachable stays unreachable, and
/// a sum that would wrap clamps to the sentinel instead of turning into a
/// small bogus "distance". Used where repair reads distances back out of
/// labels and the highway, whose operands can sit near the sentinel when
/// fed a hostile (well-formed but semantically tampered) index file.
#[inline]
pub(crate) fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// Per-build instrumentation: phase wall times and labelling counters,
/// produced by [`HighwayCoverIndex::build_with_stats`].
///
/// The counters (`bfs_visits`, `label_insertions`, `dominated`,
/// `landmark_labels`) are **thread-count-invariant**: they are pure
/// functions of the graph and the landmark set, exactly like the built
/// index itself — which is why they are safe to persist in the container
/// (`hcl-store` section kind 10) without breaking the build's
/// byte-identity guarantee. The wall times are, of course, per-run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Wall time of landmark selection, in microseconds.
    pub selection_us: u64,
    /// Wall time of the landmark-tree searches, in microseconds.
    pub label_us: u64,
    /// Wall time of laying the trees down into the flat label arrays and
    /// the highway matrix, in microseconds.
    pub flatten_us: u64,
    /// Whole-build wall time, in microseconds.
    pub total_us: u64,
    /// Vertices taken off the frontier across all landmark searches.
    pub bfs_visits: u64,
    /// Label entries inserted (including each landmark's own root entry).
    pub label_insertions: u64,
    /// Reached non-landmark vertices left unlabelled because a shortest
    /// path from the searching landmark passes another landmark.
    pub dominated: u64,
    /// Label entries contributed by each landmark, in rank order.
    pub landmark_labels: Vec<u64>,
}

impl BuildStats {
    /// Fraction of visited vertices left unlabelled as
    /// [`dominated`](Self::dominated), in `0..=1` (`0` when nothing was
    /// visited).
    pub fn dominated_rate(&self) -> f64 {
        if self.bfs_visits == 0 {
            0.0
        } else {
            self.dominated as f64 / self.bfs_visits as f64
        }
    }
}

/// Size and shape statistics of a built index, for logging and tuning.
#[derive(Clone, Copy, Debug)]
pub struct IndexStats {
    /// Number of landmarks actually used (≤ configured).
    pub num_landmarks: usize,
    /// Total `(hub, dist)` entries across all vertex labels.
    pub total_label_entries: usize,
    /// Mean label entries per vertex.
    pub avg_label_size: f64,
    /// Largest single vertex label.
    pub max_label_size: usize,
    /// Approximate flat footprint of the index arrays in bytes.
    pub bytes: usize,
}

/// A built highway-cover 2-hop labelling over one [`Graph`] — the owned,
/// `Vec`-backed storage of the index.
///
/// The index borrows nothing: it is a standalone snapshot that answers
/// queries together with the graph it was built from (the fallback BFS
/// needs adjacency). Label arrays are stored CSR-style in flat vectors with
/// fixed-width elements, so the layout matches `hcl-store`'s on-disk format
/// and a file can be served back as a borrowed
/// [`IndexView`](crate::IndexView) without copying. All read paths delegate
/// through [`HighwayCoverIndex::as_view`].
pub struct HighwayCoverIndex {
    /// Landmark rank → vertex id, in ranking order (rank 0 = highest degree).
    pub(crate) landmarks: Vec<VertexId>,
    /// Vertex id → landmark rank, or [`NOT_A_LANDMARK`]; length is the
    /// vertex count of the build graph.
    pub(crate) landmark_rank: Vec<u32>,
    /// CSR offsets into `label_entries`; length `n + 1`.
    pub(crate) label_offsets: Vec<u64>,
    /// Packed label words ([`LabelWord`](crate::LabelWord)), narrow or
    /// wide as the labels allow, hub-ascending within each vertex.
    pub(crate) label_entries: LabelVec,
    /// Row-major `k × k` exact landmark-to-landmark distances,
    /// [`INFINITY`](hcl_core::INFINITY) when disconnected.
    pub(crate) highway: Vec<u32>,
}

impl HighwayCoverIndex {
    /// Builds the index for `graph` with the given configuration.
    ///
    /// Runs one labelling BFS per landmark (see the module docs for the
    /// rule): vertex `v` gets the entry `(r, d(r, v))` iff no shortest
    /// `r`–`v` path passes through another landmark, and the highway holds
    /// exact landmark-to-landmark distances.
    ///
    /// Thread count defaults to auto (`HCL_BUILD_THREADS` or sequential);
    /// use [`HighwayCoverIndex::build_with`] for explicit control.
    pub fn build(graph: &Graph, config: IndexConfig) -> Self {
        Self::build_with(graph, &BuildOptions::from(config))
    }

    /// Builds the index with explicit thread and selection control.
    ///
    /// The result is **byte-identical at every thread count**;
    /// `threads = 1` runs fully in the calling thread with one
    /// [`BuildContext`].
    pub fn build_with(graph: &Graph, options: &BuildOptions) -> Self {
        Self::build_in(graph, options, &mut options.contexts())
    }

    /// [`HighwayCoverIndex::build_with`] plus instrumentation: returns the
    /// index together with [`BuildStats`] (phase wall times, labelling
    /// counters, per-landmark label contributions), and streams one
    /// human-readable line per build phase to `progress` when given (the
    /// CLI's `build --progress` prints them to stderr as phases finish).
    ///
    /// Instrumentation never changes the output: the index is byte-
    /// identical to a [`build_with`](Self::build_with) run, and the stats
    /// counters are thread-count-invariant (see [`BuildStats`]).
    pub fn build_with_stats(
        graph: &Graph,
        options: &BuildOptions,
        progress: Option<&mut dyn FnMut(String)>,
    ) -> (Self, BuildStats) {
        let selector = options.resolved_selection().selector();
        let mut stats = BuildStats::default();
        let index = Self::build_observed(
            graph,
            options,
            &mut options.contexts(),
            selector.as_ref(),
            &mut stats,
            progress,
        );
        (index, stats)
    }

    /// Builds the index reusing caller-owned worker scratch — the
    /// allocation-amortising form of [`HighwayCoverIndex::build_with`] for
    /// repeated builds (benchmarks, rebuild loops).
    ///
    /// One worker runs per context, so `contexts.len()` — not
    /// [`BuildOptions::threads`] — is the thread count here, capped at the
    /// landmark count (extra workers could never receive work). An empty
    /// slice builds sequentially with a temporary context. Landmarks are
    /// chosen by [`BuildOptions::selection`] (resolved via
    /// [`BuildOptions::resolved_selection`]).
    pub fn build_in(graph: &Graph, options: &BuildOptions, contexts: &mut [BuildContext]) -> Self {
        let selector = options.resolved_selection().selector();
        Self::build_in_with_selector(graph, options, contexts, selector.as_ref())
    }

    /// [`HighwayCoverIndex::build_in`] with a caller-supplied
    /// [`LandmarkSelector`] — the fully pluggable entry point for
    /// strategies beyond the built-in [`SelectionStrategy`] tags.
    ///
    /// `options.selection` is ignored here (the explicit `selector` wins);
    /// everything else behaves as in [`HighwayCoverIndex::build_in`]. The
    /// selector's output is validated (exactly `min(k, n)` distinct
    /// in-range ids) and the build panics with a message naming the
    /// selector if the contract is violated. In a *multi-threaded* build
    /// the selector runs under the same worker-panic capture as the
    /// landmark searches, so a faulty strategy surfaces as one coherent
    /// `index build worker panicked: …` panic instead of the old opaque
    /// join failure; a single-threaded build runs the selector inline,
    /// where its panic already propagates coherently (original payload and
    /// location) without wrapping.
    pub fn build_in_with_selector(
        graph: &Graph,
        options: &BuildOptions,
        contexts: &mut [BuildContext],
        selector: &dyn LandmarkSelector,
    ) -> Self {
        Self::build_observed(
            graph,
            options,
            contexts,
            selector,
            &mut BuildStats::default(),
            None,
        )
    }

    /// The one real build path: every public entry point funnels here.
    /// `stats` is always populated (the un-instrumented entries hand in a
    /// throwaway — the bookkeeping is a few timestamps and one counter fold
    /// per tree); `progress` streams per-phase lines when given.
    fn build_observed(
        graph: &Graph,
        options: &BuildOptions,
        contexts: &mut [BuildContext],
        selector: &dyn LandmarkSelector,
        stats: &mut BuildStats,
        mut progress: Option<&mut dyn FnMut(String)>,
    ) -> Self {
        let mut emit = |line: String| {
            if let Some(sink) = progress.as_mut() {
                sink(line);
            }
        };
        let t_total = Instant::now();
        let graph = graph.as_view();
        let n = graph.num_vertices();
        let num_landmarks = options.num_landmarks.min(n);
        let workers = contexts.len().min(num_landmarks);
        let t = Instant::now();
        let landmarks = if workers > 1 {
            parallel::run_selection(graph, selector, num_landmarks)
        } else {
            select::checked_select(selector, graph, num_landmarks)
        };
        stats.selection_us = t.elapsed().as_micros() as u64;
        let k = landmarks.len();
        emit(format!(
            "select: {k} landmark(s) [{}] in {} µs",
            selector.name(),
            stats.selection_us
        ));

        let mut landmark_rank = vec![NOT_A_LANDMARK; n];
        for (rank, &v) in landmarks.iter().enumerate() {
            landmark_rank[v as usize] = rank as u32;
        }
        let t = Instant::now();
        let trees = match &mut contexts[..workers] {
            [] => parallel::label_all(
                graph,
                &landmarks,
                &landmark_rank,
                &mut [BuildContext::new()],
            ),
            some => parallel::label_all(graph, &landmarks, &landmark_rank, some),
        };
        stats.label_us = t.elapsed().as_micros() as u64;
        stats.landmark_labels = trees.iter().map(|t| t.labelled.len() as u64).collect();
        stats.label_insertions = stats.landmark_labels.iter().sum();
        stats.bfs_visits = trees.iter().map(|t| t.visits).sum();
        stats.dominated = trees.iter().map(|t| t.dominated).sum();
        emit(format!(
            "label: {k} landmark tree(s) on {} worker(s) in {} µs \
             (visits {}, labels {}, unlabelled via another landmark {})",
            workers.max(1),
            stats.label_us,
            stats.bfs_visits,
            stats.label_insertions,
            stats.dominated
        ));

        let t = Instant::now();
        let index = tree::assemble(landmarks, landmark_rank, &trees);
        stats.flatten_us = t.elapsed().as_micros() as u64;
        emit(format!(
            "flatten: labels + highway laid out in {} µs",
            stats.flatten_us
        ));
        stats.total_us = t_total.elapsed().as_micros() as u64;
        emit(format!(
            "build: done in {} µs ({:.1} % of visits unlabelled)",
            stats.total_us,
            stats.dominated_rate() * 100.0
        ));
        index
    }

    /// A borrowed, `Copy` view of this index. Cheap; this is the type the
    /// whole query engine is implemented on, shared with mmap-backed
    /// storage.
    pub fn as_view(&self) -> IndexView<'_> {
        IndexView {
            landmarks: &self.landmarks,
            landmark_rank: &self.landmark_rank,
            label_offsets: &self.label_offsets,
            label_entries: self.label_entries.as_entries(),
            highway: &self.highway,
            patch: None,
        }
    }

    /// Number of landmarks in the index.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Vertex count of the graph this index was built for.
    pub fn num_vertices(&self) -> usize {
        self.landmark_rank.len()
    }

    /// The `(hub rank, distance)` label entries of vertex `v`, hub-sorted.
    pub fn label(&self, v: VertexId) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.as_view().label(v)
    }

    /// Whether vertex `v` is a landmark.
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.as_view().is_landmark(v)
    }

    /// Size statistics for logging and tuning.
    pub fn stats(&self) -> IndexStats {
        self.as_view().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;
    use hcl_core::INFINITY;

    #[test]
    fn star_landmark_is_the_centre() {
        let g = testkit::star(10);
        // Pin the strategy: this test asserts *degree-rank* behaviour, so
        // it must not float with the HCL_BUILD_STRATEGY ambient default
        // (a random selector is free to pick a leaf).
        let idx = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 1,
                selection: Some(SelectionStrategy::DegreeRank),
                ..BuildOptions::default()
            },
        );
        assert_eq!(idx.num_landmarks(), 1);
        assert!(idx.is_landmark(0));
        // Every leaf is labelled with the centre at distance 1.
        for leaf in 1..10 {
            assert_eq!(idx.label(leaf).collect::<Vec<_>>(), vec![(0, 1)]);
        }
    }

    #[test]
    fn landmark_count_clamps_to_vertex_count() {
        let g = testkit::path(3);
        let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 100 });
        assert_eq!(idx.num_landmarks(), 3);
    }

    #[test]
    fn labels_are_hub_sorted() {
        let g = testkit::erdos_renyi(60, 0.08, 3);
        let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 8 });
        for v in 0..60 {
            let hubs: Vec<u32> = idx.label(v).map(|(h, _)| h).collect();
            let mut sorted = hubs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(hubs, sorted, "label of {v} not sorted/deduped");
        }
    }

    #[test]
    fn stats_report_plausible_sizes() {
        let g = testkit::grid(8, 8);
        let idx = HighwayCoverIndex::build(&g, IndexConfig::default());
        let s = idx.stats();
        assert_eq!(s.num_landmarks, 16);
        assert!(s.total_label_entries > 0);
        assert!(s.max_label_size <= 16);
        assert!(s.bytes > 0);
    }

    #[test]
    fn sat_add_is_saturating_and_infinity_absorbing() {
        assert_eq!(sat_add(2, 3), 5);
        assert_eq!(sat_add(INFINITY, 0), INFINITY);
        assert_eq!(sat_add(0, INFINITY), INFINITY);
        assert_eq!(sat_add(INFINITY, INFINITY), INFINITY);
        // Near-sentinel operands must clamp, never wrap to a small value.
        assert_eq!(sat_add(INFINITY - 1, 1), INFINITY);
        assert_eq!(sat_add(INFINITY - 1, INFINITY - 1), INFINITY);
        assert_eq!(sat_add(INFINITY - 5, 2), INFINITY - 3);
    }

    #[test]
    fn build_stats_counters_are_thread_invariant_and_consistent() {
        let g = testkit::barabasi_albert(80, 3, 7);
        let opts = |threads| BuildOptions {
            num_landmarks: 12,
            threads,
            ..BuildOptions::default()
        };
        let mut lines = Vec::new();
        let mut sink = |l: String| lines.push(l);
        let (idx1, s1) = HighwayCoverIndex::build_with_stats(&g, &opts(1), Some(&mut sink));
        let (idx4, s4) = HighwayCoverIndex::build_with_stats(&g, &opts(4), None);

        // The counters are pure functions of (graph, landmark set) —
        // identical across thread counts, like the index itself.
        assert_eq!(s1.bfs_visits, s4.bfs_visits);
        assert_eq!(s1.label_insertions, s4.label_insertions);
        assert_eq!(s1.dominated, s4.dominated);
        assert_eq!(s1.landmark_labels, s4.landmark_labels);
        assert_eq!(
            idx1.stats().total_label_entries,
            idx4.stats().total_label_entries
        );

        // Internal consistency: insertions account for every label entry,
        // and every visit was another landmark, unlabelled, or labelled.
        assert_eq!(s1.label_insertions, idx1.stats().total_label_entries as u64);
        assert_eq!(s1.landmark_labels.iter().sum::<u64>(), s1.label_insertions);
        assert_eq!(s1.landmark_labels.len(), 12);
        assert!(s1.bfs_visits >= s1.label_insertions + s1.dominated);
        assert!(s1.dominated_rate() >= 0.0 && s1.dominated_rate() <= 1.0);

        // The progress sink saw every phase, in order, once each.
        let phases: Vec<&str> = lines
            .iter()
            .map(|l| l.split(':').next().unwrap_or(""))
            .collect();
        assert_eq!(phases, ["select", "label", "flatten", "build"]);
        assert!(lines[3].starts_with("build: done"));
    }

    #[test]
    fn build_options_resolve_explicit_values() {
        let explicit = BuildOptions {
            threads: 3,
            ..BuildOptions::default()
        };
        assert_eq!(explicit.resolved_threads(), 3);
        assert_eq!(explicit.contexts().len(), 3);
    }
}
