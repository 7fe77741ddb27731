//! Query evaluation: label merge upper bound + landmark-avoiding
//! bounded bidirectional BFS.
//!
//! Everything here is implemented on [`IndexView`], the borrowed
//! label-storage abstraction, so the identical machine code serves an owned
//! [`HighwayCoverIndex`] and a memory-mapped `hcl-store` file. The owned
//! type's query methods are thin delegations through
//! [`HighwayCoverIndex::as_view`].
//!
//! # Hot-path layout
//!
//! Labels are packed `(hub, dist)` words walked as **one** array stream
//! per endpoint (no parallel hub/dist pointers). The label half of the
//! engine is generic over the word type ([`LabelWord`]): narrow `u32` and
//! wide `u64` indexes run two monomorphisations of the same code, picked
//! by one match per query, and every sum runs in `u64` either way. The
//! common-hub join switches from a linear merge to a **galloping merge**
//! when the two labels are badly skewed — on power-law graphs a hub
//! vertex can carry a label orders of magnitude longer than a leaf's, and
//! galloping makes the join `O(small · log large)` instead of
//! `O(small + large)`. The highway
//! cross-product runs behind hoisted lower-bound checks (`d1 + min_dv`,
//! `d1 + d2`) so rows that cannot beat the current best never touch the
//! matrix, and the residual BFS tests landmark membership against a dense
//! bitset — one bit per vertex instead of a 4-byte rank-table load.

//!
//! # Observability
//!
//! Every phase is generic over a [`Probe`]: the public `query_with` entry
//! monomorphises with [`NoProbe`] (all hooks are empty inline defaults, so
//! the compiler erases them), while [`IndexView::query_probed`] accepts a
//! caller-supplied collector such as [`crate::QueryStats`] that records
//! which mechanism answered and how much work each phase did.

use crate::build::HighwayCoverIndex;
use crate::probe::Probe;
use crate::view::{IndexView, LabelEntries, LabelWord};
use hcl_core::{Adjacency, DenseBitSet, DynGraphView, Graph, NoProbe, VertexId, INFINITY};

const INF64: u64 = u64::MAX;

/// When one label is at least this many times longer than the other, the
/// common-hub join gallops through the long label instead of scanning it.
const GALLOP_RATIO: usize = 8;

/// Reusable scratch space for queries.
///
/// A query needs two distance arrays, a few frontier vectors, and a dense
/// landmark-membership bitset; allocating them per call would dominate the
/// cost of cheap queries. Create one context per thread (or per serving
/// task) and pass it to [`IndexView::query_with`]. All buffers are reset
/// between queries via touched-lists, so reuse is `O(visited)`, not
/// `O(n)`. One context can be shared across different indexes and
/// backings; buffers grow to the largest graph seen, and the landmark
/// bitset is rebuilt automatically whenever the context notices it is
/// serving a different landmark set (an `O(k)` comparison per query, an
/// `O(n / 64 + k)` rebuild only on an actual switch).
#[derive(Default)]
pub struct QueryContext {
    dist_fwd: Vec<u32>,
    dist_bwd: Vec<u32>,
    touched: Vec<VertexId>,
    frontier_fwd: Vec<VertexId>,
    frontier_bwd: Vec<VertexId>,
    next: Vec<VertexId>,
    /// Dense landmark membership for the residual BFS, keyed by the
    /// `(vertex count, landmark list)` it was built from.
    landmark_bits: DenseBitSet,
    landmark_key: Vec<VertexId>,
    landmark_key_n: usize,
}

impl QueryContext {
    /// Creates an empty context; buffers grow lazily to the graph size.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.dist_fwd.len() < n {
            self.dist_fwd.resize(n, INFINITY);
            self.dist_bwd.resize(n, INFINITY);
        }
    }

    /// Makes `landmark_bits` describe exactly `view`'s landmark set.
    ///
    /// The cache key is the landmark list *by value* (plus the vertex
    /// count), so the check stays sound when a context hops between
    /// indexes, backings, or reallocated owned indexes — there is no
    /// pointer identity to go stale.
    fn ensure_landmark_bits(&mut self, view: &IndexView<'_>) {
        let n = view.num_vertices();
        if self.landmark_key_n == n && self.landmark_key == view.landmarks {
            return;
        }
        self.landmark_bits.reset(n);
        for &v in view.landmarks {
            self.landmark_bits.insert(v as usize);
        }
        self.landmark_key.clear();
        self.landmark_key.extend_from_slice(view.landmarks);
        self.landmark_key_n = n;
    }
}

impl HighwayCoverIndex {
    /// Exact distance between `u` and `v`, or `None` if disconnected.
    ///
    /// Convenience wrapper that allocates a **fresh [`QueryContext`] on
    /// every call** — six buffers plus the landmark bitset, which the
    /// first query then has to grow to the graph size. On a µs-scale
    /// query that allocation and warm-up is comparable to the query
    /// itself, so anything issuing more than a handful of queries (batch
    /// runs, serving loops, benchmarks) should hold one context per
    /// thread and call [`query_with`](Self::query_with) instead; the CLI's
    /// random-query, stdin, and worker-pool paths all do.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or if `graph` has a different
    /// vertex count than the graph the index was built from. Passing a
    /// *different* graph with the same vertex count is not detected and
    /// yields meaningless answers — always query with the build graph.
    pub fn query(&self, graph: &Graph, u: VertexId, v: VertexId) -> Option<u32> {
        let mut ctx = QueryContext::new();
        self.as_view().query_with(graph, &mut ctx, u, v)
    }

    /// Exact distance between `u` and `v` reusing caller-owned scratch.
    /// See [`IndexView::query_with`] (to which this delegates) for the
    /// algorithm and panics.
    pub fn query_with(
        &self,
        graph: &Graph,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
    ) -> Option<u32> {
        self.as_view().query_with(graph, ctx, u, v)
    }

    /// [`query_with`](Self::query_with) with observation hooks. See
    /// [`IndexView::query_probed`].
    pub fn query_probed<P: Probe>(
        &self,
        graph: &Graph,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
        probe: &mut P,
    ) -> Option<u32> {
        self.as_view().query_probed(graph, ctx, u, v, probe)
    }
}

impl<'a> IndexView<'a> {
    /// Exact distance between `u` and `v`, or `None` if disconnected,
    /// reusing caller-owned scratch.
    ///
    /// Evaluation is the paper's two-phase scheme:
    ///
    /// 1. An upper bound from the labelling: the classic sorted 2-hop merge
    ///    over common hubs (galloping when the labels are skewed),
    ///    tightened by routing between *different* hubs across the highway
    ///    matrix. If any shortest `u`–`v` path touches a landmark, this
    ///    bound is already exact: the landmark `x` on such a path nearest
    ///    `u` is in `L(u)` (no landmark sits between them), the landmark
    ///    `y` nearest `v` on a shortest `x`–`v` path is in `L(v)`, and
    ///    the highway holds `d(x, y)` exactly.
    /// 2. A bidirectional BFS that never expands through a landmark,
    ///    covering the only remaining case (a shortest path avoiding all
    ///    landmarks). The bound from phase 1 cuts the search off early.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or if `graph` has a different
    /// vertex count than the graph the index was built from. Passing a
    /// *different* graph with the same vertex count is not detected and
    /// yields meaningless answers — always query with the build graph.
    pub fn query_with<'g>(
        &self,
        graph: impl Into<DynGraphView<'g>>,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
    ) -> Option<u32> {
        self.query_probed(graph, ctx, u, v, &mut NoProbe)
    }

    /// [`query_with`](Self::query_with) with observation hooks: `probe`
    /// sees each phase (merge, highway pass, residual BFS) as it runs.
    /// Pass `&mut` [`crate::QueryStats`] to collect a per-query work
    /// breakdown; monomorphised with [`NoProbe`] this is the plain query
    /// path. The answer is identical for every probe — probes observe,
    /// they never steer.
    ///
    /// # Panics
    /// Same contract as [`query_with`](Self::query_with).
    pub fn query_probed<'g, P: Probe>(
        &self,
        graph: impl Into<DynGraphView<'g>>,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
        probe: &mut P,
    ) -> Option<u32> {
        let graph = graph.into();
        let n = self.num_vertices();
        assert_eq!(
            graph.num_vertices(),
            n,
            "index was built for a different graph"
        );
        assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
        probe.query_start();
        if u == v {
            probe.query_done(true, INF64, 0);
            return Some(0);
        }

        let bound = match (self.label_entries, self.patch.is_some()) {
            (LabelEntries::Narrow(w), false) => {
                self.label_upper_bound(self.base_words(w, u), self.base_words(w, v), probe)
            }
            (LabelEntries::Wide(w), false) => {
                self.label_upper_bound(self.base_words(w, u), self.base_words(w, v), probe)
            }
            (LabelEntries::Narrow(w), true) => {
                self.label_upper_bound(self.words(w, u), self.words(w, v), probe)
            }
            (LabelEntries::Wide(w), true) => {
                self.label_upper_bound(self.words(w, u), self.words(w, v), probe)
            }
        };
        let best = match graph {
            DynGraphView::Csr(g) => self.residual_bfs(g, ctx, u, v, bound, probe),
            DynGraphView::Patched(g) => self.residual_bfs(g, ctx, u, v, bound, probe),
        };
        probe.query_done(false, bound, best);
        if best == INF64 {
            None
        } else {
            Some(best as u32)
        }
    }

    /// Upper bound on `d(u, v)` from labels and the highway.
    ///
    /// Exact whenever some shortest `u`–`v` path passes through a landmark;
    /// `u64::MAX` when the labels certify nothing.
    fn label_upper_bound<W: LabelWord, P: Probe>(&self, lu: &[W], lv: &[W], probe: &mut P) -> u64 {
        // All sums below run in u64 so `u32`-sized operands cannot wrap,
        // and INFINITY-valued operands are skipped outright: a label or
        // highway entry at the sentinel certifies nothing, and treating it
        // as a number would let a hostile (well-formed but tampered) index
        // manufacture near-overflow "distances".

        // Fast path: merge over common hubs (the classic 2-hop join).
        let mut best = common_hub_bound(lu, lv, probe);

        if lu.is_empty() || lv.is_empty() {
            return best;
        }

        // General case: route between distinct hubs over the highway,
        // hoisted behind lower-bound checks. The cheapest conceivable
        // highway route costs at least d1 + d2 (the matrix is
        // non-negative), so precomputing v's minimum label distance lets
        // whole rows — and often the whole cross-product — exit before a
        // single matrix load.
        let min_dv = lv
            .iter()
            .map(|&e| e.dist())
            .filter(|&d| d != INFINITY)
            .min()
            .map_or(INF64, |d| d as u64);
        let k = self.landmarks.len();
        for &eu in lu {
            let (h1, d1u) = (eu.hub() as usize, eu.dist());
            if d1u == INFINITY {
                continue;
            }
            let d1 = d1u as u64;
            if d1.saturating_add(min_dv) >= best {
                continue;
            }
            let row = &self.highway[h1 * k..(h1 + 1) * k];
            for &ev in lv {
                let (h2, d2u) = (ev.hub() as usize, ev.dist());
                if h2 == h1 || d2u == INFINITY {
                    continue; // same hub was handled by the merge above
                }
                let base = d1 + d2u as u64;
                if base >= best {
                    continue;
                }
                let hw = row[h2];
                if hw == INFINITY {
                    continue;
                }
                let cand = base + hw as u64;
                if cand < best {
                    best = cand;
                    probe.highway_improved(best);
                }
            }
        }
        best
    }

    /// Shortest `u`–`v` distance over paths whose *interior* avoids every
    /// landmark, clipped to `bound`; returns `min(bound, that distance)`.
    ///
    /// Level-synchronous bidirectional BFS, always expanding the smaller
    /// frontier. Landmark vertices are never enqueued (endpoints are seeded
    /// directly, so a landmark endpoint still works); membership is tested
    /// against the context's dense bitset. Meets are detected on edge
    /// scans before the landmark check, so a direct edge into the other
    /// frontier is never missed. The search stops as soon as the two
    /// frontier depths certify that no undiscovered landmark-free path can
    /// beat the current best.
    fn residual_bfs<G: Adjacency, P: Probe>(
        &self,
        graph: G,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
        bound: u64,
        probe: &mut P,
    ) -> u64 {
        let n = self.num_vertices();
        ctx.ensure_capacity(n);
        ctx.ensure_landmark_bits(self);
        ctx.frontier_fwd.clear();
        ctx.frontier_bwd.clear();

        ctx.dist_fwd[u as usize] = 0;
        ctx.dist_bwd[v as usize] = 0;
        ctx.touched.push(u);
        ctx.touched.push(v);
        ctx.frontier_fwd.push(u);
        ctx.frontier_bwd.push(v);

        let mut best = bound;
        let mut depth_fwd: u64 = 0;
        let mut depth_bwd: u64 = 0;
        let landmark_bits = &ctx.landmark_bits;

        while !ctx.frontier_fwd.is_empty()
            && !ctx.frontier_bwd.is_empty()
            && depth_fwd + depth_bwd + 1 < best
        {
            let forward = ctx.frontier_fwd.len() <= ctx.frontier_bwd.len();
            let (frontier, dist_mine, dist_other, depth) = if forward {
                (
                    &ctx.frontier_fwd,
                    &mut ctx.dist_fwd,
                    &ctx.dist_bwd,
                    &mut depth_fwd,
                )
            } else {
                (
                    &ctx.frontier_bwd,
                    &mut ctx.dist_bwd,
                    &ctx.dist_fwd,
                    &mut depth_bwd,
                )
            };
            ctx.next.clear();
            let next_depth = (*depth + 1) as u32;
            for &x in frontier {
                probe.bfs_node_expanded();
                for &w in graph.neighbors(x) {
                    let other = dist_other[w as usize];
                    if other != INFINITY {
                        best = best.min(*depth + 1 + other as u64);
                    }
                    if landmark_bits.contains(w as usize) {
                        continue;
                    }
                    if dist_mine[w as usize] == INFINITY {
                        dist_mine[w as usize] = next_depth;
                        ctx.touched.push(w);
                        ctx.next.push(w);
                    }
                }
            }
            *depth += 1;
            probe.bfs_level(ctx.next.len());
            if forward {
                std::mem::swap(&mut ctx.frontier_fwd, &mut ctx.next);
            } else {
                std::mem::swap(&mut ctx.frontier_bwd, &mut ctx.next);
            }
        }

        for &x in &ctx.touched {
            ctx.dist_fwd[x as usize] = INFINITY;
            ctx.dist_bwd[x as usize] = INFINITY;
        }
        ctx.touched.clear();
        best
    }
}

/// Minimum `dist(u, h) + dist(v, h)` over hubs `h` common to both labels;
/// `u64::MAX` when the labels share no usable hub.
///
/// Chooses between a linear two-pointer merge and a galloping merge by the
/// size ratio: on skewed pairs (leaf label vs. hub label) galloping turns
/// the join from `O(small + large)` into `O(small · log large)`.
fn common_hub_bound<W: LabelWord, P: Probe>(lu: &[W], lv: &[W], probe: &mut P) -> u64 {
    let (small, large) = if lu.len() <= lv.len() {
        (lu, lv)
    } else {
        (lv, lu)
    };
    if small.is_empty() {
        probe.merge_done(false, 0, INF64);
        return INF64;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        galloping_merge_bound(small, large, probe)
    } else {
        linear_merge_bound(small, large, probe)
    }
}

fn linear_merge_bound<W: LabelWord, P: Probe>(a: &[W], b: &[W], probe: &mut P) -> u64 {
    let mut best = INF64;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ha, hb) = (a[i].hub(), b[j].hub());
        match ha.cmp(&hb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (da, db) = (a[i].dist(), b[j].dist());
                if da != INFINITY && db != INFINITY {
                    best = best.min(da as u64 + db as u64);
                }
                i += 1;
                j += 1;
            }
        }
    }
    // Scanned = entry positions consumed on both sides — derived from the
    // two cursors the merge maintains anyway, so a no-op probe costs
    // nothing here.
    probe.merge_done(false, i + j, best);
    best
}

/// Merge for skewed sizes: for each entry of `small`, gallop (exponential
/// then binary search) through the remaining suffix of `large`. Entries
/// are hub-sorted, and hubs occupy the high half-word, so hub comparisons
/// are plain integer comparisons on [`LabelWord::hub_bits`].
fn galloping_merge_bound<W: LabelWord, P: Probe>(small: &[W], large: &[W], probe: &mut P) -> u64 {
    let mut best = INF64;
    let mut from = 0usize;
    // `used` counts small-side entries processed; together with `from`
    // (positions passed in `large`) it is the merge's scanned-entries
    // figure. Dead with a no-op probe, so the optimiser drops it.
    let mut used = 0usize;
    for &es in small {
        used += 1;
        let target = es.hub_bits();
        // Exponential probe: find a window [from + step/2, from + step]
        // whose upper end is at or past the target hub.
        let mut step = 1usize;
        while from + step < large.len() && large[from + step].hub_bits() < target {
            step *= 2;
        }
        let lo = from + step / 2;
        let hi = (from + step + 1).min(large.len());
        // Binary search the window for the first entry at or past target.
        let idx = lo + large[lo..hi].partition_point(|&e| e.hub_bits() < target);
        if idx >= large.len() {
            break; // every remaining hub of `large` is smaller — done
        }
        let el = large[idx];
        if el.hub_bits() == target {
            let (ds, dl) = (es.dist(), el.dist());
            if ds != INFINITY && dl != INFINITY {
                best = best.min(ds as u64 + dl as u64);
            }
            from = idx + 1;
        } else {
            from = idx;
        }
        if from >= large.len() {
            break;
        }
    }
    probe.merge_done(true, used + from, best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries<W: LabelWord>(pairs: &[(u32, u32)]) -> Vec<W> {
        pairs.iter().map(|&(h, d)| W::pack(h, d)).collect()
    }

    /// Reference implementation: brute-force minimum over common hubs.
    fn brute<W: LabelWord>(a: &[W], b: &[W]) -> u64 {
        let mut best = INF64;
        for &ea in a {
            for &eb in b {
                if ea.hub() == eb.hub() && ea.dist() != INFINITY && eb.dist() != INFINITY {
                    best = best.min(ea.dist() as u64 + eb.dist() as u64);
                }
            }
        }
        best
    }

    /// Both merges against brute force at one word width; `sentinel` is
    /// the distance sprinkled in as "unreachable" (only wide words can
    /// hold `INFINITY`).
    fn merges_agree<W: LabelWord>(sentinel: u32) {
        let mut rng = hcl_core::testkit::SplitMix64::new(0xFACE);
        for trial in 0..200 {
            // Random strictly-ascending hub sets of very different sizes,
            // so both the linear and galloping paths are exercised.
            let mut make = |len: usize, hub_space: u64| {
                let mut hubs: Vec<u32> =
                    (0..len).map(|_| rng.next_below(hub_space) as u32).collect();
                hubs.sort_unstable();
                hubs.dedup();
                entries::<W>(
                    &hubs
                        .into_iter()
                        .map(|h| {
                            let d = rng.next_below(50) as u32;
                            // Sprinkle sentinel distances in, too.
                            (h, if d == 49 { sentinel } else { d })
                        })
                        .collect::<Vec<_>>(),
                )
            };
            let a = make(trial % 7, 40);
            let b = make(3 + (trial % 61), 40);
            let expected = brute(&a, &b);
            let p = &mut NoProbe;
            assert_eq!(common_hub_bound(&a, &b, p), expected, "trial {trial}");
            assert_eq!(
                common_hub_bound(&b, &a, p),
                expected,
                "trial {trial} swapped"
            );
            assert_eq!(
                linear_merge_bound(&a, &b, p),
                expected,
                "trial {trial} linear"
            );
            if !a.is_empty() {
                assert_eq!(
                    galloping_merge_bound(&a, &b, p),
                    expected,
                    "trial {trial} gallop"
                );
            }
        }
    }

    #[test]
    fn merges_agree_with_brute_force_on_generated_labels() {
        merges_agree::<u64>(INFINITY);
        merges_agree::<u32>(0xFFFF);
    }

    fn gallop_boundaries<W: LabelWord>() {
        let p = &mut NoProbe;
        let empty: &[W] = &[];
        let one = entries::<W>(&[(5, 2)]);
        let many = entries::<W>(&[(0, 1), (2, 9), (5, 3), (9, 0), (31, 7)]);
        assert_eq!(common_hub_bound(empty, &many, p), INF64);
        assert_eq!(common_hub_bound(&one, empty, p), INF64);
        assert_eq!(galloping_merge_bound(&one, &many, p), 5);
        // Target hub past the end of `large`.
        let high = entries::<W>(&[(40, 1)]);
        assert_eq!(galloping_merge_bound(&high, &many, p), INF64);
        // Target hub before the start of `large`.
        let low = entries::<W>(&[(0, 4)]);
        let tail = entries::<W>(&[(7, 1), (8, 2)]);
        assert_eq!(galloping_merge_bound(&low, &tail, p), INF64);
    }

    #[test]
    fn gallop_handles_boundary_shapes() {
        gallop_boundaries::<u64>();
        gallop_boundaries::<u32>();
    }

    #[test]
    fn probed_queries_match_plain_queries_and_classify() {
        use crate::probe::{AnswerSource, QueryStats};
        use crate::{HighwayCoverIndex, IndexConfig};
        for (name, g) in hcl_core::testkit::families() {
            for k in [0usize, 1, 4] {
                let index = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: k });
                let iv = index.as_view();
                let mut ctx = QueryContext::new();
                let mut stats = QueryStats::new();
                let n = g.num_vertices();
                let mut rng = hcl_core::testkit::SplitMix64::new(0xBEEF ^ k as u64);
                for _ in 0..(n * 2).min(200) {
                    let u = rng.next_below(n as u64) as VertexId;
                    let v = rng.next_below(n as u64) as VertexId;
                    let plain = iv.query_with(&g, &mut ctx, u, v);
                    let probed = iv.query_probed(&g, &mut ctx, u, v, &mut stats);
                    assert_eq!(plain, probed, "{name} k={k} ({u},{v})");
                    match stats.source {
                        AnswerSource::Trivial => assert_eq!(u, v),
                        AnswerSource::Disconnected => assert_eq!(plain, None),
                        AnswerSource::LabelHit | AnswerSource::HighwayBound => {
                            assert_eq!(plain.map(u64::from), Some(stats.label_bound));
                        }
                        AnswerSource::ResidualBfs => {
                            assert!(plain.is_some_and(|d| u64::from(d) < stats.label_bound));
                            assert!(stats.bfs_nodes_expanded > 0);
                        }
                    }
                }
            }
        }
    }
}
