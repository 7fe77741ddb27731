//! PR 7 benchmark: the probe hooks must be free when nobody is listening,
//! written to `BENCH_pr7.json` at the repo root.
//!
//! PR 7 made every query phase generic over a [`Probe`] so `--explain`,
//! the slow-query log, and the per-mechanism `/metrics` counters can watch
//! the engine work. The promise is that the *un-instrumented* path —
//! `query_with`, which monomorphises with `NoProbe` — compiles to the same
//! machine code as an engine with no hooks at all. This bench pins that:
//!
//! 1. **Baseline**: a faithful in-binary reimplementation of the pre-PR7
//!    query engine (packed-entry labels, linear/galloping merge, hoisted
//!    highway cross product, bitset residual BFS) with no probe parameter
//!    anywhere, run over the *same* index slices: it is generic over the
//!    same [`LabelWord`] and matches the entry width once per query, like
//!    the shipping engine. Both engines answer the
//!    identical workload in one process, and the answers are cross-checked
//!    entry for entry, not just checksummed.
//! 2. **NoProbe**: the shipping `query_with` path. Mean latency must stay
//!    within **2 %** of the baseline (the acceptance bar); the best of
//!    several interleaved repetitions is compared so scheduler noise
//!    cannot fake a regression in either direction.
//! 3. **QueryStats**: `query_probed` with a live collector, reported for
//!    context — this is the price `--explain` and the slow-query log
//!    actually pay per query.
//!
//! `HCL_BENCH_SCALE=small` shrinks the graph and workload for CI smoke
//! runs (the JSON is then labelled accordingly).

use hcl_core::{testkit, DenseBitSet, GraphView, VertexId, INFINITY};
use hcl_index::{
    HighwayCoverIndex, IndexConfig, IndexView, LabelEntries, LabelWord, QueryContext, QueryStats,
};
use std::time::Instant;

const SEED: u64 = 0x9E37;
const LANDMARKS: usize = 32;
const INF64: u64 = u64::MAX;
const GALLOP_RATIO: usize = 8;

// ---------------------------------------------------------------------------
// Baseline: the pre-PR7 query engine, verbatim minus the probe hooks.
// ---------------------------------------------------------------------------

/// Borrows the live index's slices so both engines read the exact same
/// bytes — any latency difference is code, not data layout.
struct BaselineEngine<'a> {
    label_offsets: &'a [u64],
    label_entries: LabelEntries<'a>,
    highway: &'a [u32],
    landmarks: &'a [VertexId],
    num_vertices: usize,
}

#[derive(Default)]
struct BaselineContext {
    dist_fwd: Vec<u32>,
    dist_bwd: Vec<u32>,
    touched: Vec<VertexId>,
    frontier_fwd: Vec<VertexId>,
    frontier_bwd: Vec<VertexId>,
    next: Vec<VertexId>,
    landmark_bits: DenseBitSet,
    landmark_key: Vec<VertexId>,
    landmark_key_n: usize,
}

impl<'a> BaselineEngine<'a> {
    fn from_view(v: IndexView<'a>) -> Self {
        Self {
            label_offsets: v.label_offsets(),
            label_entries: v.label_entries(),
            highway: v.highway(),
            landmarks: v.landmarks(),
            num_vertices: v.num_vertices(),
        }
    }

    fn query(
        &self,
        graph: GraphView<'_>,
        ctx: &mut BaselineContext,
        u: VertexId,
        v: VertexId,
    ) -> Option<u32> {
        let n = self.num_vertices;
        assert_eq!(
            graph.num_vertices(),
            n,
            "index was built for a different graph"
        );
        assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
        if u == v {
            return Some(0);
        }
        let bound = match self.label_entries {
            LabelEntries::Narrow(words) => self.label_upper_bound(words, u, v),
            LabelEntries::Wide(words) => self.label_upper_bound(words, u, v),
        };
        let best = self.residual_bfs(graph, ctx, u, v, bound);
        if best == INF64 {
            None
        } else {
            Some(best as u32)
        }
    }

    fn label_upper_bound<W: LabelWord>(&self, words: &[W], u: VertexId, v: VertexId) -> u64 {
        let (u_lo, u_hi) = (
            self.label_offsets[u as usize] as usize,
            self.label_offsets[u as usize + 1] as usize,
        );
        let (v_lo, v_hi) = (
            self.label_offsets[v as usize] as usize,
            self.label_offsets[v as usize + 1] as usize,
        );
        let lu = &words[u_lo..u_hi];
        let lv = &words[v_lo..v_hi];

        let mut best = common_hub_bound(lu, lv);
        if lu.is_empty() || lv.is_empty() {
            return best;
        }

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
                    continue;
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
                }
            }
        }
        best
    }

    fn residual_bfs(
        &self,
        graph: GraphView<'_>,
        ctx: &mut BaselineContext,
        u: VertexId,
        v: VertexId,
        bound: u64,
    ) -> u64 {
        let n = self.num_vertices;
        if ctx.dist_fwd.len() < n {
            ctx.dist_fwd.resize(n, INFINITY);
            ctx.dist_bwd.resize(n, INFINITY);
        }
        // The pre-PR7 engine re-validated its cached landmark bitset on
        // every query (value comparison against the view's landmark list);
        // the baseline must pay the same check or it isn't a baseline.
        if ctx.landmark_key_n != n || ctx.landmark_key != self.landmarks {
            ctx.landmark_bits.reset(n);
            for &l in self.landmarks {
                ctx.landmark_bits.insert(l as usize);
            }
            ctx.landmark_key.clear();
            ctx.landmark_key.extend_from_slice(self.landmarks);
            ctx.landmark_key_n = n;
        }
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

fn common_hub_bound<W: LabelWord>(lu: &[W], lv: &[W]) -> u64 {
    let (small, large) = if lu.len() <= lv.len() {
        (lu, lv)
    } else {
        (lv, lu)
    };
    if small.is_empty() {
        return INF64;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        galloping_merge_bound(small, large)
    } else {
        linear_merge_bound(small, large)
    }
}

fn linear_merge_bound<W: LabelWord>(a: &[W], b: &[W]) -> u64 {
    let mut best = INF64;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].hub().cmp(&b[j].hub()) {
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
    best
}

fn galloping_merge_bound<W: LabelWord>(small: &[W], large: &[W]) -> u64 {
    let mut best = INF64;
    let mut from = 0usize;
    for &es in small {
        let target = es.hub_bits();
        let mut step = 1usize;
        while from + step < large.len() && large[from + step].hub_bits() < target {
            step *= 2;
        }
        let lo = from + step / 2;
        let hi = (from + step + 1).min(large.len());
        let idx = lo + large[lo..hi].partition_point(|&e| e.hub_bits() < target);
        if idx >= large.len() {
            break;
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
    best
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn checksum(answers: &[Option<u32>]) -> u64 {
    answers.iter().fold(0u64, |acc, a| {
        acc.wrapping_mul(0x100000001b3)
            .wrapping_add(a.map_or(u64::MAX, |d| d as u64))
    })
}

fn main() {
    let small = std::env::var("HCL_BENCH_SCALE").is_ok_and(|s| s == "small");
    let (num_vertices, num_queries, reps) = if small {
        (2_000usize, 4_000usize, 5usize)
    } else {
        (50_000, 20_000, 7)
    };

    let g = testkit::barabasi_albert(num_vertices, 5, SEED);
    let gv = g.as_view();
    eprintln!(
        "bench graph: BA({num_vertices}, 5), {} edges{}",
        g.num_edges(),
        if small { " [small scale]" } else { "" }
    );
    let index = HighwayCoverIndex::build(
        &g,
        IndexConfig {
            num_landmarks: LANDMARKS,
        },
    );
    let iv = index.as_view();
    let stats = index.stats();
    eprintln!(
        "index: {} landmarks, {} label entries",
        stats.num_landmarks, stats.total_label_entries
    );

    let mut rng = testkit::SplitMix64::new(SEED ^ 0xF00D);
    let pairs: Vec<(VertexId, VertexId)> = (0..num_queries)
        .map(|_| {
            (
                rng.next_below(num_vertices as u64) as VertexId,
                rng.next_below(num_vertices as u64) as VertexId,
            )
        })
        .collect();

    let baseline = BaselineEngine::from_view(iv);
    let mut bctx = BaselineContext::default();
    let mut ctx = QueryContext::new();
    let mut qstats = QueryStats::new();

    // Warm up all three paths (grows buffers, faults pages, primes caches).
    let mut bl_answers: Vec<Option<u32>> = Vec::with_capacity(pairs.len());
    let mut answers: Vec<Option<u32>> = Vec::with_capacity(pairs.len());
    let mut probed_answers: Vec<Option<u32>> = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs.iter().take(500) {
        bl_answers.push(baseline.query(gv, &mut bctx, u, v));
        answers.push(iv.query_with(gv, &mut ctx, u, v));
        probed_answers.push(iv.query_probed(gv, &mut ctx, u, v, &mut qstats));
    }

    // Interleave repetitions (baseline, noprobe, probed, baseline, …) and
    // keep each engine's best rep, so a background hiccup hits one rep of
    // one engine, not the whole comparison.
    let mut best_baseline_ns = u128::MAX;
    let mut best_noprobe_ns = u128::MAX;
    let mut best_probed_ns = u128::MAX;
    for rep in 0..reps {
        bl_answers.clear();
        let t = Instant::now();
        for &(u, v) in &pairs {
            bl_answers.push(baseline.query(gv, &mut bctx, u, v));
        }
        best_baseline_ns = best_baseline_ns.min(t.elapsed().as_nanos());

        answers.clear();
        let t = Instant::now();
        for &(u, v) in &pairs {
            answers.push(iv.query_with(gv, &mut ctx, u, v));
        }
        best_noprobe_ns = best_noprobe_ns.min(t.elapsed().as_nanos());

        probed_answers.clear();
        let t = Instant::now();
        for &(u, v) in &pairs {
            probed_answers.push(iv.query_probed(gv, &mut ctx, u, v, &mut qstats));
        }
        best_probed_ns = best_probed_ns.min(t.elapsed().as_nanos());

        if rep == 0 {
            assert_eq!(
                answers, bl_answers,
                "NoProbe engine disagrees with the pre-probe baseline — a probe changed an answer"
            );
            assert_eq!(
                answers, probed_answers,
                "a live QueryStats probe changed an answer — probes must only observe"
            );
        }
    }

    let n = pairs.len() as f64;
    let mean_baseline = best_baseline_ns as f64 / n;
    let mean_noprobe = best_noprobe_ns as f64 / n;
    let mean_probed = best_probed_ns as f64 / n;
    let overhead_pct = (mean_noprobe / mean_baseline - 1.0) * 100.0;
    let probed_pct = (mean_probed / mean_baseline - 1.0) * 100.0;
    let within_budget = overhead_pct <= 2.0;

    eprintln!("baseline (no hooks):     {mean_baseline:.0} ns/query (best of {reps} reps)");
    eprintln!(
        "query_with (NoProbe):    {mean_noprobe:.0} ns/query ({overhead_pct:+.2} % vs baseline)"
    );
    eprintln!(
        "query_probed (stats):    {mean_probed:.0} ns/query ({probed_pct:+.2} % vs baseline)"
    );
    eprintln!(
        "NoProbe overhead budget ≤ 2 %: {}",
        if within_budget { "PASS" } else { "FAIL" }
    );

    let cs = checksum(&answers);
    assert_eq!(cs, checksum(&bl_answers), "checksum mismatch vs baseline");
    assert_eq!(cs, checksum(&probed_answers), "checksum mismatch vs probed");

    let json = format!(
        "{{\n  \"bench\": \"pr7_probe_overhead\",\n  \"scale\": \"{}\",\n  \
         \"graph\": {{\"family\": \"barabasi_albert\", \"vertices\": {num_vertices}, \
         \"edges\": {}, \"m\": 5, \"seed\": {SEED}}},\n  \
         \"index\": {{\"landmarks\": {}, \"label_entries\": {}}},\n  \
         \"workload\": {{\"queries\": {}, \"reps\": {reps}}},\n  \
         \"baseline_mean_ns\": {mean_baseline:.1},\n  \
         \"noprobe_mean_ns\": {mean_noprobe:.1},\n  \
         \"noprobe_overhead_pct\": {overhead_pct:.3},\n  \
         \"noprobe_within_2pct\": {within_budget},\n  \
         \"querystats_mean_ns\": {mean_probed:.1},\n  \
         \"querystats_overhead_pct\": {probed_pct:.3},\n  \
         \"answers_identical\": true,\n  \
         \"answers_checksum\": {cs}\n}}\n",
        if small { "small" } else { "full" },
        g.num_edges(),
        stats.num_landmarks,
        stats.total_label_entries,
        pairs.len(),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr7.json");
    std::fs::write(out_path, &json).expect("writing BENCH_pr7.json");
    eprintln!("wrote {out_path}");

    assert!(
        within_budget,
        "NoProbe path is {overhead_pct:.2} % slower than the pre-probe baseline (budget: 2 %)"
    );
}
