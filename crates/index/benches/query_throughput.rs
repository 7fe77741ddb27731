//! PR 4 benchmark: the serving hot path, before vs after the overhaul,
//! written to `BENCH_pr4.json` at the repo root.
//!
//! Four measurements on one Barabási–Albert power-law graph:
//!
//! 1. **Single-thread latency, baseline vs current.** The baseline is a
//!    faithful reimplementation of the pre-PR4 query engine (parallel
//!    hub/dist `u32` arrays, linear-only merge, unguarded highway cross
//!    product, `landmark_rank` table lookups in the residual BFS) run over
//!    the same index data — its parallel arrays are unpacked from the
//!    very [`LabelWord`]s the current engine reads — so both engines
//!    answer the identical workload
//!    in the same process — the fairest before/after a single binary can
//!    produce. Answers are cross-checked, not just timed.
//! 2. **Worker-sweep throughput** at {1, 2, 4, 8} threads sharing one
//!    `IndexView` with a private `QueryContext` each — the `hcl serve
//!    --workers` shape — with the machine's `available_parallelism`
//!    recorded next to the numbers (a single-core container measures
//!    oversubscription, not speedup), and the multi-worker answers
//!    asserted identical to the single-worker ones.
//! 3. **Validated vs trusted open** of the serialised container: the CRC
//!    pass is the file-size-proportional part of load, and
//!    `open_trusted` exists to skip exactly it.
//!
//! `HCL_BENCH_SCALE=small` shrinks the graph and workload for CI smoke
//! runs (the JSON is then labelled accordingly).

use hcl_core::{testkit, GraphView, VertexId, INFINITY};
use hcl_index::{HighwayCoverIndex, IndexConfig, IndexView, LabelEntries, LabelWord, QueryContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const SEED: u64 = 0x9E37;
const LANDMARKS: usize = 32;

// ---------------------------------------------------------------------------
// Baseline: the pre-PR4 query engine, verbatim modulo storage unpacking.
// ---------------------------------------------------------------------------

/// Pre-PR4 index layout: parallel hub/dist arrays, as read from the view.
struct BaselineIndex {
    landmark_rank: Vec<u32>,
    label_offsets: Vec<u64>,
    label_hubs: Vec<u32>,
    label_dists: Vec<u32>,
    highway: Vec<u32>,
    k: usize,
}

const NOT_A_LANDMARK: u32 = u32::MAX;
const INF64: u64 = u64::MAX;

/// Splits packed label words into the baseline's parallel arrays.
fn unpack<W: LabelWord>(words: &[W]) -> (Vec<u32>, Vec<u32>) {
    words.iter().map(|w| (w.hub(), w.dist())).unzip()
}

impl BaselineIndex {
    fn from_view(v: IndexView<'_>) -> Self {
        let (hubs, dists) = match v.label_entries() {
            LabelEntries::Narrow(words) => unpack(words),
            LabelEntries::Wide(words) => unpack(words),
        };
        Self {
            landmark_rank: v.landmark_rank().to_vec(),
            label_offsets: v.label_offsets().to_vec(),
            label_hubs: hubs,
            label_dists: dists,
            highway: v.highway().to_vec(),
            k: v.num_landmarks(),
        }
    }

    fn query(
        &self,
        graph: GraphView<'_>,
        ctx: &mut BaselineContext,
        u: VertexId,
        v: VertexId,
    ) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let bound = self.label_upper_bound(u, v);
        let best = self.residual_bfs(graph, ctx, u, v, bound);
        if best == INF64 {
            None
        } else {
            Some(best as u32)
        }
    }

    /// The pre-PR4 two-pointer merge + full highway cross product.
    fn label_upper_bound(&self, u: VertexId, v: VertexId) -> u64 {
        let (u_lo, u_hi) = (
            self.label_offsets[u as usize] as usize,
            self.label_offsets[u as usize + 1] as usize,
        );
        let (v_lo, v_hi) = (
            self.label_offsets[v as usize] as usize,
            self.label_offsets[v as usize + 1] as usize,
        );
        let mut best = INF64;
        let (mut i, mut j) = (u_lo, v_lo);
        while i < u_hi && j < v_hi {
            match self.label_hubs[i].cmp(&self.label_hubs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if self.label_dists[i] != INFINITY && self.label_dists[j] != INFINITY {
                        best = best.min(self.label_dists[i] as u64 + self.label_dists[j] as u64);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let k = self.k;
        for i in u_lo..u_hi {
            let (h1, d1) = (self.label_hubs[i] as usize, self.label_dists[i] as u64);
            if d1 >= best || self.label_dists[i] == INFINITY {
                continue;
            }
            for j in v_lo..v_hi {
                let h2 = self.label_hubs[j] as usize;
                if h1 == h2 {
                    continue;
                }
                let hw = self.highway[h1 * k + h2];
                if hw == INFINITY || self.label_dists[j] == INFINITY {
                    continue;
                }
                best = best.min(d1 + hw as u64 + self.label_dists[j] as u64);
            }
        }
        best
    }

    /// The pre-PR4 residual BFS: landmark test via the u32 rank table.
    fn residual_bfs(
        &self,
        graph: GraphView<'_>,
        ctx: &mut BaselineContext,
        u: VertexId,
        v: VertexId,
        bound: u64,
    ) -> u64 {
        let n = self.landmark_rank.len();
        if ctx.dist_fwd.len() < n {
            ctx.dist_fwd.resize(n, INFINITY);
            ctx.dist_bwd.resize(n, INFINITY);
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
        let (mut depth_fwd, mut depth_bwd) = (0u64, 0u64);
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
                    if self.landmark_rank[w as usize] != NOT_A_LANDMARK {
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

#[derive(Default)]
struct BaselineContext {
    dist_fwd: Vec<u32>,
    dist_bwd: Vec<u32>,
    touched: Vec<VertexId>,
    frontier_fwd: Vec<VertexId>,
    frontier_bwd: Vec<VertexId>,
    next: Vec<VertexId>,
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

/// Answers the whole workload with `workers` threads sharing `index`,
/// chunks claimed off an atomic cursor — the `serve --workers` shape.
fn answer_with_workers(
    graph: GraphView<'_>,
    index: IndexView<'_>,
    pairs: &[(VertexId, VertexId)],
    workers: usize,
) -> Vec<Option<u32>> {
    const CHUNK: usize = 256;
    let num_chunks = pairs.len().div_ceil(CHUNK);
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<Option<u32>>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut ctx = QueryContext::new();
                    let mut out = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let chunk = &pairs[c * CHUNK..((c + 1) * CHUNK).min(pairs.len())];
                        out.push((
                            c,
                            chunk
                                .iter()
                                .map(|&(u, v)| index.query_with(graph, &mut ctx, u, v))
                                .collect(),
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench worker panicked"))
            .collect()
    });
    parts.sort_unstable_by_key(|p| p.0);
    parts.into_iter().flat_map(|p| p.1).collect()
}

fn main() {
    let small = std::env::var("HCL_BENCH_SCALE").is_ok_and(|s| s == "small");
    let (num_vertices, num_queries, open_reps) = if small {
        (2_000usize, 4_000usize, 5usize)
    } else {
        (50_000, 20_000, 10)
    };

    let g = testkit::barabasi_albert(num_vertices, 5, SEED);
    let gv = g.as_view();
    eprintln!(
        "bench graph: BA({num_vertices}, 5), {} edges{}",
        g.num_edges(),
        if small { " [small scale]" } else { "" }
    );
    let t = Instant::now();
    let index = HighwayCoverIndex::build(
        &g,
        IndexConfig {
            num_landmarks: LANDMARKS,
        },
    );
    let build_ns = t.elapsed().as_nanos();
    let iv = index.as_view();
    let stats = index.stats();
    eprintln!(
        "index: {} landmarks, {} label entries, built in {:.1} ms",
        stats.num_landmarks,
        stats.total_label_entries,
        build_ns as f64 / 1e6
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

    // --- 1. Single-thread latency: baseline engine vs current engine. ---
    let baseline = BaselineIndex::from_view(iv);
    let mut bctx = BaselineContext::default();
    let mut bl_answers = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs.iter().take(200) {
        bl_answers.push(baseline.query(gv, &mut bctx, u, v)); // warm-up
    }
    bl_answers.clear();
    let t = Instant::now();
    for &(u, v) in &pairs {
        bl_answers.push(baseline.query(gv, &mut bctx, u, v));
    }
    let baseline_ns = t.elapsed().as_nanos();

    let mut ctx = QueryContext::new();
    let mut answers = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs.iter().take(200) {
        answers.push(iv.query_with(gv, &mut ctx, u, v)); // warm-up
    }
    answers.clear();
    let t = Instant::now();
    for &(u, v) in &pairs {
        answers.push(iv.query_with(gv, &mut ctx, u, v));
    }
    let current_ns = t.elapsed().as_nanos();

    assert_eq!(
        answers, bl_answers,
        "hot-path overhaul changed an answer — that is a bug, not a speedup"
    );
    let mean_baseline = baseline_ns as f64 / pairs.len() as f64;
    let mean_current = current_ns as f64 / pairs.len() as f64;
    eprintln!(
        "single-thread: baseline {:.0} ns/query, current {:.0} ns/query ({:+.1} %)",
        mean_baseline,
        mean_current,
        (mean_current / mean_baseline - 1.0) * 100.0
    );

    // --- 2. Worker sweep. ---
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep = Vec::new();
    let mut identical = true;
    for workers in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let got = answer_with_workers(gv, iv, &pairs, workers);
        let ns = t.elapsed().as_nanos();
        identical &= got == answers;
        let qps = pairs.len() as f64 / (ns as f64 / 1e9);
        eprintln!(
            "workers {workers}: {:.0} queries/s ({:.0} ns/query wall){}",
            qps,
            ns as f64 / pairs.len() as f64,
            if got == answers {
                ""
            } else {
                "  ANSWERS DIVERGED"
            }
        );
        sweep.push((workers, ns, qps));
    }
    assert!(identical, "worker pool must not change answers");

    // --- 3. Validated vs trusted open of the serialised container. ---
    let bytes = hcl_store::serialize(&g, &index).expect("serialize");
    let mut path = std::env::temp_dir();
    path.push(format!("hcl_bench_pr4_{}.hcl", std::process::id()));
    std::fs::write(&path, &bytes).expect("write bench container");
    let mut open_validated_ns = u128::MAX;
    let mut open_trusted_ns = u128::MAX;
    for _ in 0..open_reps {
        let t = Instant::now();
        let s = hcl_store::IndexStore::open(&path).expect("open");
        open_validated_ns = open_validated_ns.min(t.elapsed().as_nanos());
        drop(s);
        let t = Instant::now();
        let s = hcl_store::IndexStore::open_trusted(&path).expect("open_trusted");
        open_trusted_ns = open_trusted_ns.min(t.elapsed().as_nanos());
        drop(s);
    }
    std::fs::remove_file(&path).ok();
    eprintln!(
        "open ({} KiB file): validated {:.2} ms, trusted {:.2} ms ({:.1}× faster)",
        bytes.len() / 1024,
        open_validated_ns as f64 / 1e6,
        open_trusted_ns as f64 / 1e6,
        open_validated_ns as f64 / open_trusted_ns as f64
    );

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(w, ns, qps)| {
            format!("{{\"workers\": {w}, \"total_ns\": {ns}, \"queries_per_s\": {qps:.0}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pr4_query_throughput\",\n  \"scale\": \"{}\",\n  \
         \"graph\": {{\"family\": \"barabasi_albert\", \"vertices\": {num_vertices}, \
         \"edges\": {}, \"m\": 5, \"seed\": {SEED}}},\n  \
         \"index\": {{\"landmarks\": {}, \"label_entries\": {}, \"build_ns\": {build_ns}}},\n  \
         \"single_thread\": {{\"queries\": {}, \"baseline_mean_ns\": {mean_baseline:.1}, \
         \"current_mean_ns\": {mean_current:.1}, \"speedup\": {:.3}, \
         \"answers_checksum\": {}}},\n  \
         \"worker_sweep\": {{\"available_parallelism\": {cores}, \
         \"output_identical_to_single_worker\": {identical}, \"runs\": [{}]}},\n  \
         \"open\": {{\"file_bytes\": {}, \"reps\": {open_reps}, \
         \"validated_best_ns\": {open_validated_ns}, \"trusted_best_ns\": {open_trusted_ns}, \
         \"trusted_speedup\": {:.3}}}\n}}\n",
        if small { "small" } else { "full" },
        g.num_edges(),
        stats.num_landmarks,
        stats.total_label_entries,
        pairs.len(),
        mean_baseline / mean_current,
        checksum(&answers),
        sweep_json.join(", "),
        bytes.len(),
        open_validated_ns as f64 / open_trusted_ns as f64,
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr4.json");
    std::fs::write(out_path, &json).expect("writing BENCH_pr4.json");
    eprintln!("wrote {out_path}");
}
