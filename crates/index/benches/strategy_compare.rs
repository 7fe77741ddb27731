//! Cross-strategy landmark-selection benchmark: build time, label size,
//! and query latency for every built-in [`SelectionStrategy`] on a
//! paper-scale (≥100k-vertex) Barabási–Albert graph, written to
//! `BENCH_pr5.json` at the repo root. Runs under `cargo bench` (plain
//! std::time harness; the container has no registry access, so no
//! criterion).
//!
//! This is the experiment the pluggable-selection tentpole exists for: the
//! paper's degree ranking against a sampled-coverage ordering and a seeded
//! random baseline, on the hub-dominated topology the scheme targets.
//! Expectation (and what the JSON lets CI history confirm): degree and
//! coverage ranking land within a small factor of each other, while the
//! random baseline pays for unlabelled hubs with much larger residual BFS
//! fallbacks — the gap *is* the value of informed selection. A handful of
//! answers per strategy are cross-checked against the BFS oracle, so the
//! numbers can never come from a wrong index.
//!
//! `HCL_BENCH_SCALE=small` shrinks the graph and workload for CI smoke.

use hcl_core::{testkit, VertexId};
use hcl_index::{BuildOptions, HighwayCoverIndex, QueryContext, SelectionStrategy};
use std::time::Instant;

const BA_EDGES_PER_VERTEX: usize = 5;
const SEED: u64 = 2027;
const NUM_LANDMARKS: usize = 32;
const STRATEGY_SEED: u64 = 7;

fn main() {
    let small = std::env::var("HCL_BENCH_SCALE").as_deref() == Ok("small");
    let (num_vertices, num_queries) = if small {
        (5_000, 2_000)
    } else {
        (120_000, 20_000)
    };

    let t = Instant::now();
    let g = testkit::barabasi_albert(num_vertices, BA_EDGES_PER_VERTEX, SEED);
    eprintln!(
        "bench graph: {} vertices, {} edges (generated in {:.1?})",
        g.num_vertices(),
        g.num_edges(),
        t.elapsed()
    );

    let mut rng = testkit::SplitMix64::new(SEED ^ 0x5eed);
    let pairs: Vec<(VertexId, VertexId)> = (0..num_queries)
        .map(|_| {
            (
                rng.next_below(num_vertices as u64) as VertexId,
                rng.next_below(num_vertices as u64) as VertexId,
            )
        })
        .collect();

    let strategies = [
        SelectionStrategy::DegreeRank,
        SelectionStrategy::ApproxCoverage {
            seed: STRATEGY_SEED,
        },
        SelectionStrategy::SeededRandom {
            seed: STRATEGY_SEED,
        },
    ];

    let mut rows: Vec<String> = Vec::new();
    for strategy in strategies {
        let options = BuildOptions {
            num_landmarks: NUM_LANDMARKS,
            threads: 1,
            selection: Some(strategy),
            ..BuildOptions::default()
        };
        let t = Instant::now();
        let index = HighwayCoverIndex::build_with(&g, &options);
        let build_ns = t.elapsed().as_nanos();
        let stats = index.stats();

        let mut ctx = QueryContext::new();
        let mut checksum = 0u64;
        // Warm-up grows the context buffers off the clock.
        for &(u, v) in pairs.iter().take(100) {
            if let Some(d) = index.query_with(&g, &mut ctx, u, v) {
                checksum = checksum.wrapping_add(d as u64);
            }
        }
        let t = Instant::now();
        for &(u, v) in &pairs {
            if let Some(d) = index.query_with(&g, &mut ctx, u, v) {
                checksum = checksum.wrapping_add(d as u64);
            }
        }
        let query_ns = t.elapsed().as_nanos();
        let mean_ns = query_ns as f64 / pairs.len() as f64;

        // Exactness spot-check: selection must never change an answer.
        for &(u, v) in pairs.iter().take(5) {
            assert_eq!(
                index.query(&g, u, v),
                hcl_core::bfs::distance(&g, u, v),
                "strategy {strategy} answered wrong at ({u}, {v})"
            );
        }

        eprintln!(
            "{strategy}: build {:.1} ms, {} entries ({:.2}/vertex), mean query {:.0} ns \
             (checksum {})",
            build_ns as f64 / 1e6,
            stats.total_label_entries,
            stats.avg_label_size,
            mean_ns,
            checksum
        );
        rows.push(format!(
            "{{\"strategy\": \"{strategy}\", \"build_ns\": {build_ns}, \"label_entries\": {}, \
             \"entries_per_vertex\": {:.4}, \"mean_query_ns\": {mean_ns:.1}, \
             \"checksum\": {checksum}}}",
            stats.total_label_entries, stats.avg_label_size
        ));
        std::hint::black_box(checksum);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"pr5_strategy_compare\",\n  \"available_parallelism\": {cores},\n  \
         \"graph\": {{\"family\": \"barabasi_albert\", \"vertices\": {}, \"edges\": {}, \
         \"m\": {BA_EDGES_PER_VERTEX}, \"seed\": {SEED}}},\n  \
         \"landmarks\": {NUM_LANDMARKS},\n  \"queries\": {},\n  \"strategies\": [\n    {}\n  ]\n}}\n",
        g.num_vertices(),
        g.num_edges(),
        pairs.len(),
        rows.join(",\n    ")
    );
    if small {
        eprintln!("small scale: skipping BENCH_pr5.json write\n{json}");
        return;
    }
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr5.json");
    std::fs::write(out_path, &json).expect("writing BENCH_pr5.json");
    eprintln!("wrote {out_path}");
}
