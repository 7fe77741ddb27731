//! Parallel-build benchmark: index construction time at 1/2/4/8 worker
//! threads on a 100k-vertex Barabási–Albert (power-law) graph, written to
//! `BENCH_pr3.json` at the repo root. Runs under `cargo bench` (plain
//! std::time harness; the container has no registry access, so no
//! criterion). Also asserts the builds are identical across thread counts
//! — the determinism contract the speedup must not cost.
//!
//! The JSON records `available_parallelism` alongside the timings: on a
//! single-core machine the thread sweep can only measure oversubscription
//! overhead (speedup ≈ 1), while sharding independent landmark trees
//! gives near-linear gains up to `min(landmarks, cores)` where cores exist
//! — interpret the speedup column against that field.

use hcl_index::{BuildContext, BuildOptions, HighwayCoverIndex};
use std::time::Instant;

const NUM_VERTICES: usize = 100_000;
const BA_EDGES_PER_VERTEX: usize = 5;
const SEED: u64 = 2026;
const NUM_LANDMARKS: usize = 32;
const BUILD_REPS: usize = 3;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Cheap structural fingerprint: array lengths plus an order-sensitive
/// running hash over every element, enough to catch any divergence.
fn fingerprint(idx: &HighwayCoverIndex) -> u64 {
    let v = idx.as_view();
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(v.label_offsets().len() as u64);
    for &x in v.label_offsets() {
        mix(x);
    }
    mix(v.label_entries().word_bytes() as u64);
    for (hub, dist) in v.label_entries().iter() {
        mix(((hub as u64) << 32) | dist as u64);
    }
    for &x in v.highway() {
        mix(x as u64);
    }
    for &x in v.landmarks() {
        mix(x as u64);
    }
    h
}

fn main() {
    let t = Instant::now();
    let g = hcl_core::testkit::barabasi_albert(NUM_VERTICES, BA_EDGES_PER_VERTEX, SEED);
    eprintln!(
        "bench graph: {} vertices, {} edges (generated in {:.1?})",
        g.num_vertices(),
        g.num_edges(),
        t.elapsed()
    );

    let mut results: Vec<(usize, u128)> = Vec::new();
    let mut reference: Option<(u64, usize)> = None;
    for threads in THREAD_COUNTS {
        let options = BuildOptions {
            num_landmarks: NUM_LANDMARKS,
            threads,
            ..BuildOptions::default()
        };
        let mut pool: Vec<BuildContext> = (0..threads).map(|_| BuildContext::new()).collect();
        let mut best_ns = u128::MAX;
        let mut last = None;
        for _ in 0..BUILD_REPS {
            let t = Instant::now();
            let idx = HighwayCoverIndex::build_in(&g, &options, &mut pool);
            best_ns = best_ns.min(t.elapsed().as_nanos());
            last = Some(idx);
        }
        let idx = last.expect("BUILD_REPS > 0");
        let fp = (fingerprint(&idx), idx.stats().total_label_entries);
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(
                *r, fp,
                "index built with {threads} threads diverged from the sequential build"
            ),
        }
        eprintln!(
            "build with {threads} thread(s): best of {BUILD_REPS} = {:.1} ms \
             ({} label entries)",
            best_ns as f64 / 1e6,
            idx.stats().total_label_entries
        );
        results.push((threads, best_ns));
    }

    let seq_ns = results[0].1;
    let speedup = |ns: u128| seq_ns as f64 / ns as f64;
    for &(threads, ns) in &results[1..] {
        eprintln!("speedup at {threads} threads: {:.2}x", speedup(ns));
    }

    let (_, entries) = reference.expect("at least one build ran");
    let builds: Vec<String> = results
        .iter()
        .map(|&(threads, ns)| {
            format!(
                "{{\"threads\": {threads}, \"best_ns\": {ns}, \"speedup\": {:.3}}}",
                speedup(ns)
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"pr3_parallel_build\",\n  \"available_parallelism\": {cores},\n  \
         \"graph\": {{\"family\": \
         \"barabasi_albert\", \"vertices\": {}, \"edges\": {}, \"m\": {BA_EDGES_PER_VERTEX}, \
         \"seed\": {SEED}}},\n  \"index\": {{\"landmarks\": {NUM_LANDMARKS}, \
         \"label_entries\": {entries}}},\n  \"reps\": {BUILD_REPS},\n  \"builds\": [\n    {}\n  \
         ]\n}}\n",
        g.num_vertices(),
        g.num_edges(),
        builds.join(",\n    ")
    );

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr3.json");
    std::fs::write(out_path, &json).expect("writing BENCH_pr3.json");
    eprintln!("wrote {out_path}");
}
