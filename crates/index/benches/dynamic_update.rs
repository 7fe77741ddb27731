//! PR 10 benchmark: incremental label repair vs. full rebuild, written
//! to `BENCH_pr10.json` at the repo root.
//!
//! The dynamic-graphs PR claims that an edge insert can be absorbed by
//! stripping and re-growing only the **affected landmark trees** instead
//! of rebuilding the labelling from scratch. This bench quantifies that
//! on a Barabási–Albert graph (100k vertices at full scale):
//!
//! 1. For each edit-batch size, apply the batch of inserts through
//!    [`DynamicIndex::apply_and_repair`] and record the per-delta repair
//!    latency and how many landmark trees each delta touched.
//! 2. Rebuild the index from scratch on the edited graph and record the
//!    rebuild time — the cost the repair path avoids.
//! 3. **Answer identity**: the repaired and rebuilt indexes answer an
//!    identical random workload, compared entry for entry and recorded
//!    as a checksum in the JSON. A repair that drifted from the rebuild
//!    oracle fails the bench, not just the number.
//! 4. One edge **delete** is timed for context: deletes repair only the
//!    trees they affect, like inserts (see `index/src/repair.rs`); the
//!    JSON records whether that happened to be every tree.
//!
//! `HCL_BENCH_SCALE=small` shrinks the graph and workload for CI smoke
//! runs (the JSON is then labelled accordingly).

use hcl_core::{testkit, DeltaGraph, EdgeDelta, Graph, VertexId};
use hcl_index::{BuildContext, BuildOptions, DynamicIndex, HighwayCoverIndex, QueryContext};
use std::time::Instant;

const SEED: u64 = 0xD15C;
const LANDMARKS: usize = 32;

fn build(graph: &Graph) -> HighwayCoverIndex {
    HighwayCoverIndex::build_with(
        graph,
        &BuildOptions {
            num_landmarks: LANDMARKS,
            ..Default::default()
        },
    )
}

fn answers(
    graph: &Graph,
    index: &HighwayCoverIndex,
    pairs: &[(VertexId, VertexId)],
) -> Vec<Option<u32>> {
    let (gv, iv) = (graph.as_view(), index.as_view());
    let mut ctx = QueryContext::new();
    pairs
        .iter()
        .map(|&(u, v)| iv.query_with(gv, &mut ctx, u, v))
        .collect()
}

fn checksum(answers: &[Option<u32>]) -> u64 {
    answers.iter().fold(0u64, |acc, a| {
        acc.wrapping_mul(0x100000001b3)
            .wrapping_add(a.map_or(u64::MAX, |d| d as u64))
    })
}

/// `count` random non-adjacent pairs of the evolving graph, applied
/// nowhere yet — the insert scripts.
fn pick_non_edges(graph: &Graph, count: usize, rng: &mut testkit::SplitMix64) -> Vec<(u32, u32)> {
    let n = graph.num_vertices() as u64;
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let a = rng.next_below(n) as u32;
        let b = rng.next_below(n) as u32;
        let (u, v) = (a.min(b), a.max(b));
        if u == v || graph.as_view().neighbors(u).contains(&v) || picked.contains(&(u, v)) {
            continue;
        }
        picked.push((u, v));
    }
    picked
}

fn main() {
    let small = std::env::var("HCL_BENCH_SCALE").is_ok_and(|s| s == "small");
    let (num_vertices, num_queries, batches): (usize, usize, &[usize]) = if small {
        (3_000, 2_000, &[1, 4, 16])
    } else {
        (100_000, 10_000, &[1, 10, 100])
    };

    let base = testkit::barabasi_albert(num_vertices, 5, SEED);
    eprintln!(
        "bench graph: BA({num_vertices}, 5), {} edges{}",
        base.num_edges(),
        if small { " [small scale]" } else { "" }
    );

    let t = Instant::now();
    let base_index = build(&base);
    let base_build_ns = t.elapsed().as_nanos();
    eprintln!("base build: {LANDMARKS} landmarks in {:.2?}", t.elapsed());

    let mut rng = testkit::SplitMix64::new(SEED ^ 0xF00D);
    let pairs: Vec<(VertexId, VertexId)> = (0..num_queries)
        .map(|_| {
            (
                rng.next_below(num_vertices as u64) as VertexId,
                rng.next_below(num_vertices as u64) as VertexId,
            )
        })
        .collect();

    let mut cx = BuildContext::new();
    let mut rows = String::new();
    let mut last_state: Option<(Graph, DynamicIndex)> = None;
    for (i, &batch) in batches.iter().enumerate() {
        // Restart each batch from the pristine base so batch sizes are
        // comparable (every run edits the same starting labelling).
        let mut current = base.clone();
        let mut dynamic = DynamicIndex::from_view(base_index.as_view());
        let script = pick_non_edges(&current, batch, &mut rng);

        let mut trees = 0usize;
        let t = Instant::now();
        for &(u, v) in &script {
            let mut overlay = DeltaGraph::new(current.as_view());
            let outcome = dynamic
                .apply_and_repair(&mut overlay, EdgeDelta::insert(u, v), &mut cx)
                .expect("bench delta must be valid");
            assert!(outcome.applied, "picked non-edge was already present");
            trees += outcome.affected_landmarks;
            current = overlay.to_graph();
        }
        let repair_ns = t.elapsed().as_nanos();
        let repaired = dynamic.to_index();

        let t = Instant::now();
        let rebuilt = build(&current);
        let rebuild_ns = t.elapsed().as_nanos();

        let repaired_answers = answers(&current, &repaired, &pairs);
        let rebuilt_answers = answers(&current, &rebuilt, &pairs);
        assert_eq!(
            repaired_answers, rebuilt_answers,
            "repaired index disagrees with a fresh rebuild at batch size {batch}"
        );
        let cs = checksum(&repaired_answers);

        let per_delta_ns = repair_ns as f64 / batch as f64;
        let speedup = rebuild_ns as f64 / per_delta_ns;
        eprintln!(
            "batch {batch:>4}: {per_delta_ns:>12.0} ns/insert ({:.1} trees/insert), \
             rebuild {rebuild_ns} ns, speedup {speedup:.1}x, checksum {cs}",
            trees as f64 / batch as f64
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"batch\": {batch}, \"insert_mean_ns\": {per_delta_ns:.1}, \
             \"trees_per_insert\": {:.2}, \"rebuild_ns\": {rebuild_ns}, \
             \"speedup_vs_rebuild\": {speedup:.2}, \"answers_identical\": true, \
             \"answers_checksum\": {cs}}}",
            trees as f64 / batch as f64
        ));
        last_state = Some((current, dynamic));
    }

    // One delete for context: an edge of the highest-degree vertex, which
    // sits on many landmarks' shortest-path DAGs.
    let (mut current, mut dynamic) = last_state.expect("at least one batch ran");
    let last_edge = {
        let u = (0..current.num_vertices() as u32)
            .max_by_key(|&u| current.as_view().neighbors(u).len())
            .expect("non-empty graph");
        let v = current.as_view().neighbors(u)[0];
        (u, v)
    };
    let t = Instant::now();
    let outcome = {
        let mut overlay = DeltaGraph::new(current.as_view());
        let outcome = dynamic
            .apply_and_repair(
                &mut overlay,
                EdgeDelta::delete(last_edge.0, last_edge.1),
                &mut cx,
            )
            .expect("delete of an existing edge is valid");
        current = overlay.to_graph();
        outcome
    };
    let delete_ns = t.elapsed().as_nanos();
    assert!(outcome.applied);
    let deleted_repaired = dynamic.to_index();
    let t = Instant::now();
    let deleted_rebuilt = build(&current);
    let delete_rebuild_ns = t.elapsed().as_nanos();
    let del_repaired = answers(&current, &deleted_repaired, &pairs);
    assert_eq!(
        del_repaired,
        answers(&current, &deleted_rebuilt, &pairs),
        "delete-repaired index disagrees with a fresh rebuild"
    );
    eprintln!(
        "delete: {delete_ns} ns (full_relabel={}), rebuild {delete_rebuild_ns} ns",
        outcome.full_relabel
    );

    let json = format!(
        "{{\n  \"bench\": \"pr10_dynamic_update\",\n  \"scale\": \"{}\",\n  \
         \"graph\": {{\"family\": \"barabasi_albert\", \"vertices\": {num_vertices}, \
         \"edges\": {}, \"m\": 5, \"seed\": {SEED}}},\n  \
         \"index\": {{\"landmarks\": {LANDMARKS}}},\n  \
         \"workload\": {{\"queries\": {num_queries}}},\n  \
         \"base_build_ns\": {base_build_ns},\n  \
         \"insert_batches\": [\n{rows}\n  ],\n  \
         \"delete\": {{\"repair_ns\": {delete_ns}, \"full_relabel\": {}, \
         \"rebuild_ns\": {delete_rebuild_ns}, \"answers_identical\": true, \
         \"answers_checksum\": {}}}\n}}\n",
        if small { "small" } else { "full" },
        base.num_edges(),
        outcome.full_relabel,
        checksum(&del_repaired),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
    std::fs::write(out_path, &json).expect("writing BENCH_pr10.json");
    eprintln!("wrote {out_path}");
}
