//! The traced run's in-process layer measurements: each calls the public
//! functions of one library crate on the workload's own inputs.
//!
//! [`replica`] repeats, call for call, what `UpdateEngine` in
//! `crates/cli/src/update.rs` does for a one-delta `POST /update`:
//! `apply_and_repair` → `DeltaGraph::to_graph` → `save_with_journal` →
//! `to_index` → `serialize_with_journal` → `IndexStore::from_bytes_trusted`
//! → `GenerationHandle::swap`. It must change when that order changes,
//! or `serve.update_other_ms` stops meaning "ack time not covered".

use crate::stats::{median, quantile, sorted};
use crate::trace::Trace;
use hcl_core::{bfs, DeltaGraph, DeltaOp, EdgeDelta, Graph};
use hcl_index::repair::DynamicIndex;
use hcl_index::{AnswerSource, BuildContext, HighwayCoverIndex, QueryContext, QueryStats};
use hcl_store::{BuildInfo, GenerationHandle, IndexStore, StoredJournal};
use std::path::Path;
use std::time::Instant;

/// Named per-layer values, in output order.
pub type Values = Vec<(&'static str, f64)>;

/// `core.bfs_full_ms`: median full BFS from a few fixed sources.
pub fn core_bfs(trace: &mut Trace, graph: &Graph, sources: &[u32]) -> Values {
    let ms: Vec<f64> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let (dist, ms) = trace.time("core.bfs_full", i as u64, None, || {
                bfs::distances_from(graph, s)
            });
            std::hint::black_box(dist);
            ms
        })
        .collect();
    vec![("core.bfs_full_ms", median(&ms))]
}

/// Query-engine latency and answer mechanism over the workload's pairs.
pub fn query_engine(
    trace: &mut Trace,
    graph: &Graph,
    index: &HighwayCoverIndex,
    pairs: &[(u32, u32)],
) -> Values {
    let mut ctx = QueryContext::new();
    let span = trace.begin("index.query_pairs", 0, None);
    let mut us = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs {
        let t = Instant::now();
        std::hint::black_box(index.query_with(graph, &mut ctx, u, v));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    trace.end(span);
    let us = sorted(&us);

    let span = trace.begin("index.query_probed", 0, None);
    let mut stats = QueryStats::new();
    let (mut label, mut highway, mut residual) = (0usize, 0usize, 0usize);
    let (mut bfs_nodes, mut hub_entries) = (0u64, 0u64);
    for &(u, v) in pairs {
        index.query_probed(graph, &mut ctx, u, v, &mut stats);
        match stats.source {
            AnswerSource::LabelHit => label += 1,
            AnswerSource::HighwayBound => highway += 1,
            AnswerSource::ResidualBfs => residual += 1,
            AnswerSource::Trivial | AnswerSource::Disconnected => {}
        }
        bfs_nodes += stats.bfs_nodes_expanded;
        hub_entries += stats.hub_entries_scanned;
    }
    trace.end(span);
    let n = pairs.len() as f64;
    vec![
        ("index.query_us_p50", quantile(&us, 0.5)),
        ("index.query_us_p99", quantile(&us, 0.99)),
        ("index.share_label_hit", label as f64 / n),
        ("index.share_highway", highway as f64 / n),
        ("index.share_residual_bfs", residual as f64 / n),
        ("index.bfs_nodes_per_query", bfs_nodes as f64 / n),
        ("index.hub_entries_per_query", hub_entries as f64 / n),
    ]
}

/// `store.open_ms` (validated open of a fresh container) and
/// `store.crc_ms` (its whole-file checksum pass), medians of `repeats`.
pub fn store_open(trace: &mut Trace, path: &Path, repeats: usize) -> Result<Values, String> {
    let mut open_ms = Vec::new();
    let mut crc_ms = Vec::new();
    for i in 0..repeats {
        let (store, ms) = trace.time("store.open", i as u64, None, || IndexStore::open(path));
        let store = store.map_err(|e| format!("opening {}: {e}", path.display()))?;
        open_ms.push(ms);
        let (ok, ms) = trace.time("store.crc", i as u64, None, || store.verify_checksum());
        ok.map_err(|e| format!("checksum of {}: {e}", path.display()))?;
        crc_ms.push(ms);
    }
    Ok(vec![
        ("store.open_ms", median(&open_ms)),
        ("store.crc_ms", median(&crc_ms)),
    ])
}

/// What the replica measured, beyond its per-layer values.
pub struct Replica {
    /// Per-layer values.
    pub values: Values,
    /// Sum of the replica's spans for each insert, in ms.
    pub insert_span_sum_ms: Vec<f64>,
}

/// Replays `deltas` through the `UpdateEngine` call sequence, starting
/// from the freshly built `graph`/`index` and persisting to `path`.
pub fn replica(
    trace: &mut Trace,
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    deltas: &[EdgeDelta],
    path: &Path,
) -> Result<Replica, String> {
    let fresh = hcl_store::serialize_with_journal(graph, index, build, &StoredJournal::default())
        .map_err(|e| format!("serialising: {e}"))?;
    let handle = GenerationHandle::new(
        IndexStore::from_bytes_trusted(&fresh).map_err(|e| format!("re-opening: {e}"))?,
    );
    let mut live = graph.clone();
    let mut dynamic = DynamicIndex::from_view(index.as_view());
    let mut cx = BuildContext::new();
    let mut journal = StoredJournal::default();

    let (mut repair_ins, mut repair_del, mut trees_ins) = (vec![], vec![], vec![]);
    let (mut materialise, mut flatten, mut save, mut ser, mut reparse, mut swap_us) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut save_bytes = 0u64;
    let mut full_relabels = 0usize;
    let mut insert_span_sum_ms = vec![];
    for (i, &delta) in deltas.iter().enumerate() {
        let id = i as u64;
        let parent = trace.begin("replica.delta", id, None);
        let mut overlay = DeltaGraph::new(live.as_view());
        let (outcome, repair_ms) = trace.time("index.repair", id, parent, || {
            dynamic.apply_and_repair(&mut overlay, delta, &mut cx)
        });
        let outcome = outcome.map_err(|e| format!("applying {delta}: {e}"))?;
        if !outcome.applied {
            return Err(format!("delta {delta} did not apply"));
        }
        let (next, to_graph_ms) = trace.time("core.to_graph", id, parent, || overlay.to_graph());
        live = next;
        journal.deltas.push(delta);
        let (written, save_ms) = trace.time("store.save", id, parent, || {
            hcl_store::save_with_journal(path, graph, index, build, &journal)
        });
        save_bytes = written.map_err(|e| format!("saving {}: {e}", path.display()))?;
        let (live_index, flatten_ms) =
            trace.time("index.flatten", id, parent, || dynamic.to_index());
        let empty = StoredJournal::default();
        let (bytes, ser_ms) = trace.time("store.serialize", id, parent, || {
            hcl_store::serialize_with_journal(&live, &live_index, build, &empty)
        });
        let bytes = bytes.map_err(|e| format!("serialising: {e}"))?;
        let (store, reparse_ms) = trace.time("store.reparse", id, parent, || {
            IndexStore::from_bytes_trusted(&bytes)
        });
        let store = store.map_err(|e| format!("re-opening: {e}"))?;
        let (_, swap_ms) = trace.time("store.swap", id, parent, || handle.swap(store));
        trace.end(parent);

        let sum = repair_ms + to_graph_ms + save_ms + flatten_ms + ser_ms + reparse_ms + swap_ms;
        match delta.op {
            DeltaOp::Insert => {
                repair_ins.push(repair_ms);
                trees_ins.push(outcome.affected_landmarks as f64);
                insert_span_sum_ms.push(sum);
            }
            DeltaOp::Delete => repair_del.push(repair_ms),
        }
        full_relabels += usize::from(outcome.full_relabel);
        materialise.push(to_graph_ms);
        flatten.push(flatten_ms);
        save.push(save_ms);
        ser.push(ser_ms);
        reparse.push(reparse_ms);
        swap_us.push(swap_ms * 1e3);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Ok(Replica {
        values: vec![
            ("core.delta_materialise_ms", median(&materialise)),
            ("index.repair_insert_ms_p50", median(&repair_ins)),
            ("index.repair_delete_ms_p50", median(&repair_del)),
            ("index.trees_per_insert", mean(&trees_ins)),
            (
                "index.full_relabel_frac",
                full_relabels as f64 / deltas.len() as f64,
            ),
            ("index.flatten_ms", median(&flatten)),
            ("store.save_ms", median(&save)),
            ("store.save_bytes", save_bytes as f64),
            ("store.serialize_ms", median(&ser)),
            ("store.reparse_ms", median(&reparse)),
            ("store.swap_us", median(&swap_us)),
        ],
        insert_span_sum_ms,
    })
}
