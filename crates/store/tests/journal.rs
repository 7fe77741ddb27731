//! Journal-section behaviour: replay-on-open answer identity, compaction,
//! v6 containers, and journal corruption.

use hcl_core::{bfs, testkit, DeltaGraph, EdgeDelta, Graph, GraphView, VertexId};
use hcl_index::{BuildOptions, HighwayCoverIndex, LandmarkSelector, QueryContext};
use hcl_store::{
    compact_file, serialize, serialize_v6_with, serialize_with_journal, BuildInfo, IndexStore,
    StoreError, StoredJournal, Wal, FORMAT_VERSION,
};

fn build(graph: &Graph, k: usize) -> HighwayCoverIndex {
    HighwayCoverIndex::build_with(
        graph,
        &BuildOptions {
            num_landmarks: k,
            ..Default::default()
        },
    )
}

/// A deterministic mixed edit script that is effective on the given graph
/// (every delta changes it).
fn script(graph: &Graph, len: usize, seed: u64) -> Vec<EdgeDelta> {
    let mut overlay = DeltaGraph::new(graph.as_view());
    let mut rng = testkit::SplitMix64::new(seed);
    let n = graph.num_vertices() as u64;
    let mut out = Vec::new();
    while out.len() < len {
        let u = rng.next_below(n) as u32;
        let v = rng.next_below(n) as u32;
        if u == v {
            continue;
        }
        let delta = if overlay.has_edge(u, v) {
            EdgeDelta::delete(u, v)
        } else {
            EdgeDelta::insert(u, v)
        };
        assert!(overlay.apply(delta).unwrap());
        out.push(delta);
    }
    out
}

#[test]
fn journalled_open_replays_to_current_answers() {
    let base = testkit::barabasi_albert(80, 3, 11);
    let index = build(&base, 6);
    let deltas = script(&base, 10, 0xD1CE);
    let journal = StoredJournal {
        deltas: deltas.clone(),
        compactions: 0,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    let store = IndexStore::from_bytes(&bytes).unwrap();

    assert_eq!(store.meta().version, FORMAT_VERSION);
    assert_eq!(store.journal().unwrap().deltas, deltas);
    assert!(store.journal_bytes() > 0);
    // Base sections still carry the pre-edit graph; current views don't.
    assert_eq!(store.base_graph().num_edges(), base.num_edges());

    let mut overlay = DeltaGraph::new(base.as_view());
    for &d in &deltas {
        overlay.apply(d).unwrap();
    }
    let edited = overlay.to_graph();
    assert_eq!(store.graph().num_edges(), edited.num_edges());

    // Replayed answers equal ground truth on the edited graph.
    let mut ctx = QueryContext::new();
    let mut scratch = bfs::BfsScratch::new();
    for u in (0..80).step_by(3) {
        for v in (0..80).step_by(7) {
            assert_eq!(
                store.index().query_with(store.graph(), &mut ctx, u, v),
                bfs::distance_with(&edited, u, v, &mut scratch),
                "replayed answer wrong for ({u}, {v})"
            );
        }
    }
}

#[test]
fn empty_journal_serves_base_sections_directly() {
    let base = testkit::grid(5, 5);
    let index = build(&base, 3);
    let journal = StoredJournal {
        deltas: Vec::new(),
        compactions: 4,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    let store = IndexStore::from_bytes(&bytes).unwrap();
    assert_eq!(store.journal().unwrap().compactions, 4);
    assert!(store.journal().unwrap().is_empty());
    assert_eq!(store.graph().num_edges(), base.num_edges());
}

#[test]
fn plain_serialize_has_no_journal_section() {
    let base = testkit::path(6);
    let index = build(&base, 2);
    let store = IndexStore::from_bytes(&serialize(&base, &index).unwrap()).unwrap();
    assert_eq!(store.meta().version, FORMAT_VERSION);
    assert!(store.journal().is_none());
    assert_eq!(store.journal_bytes(), 0);
}

/// A v6 container written without a journal section opens with none,
/// and one written with a journal replays it like a v7 container.
#[test]
fn legacy_versions_open_without_journal() {
    let base = testkit::erdos_renyi(40, 0.15, 3);
    let index = build(&base, 4);
    let build_info = BuildInfo::default();
    let bytes = serialize_v6_with(&base, &index, build_info, None, None).unwrap();
    let store = IndexStore::from_bytes(&bytes).expect("v6 container opens");
    assert_eq!(store.meta().version, 6);
    assert!(store.journal().is_none(), "v6 should carry no journal");
    assert_eq!(store.journal_bytes(), 0);
    assert_eq!(store.graph().num_edges(), base.num_edges());

    let journal = StoredJournal {
        deltas: script(&base, 5, 0xBEE),
        compactions: 1,
    };
    let v6 = serialize_v6_with(&base, &index, build_info, None, Some(&journal)).unwrap();
    let v7 = serialize_with_journal(&base, &index, build_info, &journal).unwrap();
    let (old, new) = (
        IndexStore::from_bytes(&v6).unwrap(),
        IndexStore::from_bytes(&v7).unwrap(),
    );
    assert_eq!(old.journal(), Some(&journal));
    assert_eq!(old.graph().num_edges(), new.graph().num_edges());
    let mut ctx = QueryContext::new();
    for v in 0..40u32 {
        assert_eq!(
            old.index().query_with(old.graph(), &mut ctx, 0, v),
            new.index().query_with(new.graph(), &mut ctx, 0, v),
            "v6 and v7 replays disagree on (0, {v})"
        );
    }
}

#[test]
fn compact_folds_journal_and_preserves_answers() {
    let dir = tempdir();
    let path = dir.join("compact.hcl");
    let base = testkit::barabasi_albert(60, 3, 21);
    let index = build(&base, 5);
    let deltas = script(&base, 8, 0xC0FFEE);
    let journal = StoredJournal {
        deltas,
        compactions: 2,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    std::fs::write(&path, &bytes).unwrap();

    let before = IndexStore::open(&path).unwrap();
    let reference: Vec<Option<u32>> = {
        let mut ctx = QueryContext::new();
        (0..60u32)
            .map(|v| before.index().query_with(before.graph(), &mut ctx, 0, v))
            .collect()
    };
    let edited_edges = before.graph().num_edges();
    drop(before);

    let report = compact_file(&path).unwrap();
    assert_eq!(report.deltas_folded, 8);
    assert_eq!(report.compactions, 3);

    let after = IndexStore::open(&path).unwrap();
    assert!(after.journal().unwrap().is_empty());
    assert_eq!(after.journal().unwrap().compactions, 3);
    // The journal folded into the base sections: base == current now.
    assert_eq!(after.base_graph().num_edges(), edited_edges);
    let mut ctx = QueryContext::new();
    for v in 0..60u32 {
        assert_eq!(
            after.index().query_with(after.graph(), &mut ctx, 0, v),
            reference[v as usize],
            "answer changed across compaction for (0, {v})"
        );
    }

    // Compacting an already-clean current file is a no-op.
    let report = compact_file(&path).unwrap();
    assert_eq!(report.deltas_folded, 0);
    assert_eq!(report.compactions, 3);
}

#[test]
fn compact_upgrades_legacy_containers() {
    let dir = tempdir();
    let path = dir.join("legacy.hcl");
    let base = testkit::grid(4, 5);
    let index = build(&base, 3);
    std::fs::write(
        &path,
        serialize_v6_with(&base, &index, BuildInfo::default(), None, None).unwrap(),
    )
    .unwrap();
    let report = compact_file(&path).unwrap();
    assert_eq!(report.deltas_folded, 0);
    assert_eq!(report.compactions, 0);
    assert!(report.bytes_after < report.bytes_before, "{report:?}");
    let store = IndexStore::open(&path).unwrap();
    assert_eq!(store.meta().version, FORMAT_VERSION);
    assert!(store.journal().unwrap().is_empty());
    assert_eq!(
        store.index().label_entries(),
        index.as_view().label_entries()
    );

    // An up-to-date container is left alone.
    let again = compact_file(&path).unwrap();
    assert_eq!(again.bytes_before, again.bytes_after);
}

#[test]
fn undecodable_journal_is_a_hard_error() {
    let base = testkit::path(5);
    let index = build(&base, 2);
    let journal = StoredJournal {
        deltas: vec![EdgeDelta::insert(0, 3)],
        compactions: 0,
    };
    let mut bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    // The journal is the last section: word 0 of its payload is the format
    // tag. Stamp an unknown tag and re-checksum; the open must refuse
    // rather than serve stale base answers.
    let len = bytes.len();
    bytes[len - 5 * 8..len - 4 * 8].copy_from_slice(&99u64.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    match IndexStore::from_bytes(&bytes) {
        Err(StoreError::Corrupt { what }) => {
            assert!(what.contains("journal"), "unexpected diagnosis: {what}")
        }
        other => panic!("expected journal corruption error, got {other:?}"),
    }

    // An out-of-range delta is equally fatal.
    let bad = StoredJournal {
        deltas: vec![EdgeDelta::insert(0, 77)],
        compactions: 0,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &bad).unwrap();
    match IndexStore::from_bytes(&bytes) {
        Err(StoreError::Corrupt { what }) => {
            assert!(what.contains("delta"), "unexpected diagnosis: {what}")
        }
        other => panic!("expected delta corruption error, got {other:?}"),
    }
}

/// Selects a fixed landmark list, so a rebuild of an edited graph keeps
/// the landmarks that replay keeps.
struct Fixed(Vec<VertexId>);

impl LandmarkSelector for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn select(&self, _graph: GraphView<'_>, k: usize) -> Vec<VertexId> {
        self.0[..k].to_vec()
    }
}

/// A restart replays the delta WAL into a patch over the mapped base: the
/// store answers like a rebuild of the edited graph, its patch holds
/// exactly the vertices whose label or neighbour list differs from the
/// base, and flattening it gives the rebuild's arrays byte for byte.
#[test]
fn wal_restart_replays_into_a_minimal_patch() {
    let dir = tempdir();
    let path = dir.join("restart.hcl");
    let base = testkit::barabasi_albert(120, 3, 0x5EED);
    let index = build(&base, 6);
    hcl_store::save(&path, &base, &index).unwrap();
    let deltas = script(&base, 12, 0xFACE);
    let checksum = IndexStore::open(&path).unwrap().meta().checksum;
    let mut wal = Wal::open(&path, checksum).unwrap();
    wal.append(&deltas[..5]).unwrap();
    wal.append(&deltas[5..]).unwrap();
    drop(wal);

    let store = IndexStore::open(&path).unwrap();
    assert_eq!(store.pending_deltas(), deltas.len());
    let mut overlay = DeltaGraph::new(base.as_view());
    for &d in &deltas {
        overlay.apply(d).unwrap();
    }
    let edited = overlay.to_graph();
    let fixed = Fixed(index.as_view().landmarks().to_vec());
    let options = BuildOptions {
        num_landmarks: 6,
        ..Default::default()
    };
    let rebuilt = HighwayCoverIndex::build_in_with_selector(&edited, &options, &mut [], &fixed);

    let mut ctx = QueryContext::new();
    let mut ctx_reb = QueryContext::new();
    let mut scratch = bfs::BfsScratch::new();
    for u in 0..120 {
        for v in (0..120).step_by(5) {
            let got = store.index().query_with(store.graph(), &mut ctx, u, v);
            assert_eq!(
                got,
                rebuilt.query_with(&edited, &mut ctx_reb, u, v),
                "({u}, {v}) vs rebuild"
            );
            assert_eq!(
                got,
                bfs::distance_with(&edited, u, v, &mut scratch),
                "({u}, {v}) vs BFS"
            );
        }
    }

    let patch = store.patch().expect("pending deltas replay into a patch");
    let relabelled: Vec<VertexId> = (0..120)
        .filter(|&v| !index.label(v).eq(rebuilt.label(v)))
        .collect();
    let rewired: Vec<VertexId> = (0..120)
        .filter(|&v| base.neighbors(v) != edited.neighbors(v))
        .collect();
    assert!(!relabelled.is_empty() && !rewired.is_empty());
    assert_eq!(patch.labels.num_patched(), relabelled.len());
    assert_eq!(patch.labels.patched_vertices(), relabelled);
    assert_eq!(patch.graph.num_patched(), rewired.len());
    assert_eq!(patch.graph.patched_vertices(), rewired);
    assert_eq!(
        store.index().num_label_entries(),
        rebuilt.stats().total_label_entries
    );
    // The base sections are untouched; flattening gives the rebuild.
    assert_eq!(store.base_graph().num_edges(), base.num_edges());
    let (graph, flat) = store.to_owned_parts();
    assert_eq!(graph, edited);
    let (got, want) = (flat.as_view(), rebuilt.as_view());
    assert_eq!(got.label_offsets(), want.label_offsets());
    assert_eq!(got.label_entries(), want.label_entries());
    assert_eq!(got.highway(), want.highway());
}

/// Minimal per-test temp dir (no external tempfile dependency).
fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hcl-journal-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
