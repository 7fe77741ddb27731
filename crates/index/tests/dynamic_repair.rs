//! Property suite for incremental label repair: seeded random edit
//! scripts (mixed insert/delete) over the eleven graph families, asserting
//! after **every** step that the repaired index is byte-identical to a
//! fresh build of the edited graph over the same landmark set — offsets,
//! entries and highway — and answers like the BFS oracle on a sampled pair
//! set, at 1 and 4 build threads. The patches are checked for minimality
//! at every step too: the label patch holds exactly the vertices whose
//! rebuilt label differs from the base, the adjacency patch exactly the
//! vertices whose neighbour list does, and an edit undone empties both.

use hcl_core::testkit::{families, SplitMix64};
use hcl_core::{bfs, DeltaGraph, EdgeDelta, GraphView, VertexId};
use hcl_index::repair::DynamicIndex;
use hcl_index::{BuildContext, BuildOptions, HighwayCoverIndex, LandmarkSelector, QueryContext};

const SCRIPT_LEN: usize = 24;

/// Selects a fixed landmark list, so a rebuild of the edited graph keeps
/// the landmarks repair keeps (degree ranking would drift with the edits).
struct Fixed(Vec<VertexId>);

impl LandmarkSelector for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn select(&self, _graph: GraphView<'_>, k: usize) -> Vec<VertexId> {
        self.0[..k].to_vec()
    }
}

/// Drives one seeded edit script over one family and checks byte and
/// answer identity after every effective step.
fn run_script(name: &str, base: &hcl_core::Graph, threads: usize, k: usize, seed: u64) {
    let n = base.num_vertices();
    if n < 2 {
        return; // no representable edge edits
    }
    let options = BuildOptions {
        num_landmarks: k.min(n),
        threads,
        ..Default::default()
    };
    let built = HighwayCoverIndex::build_with(base, &options);
    let fixed = Fixed(built.as_view().landmarks().to_vec());
    let mut pool: Vec<BuildContext> = (0..threads).map(|_| BuildContext::new()).collect();
    let mut dynamic = DynamicIndex::from_view(built.as_view());
    let mut graph = DeltaGraph::new(base.as_view());
    let mut cx = BuildContext::new();
    let mut rng = SplitMix64::new(seed);

    for step in 0..SCRIPT_LEN {
        let u = rng.next_below(n as u64) as u32;
        let v = rng.next_below(n as u64) as u32;
        if u == v {
            continue;
        }
        let delta = if graph.has_edge(u, v) {
            EdgeDelta::delete(u, v)
        } else {
            EdgeDelta::insert(u, v)
        };
        let outcome = dynamic
            .apply_and_repair(&mut graph, delta, &mut cx)
            .unwrap_or_else(|e| panic!("[{name}] step {step}: {delta} rejected: {e}"));
        assert!(outcome.applied, "[{name}] step {step}: {delta} was a no-op");

        let edited = graph.to_graph();
        let rebuilt =
            HighwayCoverIndex::build_in_with_selector(&edited, &options, &mut pool, &fixed);
        let repaired = dynamic.to_index();
        let (rep, reb) = (repaired.as_view(), rebuilt.as_view());
        let at = format!("[{name}] k={k} step {step} ({delta}, threads {threads})");
        assert_eq!(rep.landmarks(), reb.landmarks(), "{at}: landmarks");
        assert_eq!(rep.label_offsets(), reb.label_offsets(), "{at}: offsets");
        assert_eq!(rep.label_entries(), reb.label_entries(), "{at}: entries");
        assert_eq!(rep.highway(), reb.highway(), "{at}: highway");
        assert_patches_minimal(base, &built, &graph, &dynamic, &edited, &rebuilt, &at);
        let mut cx_rep = QueryContext::new();
        let mut cx_patched = QueryContext::new();
        let mut cx_reb = QueryContext::new();
        let mut oracle_scratch = bfs::BfsScratch::new();
        let mut pair_rng = SplitMix64::new(seed ^ (step as u64).wrapping_mul(0x9e37));
        let all_pairs = n <= 40;
        let checks = if all_pairs { n * n } else { 300 };
        for c in 0..checks {
            let (a, b) = if all_pairs {
                ((c / n) as u32, (c % n) as u32)
            } else {
                (
                    pair_rng.next_below(n as u64) as u32,
                    pair_rng.next_below(n as u64) as u32,
                )
            };
            let got = repaired.as_view().query_with(&edited, &mut cx_rep, a, b);
            let want = rebuilt.as_view().query_with(&edited, &mut cx_reb, a, b);
            assert_eq!(
                got, want,
                "{at}: repaired vs rebuilt diverged on ({a}, {b})"
            );
            // The patched path (base + patches, nothing flattened) too.
            let patched = dynamic
                .view()
                .query_with(graph.as_dyn_view(), &mut cx_patched, a, b);
            assert_eq!(patched, want, "{at}: patched query diverged on ({a}, {b})");
            // Spot-check against ground truth too, so a bug shared by
            // repair and rebuild cannot slip through as "identical".
            if c % 7 == 0 {
                let truth = bfs::distance_with(&edited, a, b, &mut oracle_scratch);
                assert_eq!(
                    got, truth,
                    "{at}: repaired answer wrong vs oracle on ({a}, {b})"
                );
            }
        }
    }
}

/// The patch-minimality oracle: the label patch holds exactly the
/// vertices whose rebuilt label differs from the base's, and the
/// adjacency patch exactly those whose neighbour list differs.
fn assert_patches_minimal(
    base: &hcl_core::Graph,
    built: &HighwayCoverIndex,
    graph: &DeltaGraph<'_>,
    dynamic: &DynamicIndex,
    edited: &hcl_core::Graph,
    rebuilt: &HighwayCoverIndex,
    at: &str,
) {
    let n = base.num_vertices() as VertexId;
    let relabelled: Vec<VertexId> = (0..n)
        .filter(|&v| !built.label(v).eq(rebuilt.label(v)))
        .collect();
    assert_eq!(
        dynamic.patch().patched_vertices(),
        relabelled,
        "{at}: label patch is not the set of relabelled vertices"
    );
    let rewired: Vec<VertexId> = (0..n)
        .filter(|&v| base.neighbors(v) != edited.neighbors(v))
        .collect();
    assert_eq!(
        graph.patch().patched_vertices(),
        rewired,
        "{at}: adjacency patch is not the set of rewired vertices"
    );
    assert_eq!(
        dynamic.patch().has_highway(),
        built.as_view().highway() != rebuilt.as_view().highway(),
        "{at}: highway copy held iff the highway changed"
    );
}

/// An edge inserted and deleted again (or deleted and re-inserted)
/// leaves both patches empty, at k ∈ {4, 8} and 1 and 4 build threads.
#[test]
fn undone_edits_leave_both_patches_empty() {
    for threads in [1, 4] {
        for (name, base) in families() {
            let n = base.num_vertices() as VertexId;
            if n < 3 {
                continue;
            }
            for k in [4, 8] {
                let options = BuildOptions {
                    num_landmarks: k.min(n as usize),
                    threads,
                    ..Default::default()
                };
                let built = HighwayCoverIndex::build_with(&base, &options);
                let mut dynamic = DynamicIndex::from_view(built.as_view());
                let mut graph = DeltaGraph::new(base.as_view());
                let mut cx = BuildContext::new();
                let mut rng = SplitMix64::new(0x0DD5 ^ u64::from(n) ^ k as u64);
                for _ in 0..6 {
                    let u = rng.next_below(u64::from(n)) as VertexId;
                    let v = (u + 1 + rng.next_below(u64::from(n) - 1) as VertexId) % n;
                    let (first, undo) = if graph.has_edge(u, v) {
                        (EdgeDelta::delete(u, v), EdgeDelta::insert(u, v))
                    } else {
                        (EdgeDelta::insert(u, v), EdgeDelta::delete(u, v))
                    };
                    for delta in [first, undo] {
                        let outcome = dynamic.apply_and_repair(&mut graph, delta, &mut cx);
                        assert!(outcome.unwrap().applied, "[{name}] {delta}");
                    }
                    let at = format!("[{name}] k={k} threads {threads} ({first} undone)");
                    assert!(graph.patch().is_empty(), "{at}: adjacency patch left");
                    assert!(dynamic.patch().is_empty(), "{at}: label patch left");
                    let flat = dynamic.to_index();
                    assert_eq!(
                        flat.as_view().label_entries(),
                        built.as_view().label_entries(),
                        "{at}: entries"
                    );
                }
            }
        }
    }
}

#[test]
fn edit_scripts_match_rebuild_over_all_families_single_thread() {
    for (name, graph) in families() {
        for k in [4, 8] {
            run_script(
                &name,
                &graph,
                1,
                k,
                0xA11C_E5ED ^ graph.num_vertices() as u64,
            );
        }
    }
}

#[test]
fn edit_scripts_match_rebuild_over_all_families_four_threads() {
    for (name, graph) in families() {
        for k in [4, 8] {
            run_script(
                &name,
                &graph,
                4,
                k,
                0xB0B5_1ED5 ^ graph.num_vertices() as u64,
            );
        }
    }
}

#[test]
fn deltas_never_mutate_the_base_graph() {
    let base = hcl_core::testkit::barabasi_albert(60, 3, 7);
    let before: Vec<Vec<u32>> = (0..60).map(|v| base.neighbors(v).to_vec()).collect();
    let mut graph = DeltaGraph::new(base.as_view());
    let mut rng = SplitMix64::new(99);
    for _ in 0..40 {
        let u = rng.next_below(60) as u32;
        let v = rng.next_below(60) as u32;
        if u == v {
            continue;
        }
        let delta = if graph.has_edge(u, v) {
            EdgeDelta::delete(u, v)
        } else {
            EdgeDelta::insert(u, v)
        };
        graph.apply(delta).unwrap();
    }
    for v in 0..60 {
        assert_eq!(base.neighbors(v), &before[v as usize][..]);
    }
}

/// Repair keeps the entry width a pure function of the labels: on a
/// cycle of 100,000 vertices with one landmark the farthest label is
/// 50,000 hops out (narrow words), and deleting an edge at the landmark
/// pushes its neighbour 99,999 hops away, so the repaired index must turn
/// wide — and still equal a fresh rebuild byte for byte.
#[test]
#[cfg_attr(miri, ignore)]
fn deep_repair_turns_the_index_wide_like_a_rebuild() {
    const N: u32 = 100_000;
    let base = hcl_core::testkit::cycle(N as usize);
    let options = BuildOptions {
        num_landmarks: 1,
        threads: 1,
        ..Default::default()
    };
    let fixed = Fixed(vec![0]);
    let built = HighwayCoverIndex::build_in_with_selector(&base, &options, &mut [], &fixed);
    assert_eq!(built.as_view().label_entries().word_bytes(), 4);
    assert_eq!(built.label(N / 2).collect::<Vec<_>>(), vec![(0, N / 2)]);

    let mut dynamic = DynamicIndex::from_view(built.as_view());
    let mut graph = DeltaGraph::new(base.as_view());
    let outcome = dynamic
        .apply_and_repair(
            &mut graph,
            EdgeDelta::delete(0, 1),
            &mut BuildContext::new(),
        )
        .expect("delete applies");
    assert_eq!(outcome.affected_landmarks, 1);

    let edited = graph.to_graph();
    let repaired = dynamic.to_index();
    let rebuilt = HighwayCoverIndex::build_in_with_selector(&edited, &options, &mut [], &fixed);
    let (rep, reb) = (repaired.as_view(), rebuilt.as_view());
    assert_eq!(
        rep.label_entries().word_bytes(),
        8,
        "repaired index is wide"
    );
    assert_eq!(rep.label_offsets(), reb.label_offsets(), "offsets");
    assert_eq!(rep.label_entries(), reb.label_entries(), "entries");
    assert_eq!(rep.highway(), reb.highway(), "highway");
    assert_eq!(repaired.label(1).collect::<Vec<_>>(), vec![(0, N - 1)]);
    let mut cx = QueryContext::new();
    for (u, v) in [(0, 1), (1, 0), (1, 2), (50_000, 1), (N - 1, 1)] {
        assert_eq!(
            rep.query_with(&edited, &mut cx, u, v),
            bfs::distance(&edited, u, v),
            "({u}, {v})"
        );
    }
}
