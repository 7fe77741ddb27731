//! Concurrency of patched generations: reader threads query through a
//! [`GenerationHandle`] while a writer repairs edge deltas into a patch
//! and publishes each committed state as a new generation over the one
//! shared base (`IndexStore::with_patch`). Every answer a reader gets must
//! equal the answer of the generation it read, checked against a rebuild
//! of that generation's graph. The sanitizer CI job runs this suite under
//! ThreadSanitizer.

use hcl_core::{testkit, DeltaGraph, EdgeDelta, Graph, GraphView, VertexId};
use hcl_index::{BuildContext, BuildOptions, HighwayCoverIndex, LandmarkSelector, QueryContext};
use hcl_store::{GenerationHandle, IndexStore, Patch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N: usize = 150;
const K: usize = 6;
const STEPS: usize = 12;

struct Fixed(Vec<VertexId>);

impl LandmarkSelector for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn select(&self, _graph: GraphView<'_>, k: usize) -> Vec<VertexId> {
        self.0[..k].to_vec()
    }
}

/// Effective deltas on `graph`: inserts of non-edges far apart, and
/// deletes of existing edges, alternating.
fn script(graph: &Graph) -> Vec<EdgeDelta> {
    let mut overlay = DeltaGraph::new(graph.as_view());
    let mut rng = testkit::SplitMix64::new(0x6E4E);
    let mut out = Vec::new();
    while out.len() < STEPS {
        let u = rng.next_below(N as u64) as VertexId;
        let v = rng.next_below(N as u64) as VertexId;
        if u == v {
            continue;
        }
        let delta = if overlay.has_edge(u, v) {
            EdgeDelta::delete(u, v)
        } else {
            EdgeDelta::insert(u, v)
        };
        overlay.apply(delta).unwrap();
        out.push(delta);
    }
    out
}

#[test]
fn readers_see_exactly_the_published_patched_generations() {
    let graph = testkit::barabasi_albert(N, 3, 0xC0C0);
    let options = BuildOptions {
        num_landmarks: K,
        threads: 1,
        ..Default::default()
    };
    let index = HighwayCoverIndex::build_with(&graph, &options);
    let fixed = Fixed(index.as_view().landmarks().to_vec());
    let deltas = script(&graph);
    let mut rng = testkit::SplitMix64::new(0x9A17);
    let pairs: Vec<(VertexId, VertexId)> = (0..40)
        .map(|_| {
            (
                rng.next_below(N as u64) as VertexId,
                rng.next_below(N as u64) as VertexId,
            )
        })
        .collect();

    // Expected answers of generation g (1-based): the base, then the base
    // with the first g − 1 deltas, each from a fresh rebuild.
    let mut expected = Vec::with_capacity(STEPS + 1);
    let mut overlay = DeltaGraph::new(graph.as_view());
    let mut ctx = QueryContext::new();
    for step in 0..=STEPS {
        if step > 0 {
            overlay.apply(deltas[step - 1]).unwrap();
        }
        let edited = overlay.to_graph();
        let rebuilt = HighwayCoverIndex::build_in_with_selector(&edited, &options, &mut [], &fixed);
        let answers: Vec<Option<u32>> = pairs
            .iter()
            .map(|&(u, v)| rebuilt.query_with(&edited, &mut ctx, u, v))
            .collect();
        expected.push(answers);
    }
    let expected = Arc::new(expected);
    let pairs = Arc::new(pairs);

    let base = IndexStore::from_owned(&graph, &index).unwrap();
    let handle = Arc::new(GenerationHandle::new(
        base.with_patch(Arc::new(Patch::new())),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let (handle, stop) = (Arc::clone(&handle), Arc::clone(&stop));
            let (expected, pairs) = (Arc::clone(&expected), Arc::clone(&pairs));
            std::thread::spawn(move || {
                let mut ctx = QueryContext::new();
                let mut checked = 0usize;
                let mut i = r;
                loop {
                    // One last full pass after the writer stops, so the
                    // final generation is always checked.
                    let last = stop.load(Ordering::Acquire);
                    let gen = handle.current();
                    let want = &expected[gen.number as usize - 1];
                    let (graph, index) = (gen.store.graph(), gen.store.index());
                    for _ in 0..pairs.len() {
                        i = (i + 1) % pairs.len();
                        let (u, v) = pairs[i];
                        assert_eq!(
                            index.query_with(graph, &mut ctx, u, v),
                            want[i],
                            "generation {} answered ({u}, {v}) unlike its rebuild",
                            gen.number
                        );
                        checked += 1;
                    }
                    if last {
                        return checked;
                    }
                }
            })
        })
        .collect();

    let mut patch = Patch::new();
    let mut cx = BuildContext::new();
    for &delta in &deltas {
        let adjacency = std::mem::take(&mut patch.graph);
        let mut overlay = DeltaGraph::with_patch(base.base_graph(), adjacency);
        let outcome = hcl_index::repair(
            base.base_index(),
            &mut patch.labels,
            &mut overlay,
            delta,
            &mut cx,
        )
        .unwrap();
        assert!(outcome.applied);
        patch.graph = overlay.into_patch();
        handle.swap(base.with_patch(Arc::new(patch.clone())));
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().expect("reader panicked") >= pairs.len());
    }
    assert_eq!(handle.number() as usize, STEPS + 1);
    // The base bytes are shared by every generation and never rewritten.
    let current = handle.current();
    assert_eq!(current.store.base_graph().num_edges(), graph.num_edges());
    current.store.verify_checksum().unwrap();
}
