//! Determinism property tests for the parallel builder: every thread
//! count must produce an index whose five arrays are **identical** to the
//! sequential (`threads = 1`) build — over every testkit family and
//! multiple landmark counts, and whatever the ignored legacy batch size.
//! This is the contract that lets `hcl build --threads N` persist
//! byte-identical `.hcl` containers regardless of the machine it ran on.

use hcl_core::{testkit, GraphView, VertexId};
use hcl_index::{
    BuildContext, BuildOptions, HighwayCoverIndex, LandmarkSelector, SelectionStrategy,
};

/// Array-level equality of two built indexes (stronger than answer-level:
/// the serialised container is a function of exactly these six arrays).
fn assert_identical(name: &str, a: &HighwayCoverIndex, b: &HighwayCoverIndex) {
    let (a, b) = (a.as_view(), b.as_view());
    assert_eq!(a.landmarks(), b.landmarks(), "{name}: landmarks");
    assert_eq!(a.landmark_rank(), b.landmark_rank(), "{name}: rank table");
    assert_eq!(a.label_offsets(), b.label_offsets(), "{name}: offsets");
    assert_eq!(a.label_entries(), b.label_entries(), "{name}: entries");
    assert_eq!(a.highway(), b.highway(), "{name}: highway");
}

#[test]
fn every_thread_count_builds_the_identical_index() {
    for (name, g) in testkit::families() {
        for k in [0usize, 1, 4, 16] {
            let opts = |threads| BuildOptions {
                num_landmarks: k,
                threads,
                batch_size: 0,
                selection: None,
            };
            let sequential = HighwayCoverIndex::build_with(&g, &opts(1));
            for threads in [2usize, 4, 8] {
                let parallel = HighwayCoverIndex::build_with(&g, &opts(threads));
                assert_identical(&format!("{name} k={k} t={threads}"), &sequential, &parallel);
            }
        }
    }
}

#[test]
fn legacy_batch_size_never_changes_the_index() {
    // The builder once ran landmarks in batches and every batch size gave
    // a different labelling; trees are independent now, so every legacy
    // value at every thread count must reproduce the same arrays.
    let g = testkit::barabasi_albert(64, 3, 13);
    let opts = |threads, batch_size| BuildOptions {
        num_landmarks: 16,
        threads,
        batch_size,
        selection: None,
    };
    let reference = HighwayCoverIndex::build_with(&g, &opts(1, 0));
    for batch_size in [0usize, 1, 2, 3, 8, 64] {
        for threads in [1usize, 2, 4, 8] {
            let other = HighwayCoverIndex::build_with(&g, &opts(threads, batch_size));
            assert_identical(&format!("b={batch_size} t={threads}"), &reference, &other);
        }
    }
}

#[test]
fn build_in_reuses_contexts_across_builds() {
    // A held worker pool must serve repeated builds of different graphs
    // without state leaking between them.
    let opts = BuildOptions {
        num_landmarks: 8,
        threads: 4,
        batch_size: 0,
        selection: None,
    };
    let mut pool: Vec<BuildContext> = (0..4).map(|_| BuildContext::new()).collect();
    for seed in 0..3 {
        let g = testkit::erdos_renyi(40, 0.08, seed);
        let fresh = HighwayCoverIndex::build_with(&g, &opts);
        let reused = HighwayCoverIndex::build_in(&g, &opts, &mut pool);
        assert_identical(&format!("seed {seed}"), &fresh, &reused);
    }
}

#[test]
fn every_strategy_is_thread_count_invariant() {
    // The byte-identity guarantee must hold *per selection strategy*:
    // selection runs once, deterministically, before the tree searches,
    // so the thread count can never change which landmarks anchor the
    // index — or anything downstream of them.
    let strategies = [
        SelectionStrategy::DegreeRank,
        SelectionStrategy::ApproxCoverage { seed: 11 },
        SelectionStrategy::SeededRandom { seed: 11 },
    ];
    for (name, g) in [
        ("ba(64,3)", testkit::barabasi_albert(64, 3, 7)),
        ("er(48,0.08)", testkit::erdos_renyi(48, 0.08, 3)),
        (
            "grid⊎cycle",
            testkit::disjoint_union(&testkit::grid(3, 3), &testkit::cycle(5)),
        ),
    ] {
        for strategy in strategies {
            let opts = |threads| BuildOptions {
                num_landmarks: 8,
                threads,
                batch_size: 0,
                selection: Some(strategy),
            };
            let sequential = HighwayCoverIndex::build_with(&g, &opts(1));
            for threads in [2usize, 4, 8] {
                let parallel = HighwayCoverIndex::build_with(&g, &opts(threads));
                assert_identical(
                    &format!("{name} {strategy} t={threads}"),
                    &sequential,
                    &parallel,
                );
            }
        }
    }
}

/// A selector that panics when consulted — the "poisoned" pluggable
/// strategy case. It pins the worker-panic contract: the build must
/// surface **one coherent panic carrying the worker's payload**, not the
/// old opaque `join().expect("build worker panicked")` secondary panic.
struct PoisonedSelector;

impl LandmarkSelector for PoisonedSelector {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn select(&self, _graph: GraphView<'_>, _k: usize) -> Vec<VertexId> {
        panic!("selector poisoned on purpose")
    }
}

#[test]
fn worker_panics_reraise_as_one_coherent_build_panic() {
    let g = testkit::barabasi_albert(40, 2, 3);
    let opts = BuildOptions {
        num_landmarks: 8,
        threads: 4,
        batch_size: 0,
        selection: None,
    };
    // Quiet the panic banner for this *deliberate* panic only: a filtering
    // hook that delegates everything else to the previous hook. Installed
    // once and left in place — swapping the hook back mid-run would race
    // with concurrently failing tests in this binary and could swallow
    // their diagnostics.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !msg.is_some_and(|m| m.contains("selector poisoned on purpose")) {
            previous(info);
        }
    }));
    let mut contexts: Vec<BuildContext> = (0..4).map(|_| BuildContext::new()).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        HighwayCoverIndex::build_in_with_selector(&g, &opts, &mut contexts, &PoisonedSelector)
    }));

    let Err(payload) = result else {
        panic!("poisoned selector must fail the build");
    };
    let msg = payload
        .downcast_ref::<String>()
        .expect("re-raised build panic carries a String payload");
    assert!(
        msg.contains("index build worker panicked"),
        "missing build context in panic: {msg}"
    );
    assert!(
        msg.contains("selector poisoned on purpose"),
        "worker payload swallowed: {msg}"
    );
}

#[test]
fn parallel_output_stays_exact_against_the_oracle() {
    // Equality above ties every thread count to the sequential output;
    // this ties the parallel output itself to ground truth on a graph with
    // unreachable pairs.
    let g = testkit::disjoint_union(&testkit::barabasi_albert(40, 2, 5), &testkit::grid(4, 4));
    let idx = HighwayCoverIndex::build_with(
        &g,
        &BuildOptions {
            num_landmarks: 12,
            threads: 4,
            batch_size: 0,
            selection: None,
        },
    );
    let n = g.num_vertices() as u32;
    let mut ctx = hcl_index::QueryContext::new();
    for u in 0..n {
        let oracle = hcl_core::bfs::distances_from(&g, u);
        for v in 0..n {
            let expected = match oracle[v as usize] {
                hcl_core::INFINITY => None,
                d => Some(d),
            };
            assert_eq!(
                idx.query_with(&g, &mut ctx, u, v),
                expected,
                "parallel-built index wrong at ({u}, {v})"
            );
        }
    }
}
