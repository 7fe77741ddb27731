//! Scoped-thread landmark sharding for the build.
//!
//! Rayon-free by design (no third-party dependencies): one
//! `std::thread::scope` with one worker per [`BuildContext`], workers
//! pulling landmark ranks from a shared atomic cursor — cheap dynamic load
//! balancing, since a tree's cost varies by landmark. Workers return their
//! trees through the join handles; the builder sorts them by rank, so the
//! result is byte-identical at every thread count regardless of how the OS
//! schedules workers.

use super::tree::{label_tree, LandmarkTree};
use super::BuildContext;
use crate::select::{checked_select, LandmarkSelector};
use hcl_core::{GraphView, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;

/// Joins every handle, collecting the results; if any worker panicked,
/// re-raises **after all workers are joined** as one coherent build panic.
///
/// Without this, a panicking worker used to surface as the driver's own
/// `expect("build worker panicked")` — an opaque secondary panic that
/// swallowed the worker's actual payload. String-ish payloads (the
/// overwhelmingly common case: `panic!`, assertion failures, slice-index
/// messages) are wrapped with build context; anything else is re-raised
/// verbatim via `resume_unwind` so custom payloads still reach the caller.
/// When several workers panic, the first (by spawn order)
/// wins — one build failure, one report.
fn join_workers<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
    for handle in handles {
        match handle.join() {
            Ok(value) => out.push(value),
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panicked {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        match msg {
            Some(msg) => panic!("index build worker panicked: {msg}"),
            None => std::panic::resume_unwind(payload),
        }
    }
    out
}

/// Runs landmark selection on a scoped worker thread, under the same
/// [`join_workers`] capture-and-re-raise discipline as the tree
/// searches.
///
/// Selection strategies are *pluggable* code — the one part of the build a
/// caller can inject — so the multi-threaded driver gives their panics the
/// same single coherent surfacing as any other build-worker panic.
/// (Single-threaded builds run the selector inline instead: there a panic
/// already reaches the caller with its original payload and location, so
/// no wrapping is needed.)
pub(crate) fn run_selection(
    graph: GraphView<'_>,
    selector: &dyn LandmarkSelector,
    num_landmarks: usize,
) -> Vec<VertexId> {
    std::thread::scope(|s| {
        let handle = s.spawn(move || checked_select(selector, graph, num_landmarks));
        join_workers(vec![handle])
            .pop()
            .expect("one selection worker, one result")
    })
}

/// Labels every landmark tree, returned in rank order.
///
/// One context runs the trees in the calling thread; more open a
/// `std::thread::scope` with one worker per context, each pulling ranks
/// from a shared atomic cursor. Trees are independent of each other, so
/// sorting the fragments by rank makes the result identical at every
/// worker count.
pub(crate) fn label_all(
    graph: GraphView<'_>,
    landmarks: &[VertexId],
    landmark_rank: &[u32],
    contexts: &mut [BuildContext],
) -> Vec<LandmarkTree> {
    let k = landmarks.len();
    if let [cx] = contexts {
        return (0..k)
            .map(|rank| label_tree(graph, landmarks, landmark_rank, rank, cx))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut trees: Vec<LandmarkTree> = std::thread::scope(|s| {
        let handles: Vec<_> = contexts
            .iter_mut()
            .map(|cx| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let rank = cursor.fetch_add(1, Ordering::Relaxed);
                        if rank >= k {
                            break;
                        }
                        out.push(label_tree(graph, landmarks, landmark_rank, rank, cx));
                    }
                    out
                })
            })
            .collect();
        join_workers(handles).into_iter().flatten().collect()
    });
    trees.sort_unstable_by_key(|t| t.rank);
    trees
}
