//! Incremental label repair under edge insertions and deletions.
//!
//! A built [`HighwayCoverIndex`](crate::HighwayCoverIndex) is frozen — its
//! labels are CSR-flattened. This module keeps an *editable* twin,
//! [`DynamicIndex`], that answers the same queries but can be repaired in
//! place after an edge edit instead of rebuilt from scratch.
//!
//! The repair contract is **byte identity**: after any sequence of edits,
//! [`DynamicIndex::to_index`] equals a fresh build of the edited graph over
//! the same landmark set — offsets, entries and highway. That holds
//! because every landmark tree is a pure function of the graph and the
//! landmark set (see the `build` module docs), so a tree the edit cannot
//! change stays valid verbatim and every other tree is recomputed by the
//! builder's own routine. `tests/dynamic_repair.rs` checks the identity
//! after every step of seeded edit scripts.
//!
//! # How repair works
//!
//! The landmark set is kept fixed across edits (re-selection would force a
//! full rebuild; the landmarks stay exactly the vertices the original
//! build chose). Each edit `(u, v)` is processed as:
//!
//! 1. **Pre-edit distances from the index itself.** For every landmark
//!    `r`, `d(r, x) = min over (rᵢ, δ) ∈ L(x) of δ + H(r, rᵢ)`, or the
//!    highway entry when `x` is a landmark — exact by the highway cover
//!    property, in `O(|L(x)| · k)` and with no graph search.
//! 2. **Affected trees.** With `a = d(r, u)` and `b = d(r, v)` before the
//!    edit:
//!    * an **insertion** changes `r`'s distances iff `|a − b| ≥ 2` (or
//!      exactly one endpoint was unreachable). With `|a − b| == 1` the
//!      distances stay, but the nearer endpoint becomes a new parent of
//!      the farther one in `r`'s shortest-path DAG; that flips labels only
//!      if the nearer endpoint passes a landmark (it is a landmark other
//!      than `r` or holds no `r` entry) while the farther one still holds
//!      an `r` entry. Equal depths add no DAG edge.
//!    * a **deletion** can change the tree only if the edge was a DAG edge
//!      of `r`, i.e. `a != b` (the depths of adjacent vertices differ by
//!      at most one).
//! 3. **Per-tree repair.** Each affected tree's entries are stripped and
//!    the builder's routine is re-run for it on the edited graph, which
//!    also rewrites its exact highway row and column. Unaffected trees are
//!    untouched. There is no full relabel: trees are independent.

use crate::build::tree::label_tree;
use crate::build::{sat_add, BuildContext, HighwayCoverIndex, NOT_A_LANDMARK};
use crate::view::{IndexView, LabelVec};
use hcl_core::{DeltaError, DeltaGraph, DeltaOp, EdgeDelta, VertexId, INFINITY};

/// What one [`DynamicIndex::apply_and_repair`] call did, for logging,
/// metrics, and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Whether the delta changed the graph at all (inserting an existing
    /// edge or deleting a missing one is a no-op and costs nothing beyond
    /// the membership probe).
    pub applied: bool,
    /// Number of landmark trees the edit could change, each re-labelled.
    pub affected_landmarks: usize,
    /// Whether every landmark tree was affected (so the repair did the
    /// labelling work of a full build, minus landmark selection).
    pub full_relabel: bool,
}

/// An editable highway-cover index: same landmarks, labels, and highway as
/// the frozen form, but with per-vertex label vectors that can be stripped
/// and regrown in place.
///
/// Convert a built index in with [`DynamicIndex::from_view`], apply edits
/// with [`DynamicIndex::apply_and_repair`], and flatten back out with
/// [`DynamicIndex::to_index`] whenever a frozen snapshot is needed (for
/// serving or serialisation). The conversion round-trip is lossless.
pub struct DynamicIndex {
    /// Landmark vertices in rank order (frozen across edits).
    landmarks: Vec<VertexId>,
    /// Inverse of `landmarks`: `NOT_A_LANDMARK` for ordinary vertices.
    landmark_rank: Vec<u32>,
    /// Per-vertex `(rank, distance)` labels, kept rank-sorted so the
    /// flattened form is hub-sorted without a final sort pass.
    labels: Vec<Vec<(u32, u32)>>,
    /// Row-major exact `k × k` landmark-to-landmark distances.
    highway: Vec<u32>,
}

impl DynamicIndex {
    /// Unpacks a frozen index (owned or mapped) into editable form.
    pub fn from_view(view: IndexView<'_>) -> Self {
        let n = view.num_vertices();
        let mut labels = Vec::with_capacity(n);
        for v in 0..n {
            labels.push(view.label(v as VertexId).collect());
        }
        Self {
            landmarks: view.landmarks().to_vec(),
            landmark_rank: view.landmark_rank().to_vec(),
            labels,
            highway: view.highway().to_vec(),
        }
    }

    /// Number of landmarks (fixed across edits).
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of vertices the index covers (fixed across edits — the delta
    /// layer does not add vertices).
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Total number of label entries currently held.
    pub fn num_label_entries(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// Flattens back into the frozen, query-servable form, in the entry
    /// width a fresh build of the same labels would pick.
    pub fn to_index(&self) -> HighwayCoverIndex {
        let n = self.labels.len();
        let mut label_offsets = Vec::with_capacity(n.saturating_add(1));
        label_offsets.push(0u64);
        let (mut total, mut max_dist) = (0u64, 0u32);
        for per_vertex in &self.labels {
            total += per_vertex.len() as u64;
            label_offsets.push(total);
            max_dist = per_vertex.iter().fold(max_dist, |m, &(_, d)| m.max(d));
        }
        let label_entries = LabelVec::pack(
            self.landmarks.len(),
            max_dist,
            total as usize,
            self.labels.iter().flatten().copied(),
        );
        HighwayCoverIndex {
            landmarks: self.landmarks.clone(),
            landmark_rank: self.landmark_rank.clone(),
            label_offsets,
            label_entries,
            highway: self.highway.clone(),
        }
    }

    /// Applies one edge delta to `graph` and repairs the index so it
    /// equals a fresh build of the edited graph over the same landmarks.
    ///
    /// The delta is validated (range, self-loop) before anything is
    /// touched; on error neither the graph nor the index changes. An
    /// ineffective delta (inserting a present edge, deleting an absent
    /// one) leaves both untouched and reports `applied: false`.
    ///
    /// # Panics
    /// Panics if `graph` does not have the vertex count this index was
    /// built for — the overlay never adds vertices, so a mismatch means
    /// the caller paired the wrong graph with the wrong index.
    pub fn apply_and_repair(
        &mut self,
        graph: &mut DeltaGraph<'_>,
        delta: EdgeDelta,
        cx: &mut BuildContext,
    ) -> Result<RepairOutcome, DeltaError> {
        let n = self.num_vertices();
        let k = self.num_landmarks();
        assert_eq!(graph.num_vertices(), n, "graph/index vertex count mismatch");
        delta.validate(n)?;
        let effective = match delta.op {
            DeltaOp::Insert => !graph.has_edge(delta.u, delta.v),
            DeltaOp::Delete => graph.has_edge(delta.u, delta.v),
        };
        if !effective {
            return Ok(RepairOutcome::default());
        }

        // The affected-tree tests read *pre-edit* distances out of the
        // index, so they run before the graph changes.
        let affected: Vec<usize> = (0..k).filter(|&r| self.affects(r, delta)).collect();
        let applied = graph.apply(delta)?;
        debug_assert!(applied, "membership probe and apply disagreed");

        if !affected.is_empty() {
            let mut stale = vec![false; k];
            for &r in &affected {
                stale[r] = true;
            }
            for per_vertex in &mut self.labels {
                per_vertex.retain(|&(r, _)| !stale[r as usize]);
            }
            let view = graph.as_dyn_view();
            for &r in &affected {
                let tree = label_tree(view, &self.landmarks, &self.landmark_rank, r, cx);
                for (v, d) in tree.labelled {
                    let entries = &mut self.labels[v as usize];
                    let pos = entries.partition_point(|&(hub, _)| hub < r as u32);
                    entries.insert(pos, (r as u32, d));
                }
                for (j, &d) in tree.highway_row.iter().enumerate() {
                    self.highway[r * k + j] = d;
                    self.highway[j * k + r] = d;
                }
            }
        }

        Ok(RepairOutcome {
            applied: true,
            affected_landmarks: affected.len(),
            full_relabel: k > 0 && affected.len() == k,
        })
    }

    /// Whether the tree of landmark `r` can change under `delta`, judged
    /// on the pre-edit index (see the module docs for the rule).
    fn affects(&self, r: usize, delta: EdgeDelta) -> bool {
        let (a, b) = (self.depth(r, delta.u), self.depth(r, delta.v));
        match delta.op {
            DeltaOp::Insert => match a.abs_diff(b) {
                0 => false,
                1 => {
                    let (near, far) = if a < b {
                        (delta.u, delta.v)
                    } else {
                        (delta.v, delta.u)
                    };
                    self.passes_landmark(r, near) && !self.passes_landmark(r, far)
                }
                // Includes exactly one endpoint unreachable from r.
                _ => true,
            },
            DeltaOp::Delete => a != b,
        }
    }

    /// `d(r, x)` read from the index: the highway entry when `x` is a
    /// landmark, else the best route through one of `x`'s label hubs.
    fn depth(&self, r: usize, x: VertexId) -> u32 {
        let k = self.num_landmarks();
        let row = &self.highway[r * k..(r + 1) * k];
        match self.landmark_rank[x as usize] {
            NOT_A_LANDMARK => self.labels[x as usize]
                .iter()
                .map(|&(hub, d)| sat_add(row[hub as usize], d))
                .min()
                .unwrap_or(INFINITY),
            rank => row[rank as usize],
        }
    }

    /// Whether some shortest `r`–`x` path passes a landmark other than `r`
    /// (`x` included): exactly when `x` holds no `r` entry.
    fn passes_landmark(&self, r: usize, x: VertexId) -> bool {
        self.labels[x as usize]
            .binary_search_by_key(&(r as u32), |&(hub, _)| hub)
            .is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, HighwayCoverIndex, LandmarkSelector, QueryContext};
    use hcl_core::{Graph, GraphView};

    /// Selects a fixed landmark list, so a rebuild keeps repair's landmarks.
    struct Fixed(Vec<VertexId>);

    impl LandmarkSelector for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn select(&self, _graph: GraphView<'_>, k: usize) -> Vec<VertexId> {
            self.0[..k].to_vec()
        }
    }

    fn build_fixed(graph: &Graph, landmarks: &[VertexId]) -> HighwayCoverIndex {
        let options = BuildOptions {
            num_landmarks: landmarks.len(),
            threads: 1,
            ..Default::default()
        };
        let fixed = Fixed(landmarks.to_vec());
        HighwayCoverIndex::build_in_with_selector(graph, &options, &mut [], &fixed)
    }

    /// The repaired index must equal a fresh build over the same
    /// landmarks byte for byte, and answer like the BFS oracle.
    fn assert_matches_rebuild(graph: &DeltaGraph<'_>, dynamic: &DynamicIndex) {
        let edited = graph.to_graph();
        let repaired = dynamic.to_index();
        let rebuilt = build_fixed(&edited, &dynamic.landmarks);
        let (rep, reb) = (repaired.as_view(), rebuilt.as_view());
        assert_eq!(rep.label_offsets(), reb.label_offsets(), "offsets");
        assert_eq!(rep.label_entries(), reb.label_entries(), "entries");
        assert_eq!(rep.highway(), reb.highway(), "highway");
        let mut cx = QueryContext::new();
        let n = edited.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    rep.query_with(&edited, &mut cx, u, v),
                    hcl_core::bfs::distance(&edited, u, v),
                    "repaired answer wrong for ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 2,
                ..Default::default()
            },
        );
        let dynamic = DynamicIndex::from_view(built.as_view());
        let back = dynamic.to_index();
        assert_eq!(back.as_view().landmarks(), built.as_view().landmarks());
        assert_eq!(
            back.as_view().label_entries(),
            built.as_view().label_entries()
        );
        assert_eq!(back.as_view().highway(), built.as_view().highway());
    }

    #[test]
    fn ineffective_deltas_touch_nothing() {
        let g = Graph::from_edges(&[(0, 1), (1, 2)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 1,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(0, 1), &mut cx)
            .unwrap();
        assert_eq!(out, RepairOutcome::default());
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::delete(0, 2), &mut cx)
            .unwrap();
        assert_eq!(out, RepairOutcome::default());
        assert!(dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(0, 9), &mut cx)
            .is_err());
    }

    #[test]
    fn insert_shortcut_repairs_affected_trees() {
        // A long path: inserting a chord changes many distances.
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 3,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(0, 6), &mut cx)
            .unwrap();
        assert!(out.applied && out.affected_landmarks > 0 && !out.full_relabel);
        assert_matches_rebuild(&graph, &dynamic);
    }

    #[test]
    fn delete_bridge_disconnects_and_repairs() {
        // Two triangles joined by a bridge; deleting the bridge splits the
        // graph and must leave cross-component answers at None.
        let g = Graph::from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 2,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::delete(2, 3), &mut cx)
            .unwrap();
        assert!(out.applied);
        assert_matches_rebuild(&graph, &dynamic);
    }

    #[test]
    fn mixed_script_stays_exact_on_a_grid() {
        let g = hcl_core::testkit::grid(4, 4);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 4,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let script = [
            EdgeDelta::insert(0, 15),
            EdgeDelta::delete(5, 6),
            EdgeDelta::insert(3, 12),
            EdgeDelta::delete(0, 1),
            EdgeDelta::delete(0, 15),
        ];
        for delta in script {
            dynamic
                .apply_and_repair(&mut graph, delta, &mut cx)
                .unwrap();
            assert_matches_rebuild(&graph, &dynamic);
        }
    }

    #[test]
    fn insert_that_reroutes_through_a_landmark_drops_the_entry() {
        // Landmarks 0 (rank 0) and 1 (rank 1). From 0, vertex 2 is only
        // reachable through landmark 1, while 5 hangs off the landmark-free
        // branch 0-3-4-5. Inserting (2, 5) keeps d(0, 5) = 3 but gives 5 a
        // parent that passes landmark 1, so 5 must lose its rank-0 entry.
        let g = Graph::from_edges(&[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)]);
        let built = build_fixed(&g, &[0, 1]);
        assert!(built.label(5).any(|(hub, d)| hub == 0 && d == 3));
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(2, 5), &mut cx)
            .unwrap();
        assert_eq!(out.affected_landmarks, 2);
        assert!(out.full_relabel);
        assert!(dynamic.labels[5].iter().all(|&(hub, _)| hub != 0));
        assert_matches_rebuild(&graph, &dynamic);

        // Deleting it again restores the landmark-free route's entry.
        dynamic
            .apply_and_repair(&mut graph, EdgeDelta::delete(2, 5), &mut cx)
            .unwrap();
        assert!(dynamic.labels[5].contains(&(0, 3)));
        assert_matches_rebuild(&graph, &dynamic);
    }

    #[test]
    fn equal_depth_edits_touch_no_tree() {
        // 1 and 2 sit at depth 1 from the only landmark 0: an edge between
        // them is on no shortest path from 0, in either direction of edit.
        let g = Graph::from_edges(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let built = build_fixed(&g, &[0]);
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        for delta in [EdgeDelta::insert(1, 2), EdgeDelta::delete(1, 2)] {
            let out = dynamic
                .apply_and_repair(&mut graph, delta, &mut cx)
                .unwrap();
            assert!(out.applied);
            assert_eq!(out.affected_landmarks, 0);
            assert_matches_rebuild(&graph, &dynamic);
        }
    }
}
