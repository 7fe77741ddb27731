//! Incremental label repair under edge insertions and deletions.
//!
//! A built [`HighwayCoverIndex`] is frozen — its
//! labels are CSR-flattened, and a served one is a memory-mapped file.
//! Repair never edits it: it writes into a [`LabelPatch`], the owned
//! record of every vertex whose label differs from that flat base (plus a
//! highway copy once an edit changed a landmark-to-landmark distance).
//! [`repair`] is the one routine; [`DynamicIndex`] is a thin owner of a
//! base index and a patch for callers without a store.
//!
//! The repair contract is **byte identity**: after any sequence of edits,
//! base + patch flattened ([`IndexView::to_owned_index`]) equals a fresh
//! build of the edited graph over the same landmark set — offsets, entries
//! and highway. That holds because every landmark tree is a pure function
//! of the graph and the landmark set (see the `build` module docs), so a
//! tree the edit cannot change stays valid verbatim and every other tree
//! is recomputed by the builder's own routine. The patch is also
//! **minimal**: it holds exactly the vertices whose label differs from
//! the base, so an edit undone leaves it empty. `tests/dynamic_repair.rs`
//! checks both after every step of seeded edit scripts.
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
//! 3. **Per-tree repair.** Each affected tree is re-labelled by the
//!    builder's routine on the edited graph (a full BFS over the patched
//!    adjacency), which also yields its exact highway row and column.
//! 4. **Diff into the patch.** The new tree is laid into a dense scratch
//!    row of [`BuildContext`] and compared with every vertex's current `r`
//!    entry in one `O(n)` pass; only the vertices that differ get a
//!    rewritten list, and a list equal to its base list leaves the patch.
//!    Unaffected trees are untouched. There is no full relabel: trees are
//!    independent.
//!
//! Lists stay in the base's entry width. A distance that narrow words
//! cannot hold (a path longer than 65,535 hops) *folds* the patch: base
//! and patch are flattened into a fresh wide index that the patch owns
//! and later lists are relative to, so a flatten still comes out exactly
//! as a rebuild would.

use crate::build::tree::{label_tree, LandmarkTree};
use crate::build::{sat_add, BuildContext, HighwayCoverIndex, NOT_A_LANDMARK};
use crate::view::{IndexView, LabelEntries, LabelPatch, PatchWord};
use hcl_core::{DeltaError, DeltaGraph, DeltaOp, EdgeDelta, VertexId, INFINITY};

/// What one [`repair`] call did, for logging, metrics, and the benchmark
/// harness.
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
    /// Number of vertices whose label the repair rewrote.
    pub relabelled_vertices: usize,
}

/// Applies one edge delta to `graph` and repairs `patch` so that `base`
/// with `patch` over it equals a fresh build of the edited graph over the
/// same landmarks (see the module docs for the steps).
///
/// `base` is the plain flat index the patch was started over (a folded
/// patch carries its own base and ignores it). The delta is validated
/// (range, self-loop) before anything is touched; on error neither the
/// graph nor the patch changes. An ineffective delta (inserting a present
/// edge, deleting an absent one) leaves both untouched and reports
/// `applied: false`.
///
/// # Panics
/// Panics if `graph` does not have `base`'s vertex count — the overlay
/// never adds vertices, so a mismatch means the caller paired the wrong
/// graph with the wrong index.
pub fn repair(
    base: IndexView<'_>,
    patch: &mut LabelPatch,
    graph: &mut DeltaGraph<'_>,
    delta: EdgeDelta,
    cx: &mut BuildContext,
) -> Result<RepairOutcome, DeltaError> {
    let n = base.num_vertices();
    let k = base.num_landmarks();
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
    let current = base.with_patch(patch);
    let affected: Vec<usize> = (0..k).filter(|&r| affects(current, r, delta)).collect();
    let applied = graph.apply(delta)?;
    debug_assert!(applied, "membership probe and apply disagreed");

    patch.ensure_universe(n);
    let mut relabelled = Vec::new();
    for &r in &affected {
        let tree = label_tree(
            graph.patched_view(),
            base.landmarks,
            base.landmark_rank,
            r,
            cx,
        );
        write_tree(base, patch, &tree, &mut cx.row, &mut relabelled);
    }
    let flat = patch
        .folded
        .as_deref()
        .map_or(base, HighwayCoverIndex::as_view);
    if patch.highway.as_deref() == Some(flat.highway) {
        patch.highway = None;
    }
    relabelled.sort_unstable();
    relabelled.dedup();

    Ok(RepairOutcome {
        applied: true,
        affected_landmarks: affected.len(),
        full_relabel: k > 0 && affected.len() == k,
        relabelled_vertices: relabelled.len(),
    })
}

/// Writes one re-labelled tree into the patch: its entries (rewriting
/// only the vertices whose `r` entry changed, recorded in `relabelled`)
/// and its highway row and column. Folds the patch first when the tree
/// is too deep for the base's narrow words.
fn write_tree(
    base: IndexView<'_>,
    patch: &mut LabelPatch,
    tree: &LandmarkTree,
    row: &mut Vec<u32>,
    relabelled: &mut Vec<VertexId>,
) {
    // Trees list their vertices in BFS order, so the last is the deepest.
    let deepest = tree.labelled.last().map_or(0, |&(_, d)| d);
    let flat = patch
        .folded
        .as_deref()
        .map_or(base, HighwayCoverIndex::as_view);
    if matches!(flat.label_entries, LabelEntries::Narrow(_)) && deepest > u32::MAX_DIST {
        let wide = base.with_patch(patch).flatten(true);
        patch.fold(wide);
    }
    let folded = patch.folded.clone();
    let flat = folded.as_deref().map_or(base, HighwayCoverIndex::as_view);
    match flat.label_entries {
        LabelEntries::Narrow(words) => write_entries(flat, words, patch, tree, row, relabelled),
        LabelEntries::Wide(words) => write_entries(flat, words, patch, tree, row, relabelled),
    }
    let (k, r) = (flat.num_landmarks(), tree.rank);
    let highway = patch.highway.get_or_insert_with(|| flat.highway.to_vec());
    for (j, &d) in tree.highway_row.iter().enumerate() {
        highway[r * k + j] = d;
        highway[j * k + r] = d;
    }
}

/// The `O(n)` diff of one tree against every vertex's current entry for
/// its root, over the flat base `flat` whose label words are `words`.
fn write_entries<W: PatchWord>(
    flat: IndexView<'_>,
    words: &[W],
    patch: &mut LabelPatch,
    tree: &LandmarkTree,
    row: &mut Vec<u32>,
    relabelled: &mut Vec<VertexId>,
) {
    let n = flat.num_vertices();
    if row.len() < n {
        row.resize(n, INFINITY);
    }
    let hub = tree.rank as u32;
    for &(v, d) in &tree.labelled {
        row[v as usize] = d;
    }
    for v in 0..n as VertexId {
        let base_list = flat.base_words(words, v);
        let current = patch.get::<W>(v).unwrap_or(base_list);
        let pos = current.partition_point(|w| w.hub() < hub);
        let old = current
            .get(pos)
            .filter(|w| w.hub() == hub)
            .map(|w| w.dist());
        let new = Some(row[v as usize]).filter(|&d| d != INFINITY);
        if old == new {
            continue;
        }
        let mut list = current.to_vec();
        match (old, new) {
            (Some(_), Some(d)) => list[pos] = W::pack(hub, d),
            (None, Some(d)) => list.insert(pos, W::pack(hub, d)),
            (_, None) => {
                list.remove(pos);
            }
        }
        patch.set(v, list, base_list);
        relabelled.push(v);
    }
    for &(v, _) in &tree.labelled {
        row[v as usize] = INFINITY;
    }
}

/// Whether the tree of landmark `r` can change under `delta`, judged on
/// the pre-edit `index` (see the module docs for the rule).
fn affects(index: IndexView<'_>, r: usize, delta: EdgeDelta) -> bool {
    let (a, b) = (depth(index, r, delta.u), depth(index, r, delta.v));
    match delta.op {
        DeltaOp::Insert => match a.abs_diff(b) {
            0 => false,
            1 => {
                let (near, far) = if a < b {
                    (delta.u, delta.v)
                } else {
                    (delta.v, delta.u)
                };
                passes_landmark(index, r, near) && !passes_landmark(index, r, far)
            }
            // Includes exactly one endpoint unreachable from r.
            _ => true,
        },
        DeltaOp::Delete => a != b,
    }
}

/// `d(r, x)` read from the index: the highway entry when `x` is a
/// landmark, else the best route through one of `x`'s label hubs.
fn depth(index: IndexView<'_>, r: usize, x: VertexId) -> u32 {
    let k = index.num_landmarks();
    let row = &index.highway[r * k..(r + 1) * k];
    match index.landmark_rank[x as usize] {
        NOT_A_LANDMARK => index
            .label(x)
            .map(|(hub, d)| sat_add(row[hub as usize], d))
            .min()
            .unwrap_or(INFINITY),
        rank => row[rank as usize],
    }
}

/// Whether some shortest `r`–`x` path passes a landmark other than `r`
/// (`x` included): exactly when `x` holds no `r` entry.
fn passes_landmark(index: IndexView<'_>, r: usize, x: VertexId) -> bool {
    index.label_words(x).find(r as u32).is_none()
}

/// An editable highway-cover index for callers without a store: an owned
/// flat base plus a [`LabelPatch`], repaired by [`repair`].
///
/// Convert a built index in with [`DynamicIndex::from_view`], apply edits
/// with [`DynamicIndex::apply_and_repair`], read the current state through
/// [`DynamicIndex::view`], and flatten it with [`DynamicIndex::to_index`]
/// whenever a frozen snapshot is needed. The round trip is lossless.
pub struct DynamicIndex {
    /// The flat index the patch is relative to.
    base: HighwayCoverIndex,
    /// Every label the edits changed.
    patch: LabelPatch,
}

impl DynamicIndex {
    /// Copies a frozen index (owned, mapped, or patched) into a base with
    /// an empty patch.
    pub fn from_view(view: IndexView<'_>) -> Self {
        Self {
            base: view.to_owned_index(),
            patch: LabelPatch::new(),
        }
    }

    /// Number of landmarks (fixed across edits).
    pub fn num_landmarks(&self) -> usize {
        self.base.num_landmarks()
    }

    /// Number of vertices the index covers (fixed across edits — the delta
    /// layer does not add vertices).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Total number of label entries currently held.
    pub fn num_label_entries(&self) -> usize {
        self.view().num_label_entries()
    }

    /// The current state: the base with the patch over it.
    pub fn view(&self) -> IndexView<'_> {
        self.base.as_view().with_patch(&self.patch)
    }

    /// The labels (and highway) the edits changed so far.
    pub fn patch(&self) -> &LabelPatch {
        &self.patch
    }

    /// Flattens the current state into the frozen, query-servable form, in
    /// the entry width a fresh build of the same labels would pick.
    pub fn to_index(&self) -> HighwayCoverIndex {
        self.view().to_owned_index()
    }

    /// Applies one edge delta to `graph` and repairs the index so it
    /// equals a fresh build of the edited graph over the same landmarks;
    /// see [`repair`].
    ///
    /// # Panics
    /// Panics if `graph` does not have the vertex count this index was
    /// built for.
    pub fn apply_and_repair(
        &mut self,
        graph: &mut DeltaGraph<'_>,
        delta: EdgeDelta,
        cx: &mut BuildContext,
    ) -> Result<RepairOutcome, DeltaError> {
        repair(self.base.as_view(), &mut self.patch, graph, delta, cx)
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
        let rebuilt = build_fixed(&edited, dynamic.view().landmarks());
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
        assert!(dynamic.view().label(5).all(|(hub, _)| hub != 0));
        assert_matches_rebuild(&graph, &dynamic);

        // Deleting it again restores the landmark-free route's entry.
        dynamic
            .apply_and_repair(&mut graph, EdgeDelta::delete(2, 5), &mut cx)
            .unwrap();
        assert!(dynamic.view().label(5).any(|e| e == (0, 3)));
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
