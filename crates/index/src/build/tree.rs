//! The per-landmark labelling routine shared by the builder and the
//! incremental repair path, and the rank-order assembly of its output.
//!
//! A landmark tree is a pure function of the graph and the landmark set:
//! vertex `v` holds `(r, d(r, v))` iff no shortest `r`–`v` path passes
//! through another landmark (`v` itself included, so a landmark holds only
//! its own root entry). [`label_tree`] computes one tree with a full BFS
//! from `r` that carries a "passes a landmark" flag down the shortest-path
//! DAG, and reads the exact highway row off the same search.

use super::{BuildContext, HighwayCoverIndex, NOT_A_LANDMARK};
use crate::view::{fits_narrow, LabelVec, LabelWord};
use hcl_core::{Adjacency, VertexId, INFINITY};

/// One landmark's tree: its labelled vertices and its exact highway row.
pub(crate) struct LandmarkTree {
    pub(crate) rank: usize,
    /// `(vertex, distance)` pairs to become `(rank, distance)` labels, in
    /// discovery order starting with the root at distance 0.
    pub(crate) labelled: Vec<(VertexId, u32)>,
    /// Exact distance to every landmark, by rank ([`INFINITY`] when
    /// unreachable); the root's own column is 0.
    pub(crate) highway_row: Vec<u32>,
    /// Vertices the search took off its frontier.
    pub(crate) visits: u64,
    /// Reached non-landmark vertices left unlabelled because a shortest
    /// path from the root passes another landmark.
    pub(crate) dominated: u64,
}

/// Labels the tree of the landmark of rank `rank`.
///
/// Generic over the graph form, so the build's CSR and the repair's
/// patched graph each run a monomorphised loop.
///
/// Level-synchronous BFS: a vertex's flag is final once every vertex one
/// level up has been expanded, because its flag is the OR of its parents'
/// flags, and a non-root landmark sets its own. Once a whole level is
/// flagged every deeper vertex is too, so the search stops as soon as that
/// holds and every landmark's depth is known.
pub(crate) fn label_tree<G: Adjacency>(
    graph: G,
    landmarks: &[VertexId],
    landmark_rank: &[u32],
    rank: usize,
    cx: &mut BuildContext,
) -> LandmarkTree {
    let k = landmarks.len();
    let root = landmarks[rank];
    let mut tree = LandmarkTree {
        rank,
        labelled: Vec::new(),
        highway_row: vec![INFINITY; k],
        visits: 0,
        dominated: 0,
    };
    let n = graph.num_vertices();
    cx.scratch.reset();
    cx.scratch.ensure_capacity(n);
    if cx.passes.len() < n {
        cx.passes.resize(n, false);
    }
    let BuildContext {
        scratch,
        passes,
        frontier,
        next,
        ..
    } = cx;
    frontier.clear();
    scratch.dist[root as usize] = 0;
    scratch.touched.push(root);
    frontier.push(root);
    tree.highway_row[rank] = 0;

    let mut landmarks_left = k - 1;
    let mut depth = 0u32;
    while !frontier.is_empty() {
        let mut any_clear = false;
        for &v in frontier.iter() {
            tree.visits += 1;
            let other = landmark_rank[v as usize];
            if v != root && other != NOT_A_LANDMARK {
                tree.highway_row[other as usize] = depth;
                landmarks_left -= 1;
                passes[v as usize] = true;
            } else if passes[v as usize] {
                tree.dominated += 1;
            } else {
                tree.labelled.push((v, depth));
                any_clear = true;
            }
        }
        if !any_clear && landmarks_left == 0 {
            break;
        }
        let child = depth + 1;
        next.clear();
        for &v in frontier.iter() {
            let flag = passes[v as usize];
            for &w in graph.neighbors(v) {
                let dw = &mut scratch.dist[w as usize];
                if *dw == INFINITY {
                    *dw = child;
                    scratch.touched.push(w);
                    next.push(w);
                    passes[w as usize] = flag;
                } else if flag && *dw == child {
                    passes[w as usize] = true;
                }
            }
        }
        std::mem::swap(frontier, next);
        depth = child;
    }

    for &v in &scratch.touched {
        passes[v as usize] = false;
    }
    scratch.reset();
    tree
}

/// Flattens rank-sorted trees into the frozen index: CSR label arrays
/// (each vertex's entries come out hub-ascending because trees are laid
/// down in rank order) and the row-major highway. The entry width follows
/// from the deepest labelled vertex of any tree.
pub(crate) fn assemble(
    landmarks: Vec<VertexId>,
    landmark_rank: Vec<u32>,
    trees: &[LandmarkTree],
) -> HighwayCoverIndex {
    let n = landmark_rank.len();
    let mut label_offsets = vec![0u64; n + 1];
    for tree in trees {
        for &(v, _) in &tree.labelled {
            label_offsets[v as usize + 1] += 1;
        }
    }
    for v in 0..n {
        label_offsets[v + 1] += label_offsets[v];
    }
    // Trees list their vertices in BFS order, so the last is the deepest.
    let max_dist = trees
        .iter()
        .filter_map(|t| t.labelled.last().map(|&(_, d)| d))
        .max()
        .unwrap_or(0);
    let label_entries = if fits_narrow(trees.len(), max_dist) {
        LabelVec::Narrow(lay_down(&label_offsets, trees))
    } else {
        LabelVec::Wide(lay_down(&label_offsets, trees))
    };
    let mut highway = Vec::with_capacity(trees.len() * trees.len());
    for tree in trees {
        highway.extend_from_slice(&tree.highway_row);
    }
    HighwayCoverIndex {
        landmarks,
        landmark_rank,
        label_offsets,
        label_entries,
        highway,
    }
}

/// Scatters every tree's `(rank, distance)` entries into the slots the
/// CSR `label_offsets` reserve, in rank order.
fn lay_down<W: LabelWord>(label_offsets: &[u64], trees: &[LandmarkTree]) -> Vec<W> {
    let n = label_offsets.len() - 1;
    let mut cursor: Vec<usize> = label_offsets[..n].iter().map(|&o| o as usize).collect();
    let mut entries = vec![W::pack(0, 0); label_offsets[n] as usize];
    for tree in trees {
        for &(v, d) in &tree.labelled {
            let slot = &mut cursor[v as usize];
            entries[*slot] = W::pack(tree.rank as u32, d);
            *slot += 1;
        }
    }
    entries
}
