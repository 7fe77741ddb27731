//! Mutable edge-delta overlay on the immutable CSR graph.
//!
//! The CSR layout ([`Graph`]/[`GraphView`]) is deliberately frozen: its
//! contiguous arrays are what the store memory-maps and what every
//! traversal iterates. Dynamic graphs are layered *on top* of it instead
//! of mutating it. The edits live in an owned [`AdjacencyPatch`]: a fully
//! merged, sorted neighbour list for each vertex whose adjacency differs
//! from the base, the edge count, and a dense `n`-bit "patched" set that
//! is tested before any map lookup. An unpatched vertex therefore costs
//! one bit test and a CSR slice; only a patched one pays a hash lookup.
//! A list that an edit brings back to its base form is dropped, so the
//! patch holds exactly the vertices whose adjacency differs.
//!
//! [`DeltaGraph`] is a base view plus an owned patch — the editable form.
//! [`PatchedView`] is the `Copy` read-only pairing of a base and a
//! borrowed patch, which is what a served generation hands out: many
//! generations share one mapped base, each with its own small patch, and
//! nothing is materialised until a checkpoint calls
//! [`DynGraphView::to_owned_graph`]. `neighbors` always returns a plain
//! sorted `&[VertexId]` slice, so traversal code needs no per-edge
//! branching and no iterator abstraction.
//!
//! Two ways to traverse either form:
//!
//! * [`DynGraphView`], the enum-dispatched view: the BFS oracles in
//!   [`crate::bfs`] accept `impl Into<DynGraphView>` and run unchanged over
//!   a frozen CSR or a patched one, at one match per adjacency fetch;
//! * [`Adjacency`], a small trait that hot loops are generic over, so a
//!   caller matches the variant once and runs a monomorphised loop.
//!
//! The vertex set is fixed: deltas add and remove *edges* between existing
//! vertices (the serving path's containers pin `n` at build time); growing
//! the vertex set remains a rebuild.

use crate::bitset::DenseBitSet;
use crate::graph::{Graph, GraphView, VertexId};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map keyed by vertex id, for patches: repair probes it once per
/// patched vertex on every `O(n)` pass, so the key hash is one multiply
/// instead of SipHash.
pub type VertexMap<V> = HashMap<VertexId, V, BuildHasherDefault<VertexHasher>>;

/// The [`VertexMap`] hasher: Fibonacci hashing of the 32-bit id, rotated
/// so the bucket-selecting low bits come from the well-mixed high half of
/// the product (ids that differ only in their high bits still spread).
#[derive(Clone, Copy, Debug, Default)]
pub struct VertexHasher(u64);

impl Hasher for VertexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// What an [`EdgeDelta`] does to the edge `(u, v)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// Add the undirected edge.
    Insert,
    /// Remove the undirected edge.
    Delete,
}

impl DeltaOp {
    /// The sign character the CLI protocols use (`+` insert, `-` delete).
    pub fn sign(self) -> char {
        match self {
            DeltaOp::Insert => '+',
            DeltaOp::Delete => '-',
        }
    }
}

/// One undirected edge edit. Endpoint order is irrelevant (the graph is
/// undirected); `u == v` is invalid (self-loops are canonicalised away at
/// build time and stay banned).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeDelta {
    /// Insert or delete.
    pub op: DeltaOp,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

impl EdgeDelta {
    /// An insertion of edge `(u, v)`.
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        Self {
            op: DeltaOp::Insert,
            u,
            v,
        }
    }

    /// A deletion of edge `(u, v)`.
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        Self {
            op: DeltaOp::Delete,
            u,
            v,
        }
    }

    /// Checks the delta against a graph of `num_vertices` vertices without
    /// applying it: both endpoints in range, no self-loop.
    pub fn validate(&self, num_vertices: usize) -> Result<(), DeltaError> {
        for vertex in [self.u, self.v] {
            if vertex as usize >= num_vertices {
                return Err(DeltaError::VertexOutOfRange {
                    vertex,
                    num_vertices,
                });
            }
        }
        if self.u == self.v {
            return Err(DeltaError::SelfLoop { vertex: self.u });
        }
        Ok(())
    }
}

impl fmt::Display for EdgeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} {}", self.op.sign(), self.u, self.v)
    }
}

/// Why an [`EdgeDelta`] cannot be applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaError {
    /// An endpoint is not a vertex of the base graph (the vertex set is
    /// fixed; growing it is a rebuild).
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// `u == v`: self-loops are not representable.
    SelfLoop {
        /// The endpoint.
        vertex: VertexId,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range (graph has {num_vertices} vertices; \
                 the vertex set is fixed — growing it requires a rebuild)"
            ),
            DeltaError::SelfLoop { vertex } => {
                write!(f, "self-loop ({vertex}, {vertex}) is not a valid edge")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Owned adjacency edits over a base CSR graph: the rewritten sorted
/// neighbour list of every vertex whose adjacency differs from the base,
/// the change in edge count, and a dense bitset marking those vertices.
///
/// A patch does not hold its base; pair it with the base it was built
/// over ([`DeltaGraph::with_patch`], [`AdjacencyPatch::view`]). Cloning
/// costs `O(patched vertices + their degrees)` plus `n / 64` words for
/// the bitset.
#[derive(Clone, Debug, Default)]
pub struct AdjacencyPatch {
    /// Bit `v` set iff `v` has an entry in `lists`. Sized to the base's
    /// vertex count on the first edit.
    patched: DenseBitSet,
    /// Fully merged, sorted adjacency for vertices whose neighbourhood
    /// differs from the base.
    lists: VertexMap<Vec<VertexId>>,
    /// Edges inserted minus edges deleted, relative to the base.
    edge_delta: i64,
}

impl AdjacencyPatch {
    /// A patch with no edits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices whose adjacency differs from the base.
    pub fn num_patched(&self) -> usize {
        self.lists.len()
    }

    /// Whether the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The patched vertices, ascending.
    pub fn patched_vertices(&self) -> Vec<VertexId> {
        let mut vertices: Vec<VertexId> = self.lists.keys().copied().collect();
        vertices.sort_unstable();
        vertices
    }

    /// The rewritten neighbour list of `v`, or `None` when `v` serves its
    /// base list. The dense bit is tested before the map is.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<&[VertexId]> {
        if !self.patched.contains(v as usize) {
            return None;
        }
        self.lists.get(&v).map(Vec::as_slice)
    }

    /// This patch over `base` as a traversable view: the plain CSR when
    /// the patch is empty, so unedited generations run the CSR code.
    pub fn view<'a>(&'a self, base: GraphView<'a>) -> DynGraphView<'a> {
        if self.is_empty() {
            DynGraphView::Csr(base)
        } else {
            DynGraphView::Patched(PatchedView { base, patch: self })
        }
    }

    /// Applies one edit over `base` (see [`DeltaGraph::apply`]).
    fn apply(&mut self, base: GraphView<'_>, delta: EdgeDelta) -> Result<bool, DeltaError> {
        let n = base.num_vertices();
        delta.validate(n)?;
        let present = PatchedView { base, patch: self }
            .neighbors(delta.u)
            .binary_search(&delta.v)
            .is_ok();
        let effective = match delta.op {
            DeltaOp::Insert => !present,
            DeltaOp::Delete => present,
        };
        if !effective {
            return Ok(false);
        }
        if self.patched.len() < n {
            self.patched.reset(n);
            for &v in self.lists.keys() {
                self.patched.insert(v as usize);
            }
        }
        for (a, b) in [(delta.u, delta.v), (delta.v, delta.u)] {
            let mut adj = self
                .lists
                .remove(&a)
                .unwrap_or_else(|| base.neighbors(a).to_vec());
            match (delta.op, adj.binary_search(&b)) {
                (DeltaOp::Insert, Err(pos)) => adj.insert(pos, b),
                (DeltaOp::Delete, Ok(pos)) => {
                    adj.remove(pos);
                }
                // `present` was checked on the merged adjacency, and both
                // directions stay in lockstep, so these arms cannot occur.
                _ => {}
            }
            // A list edited back to its base form leaves the patch.
            if adj == base.neighbors(a) {
                self.patched.remove(a as usize);
            } else {
                self.patched.insert(a as usize);
                self.lists.insert(a, adj);
            }
        }
        self.edge_delta += match delta.op {
            DeltaOp::Insert => 1,
            DeltaOp::Delete => -1,
        };
        Ok(true)
    }
}

/// A mutable edge-delta overlay: a base [`GraphView`] plus an owned
/// [`AdjacencyPatch`].
///
/// Edits are applied with [`DeltaGraph::apply`]; adjacency reads come
/// back as plain sorted slices (patched copies for edited vertices, the
/// base CSR for everyone else), so the overlay plugs into every traversal
/// through [`DynGraphView`] or [`Adjacency`] without changing its inner
/// loop. Materialise with [`DeltaGraph::to_graph`] at a checkpoint.
pub struct DeltaGraph<'a> {
    base: GraphView<'a>,
    patch: AdjacencyPatch,
}

impl<'a> DeltaGraph<'a> {
    /// An overlay with no edits yet.
    pub fn new(base: GraphView<'a>) -> Self {
        Self::with_patch(base, AdjacencyPatch::new())
    }

    /// An overlay continuing `patch`'s edits over `base`, the graph the
    /// patch was built on.
    pub fn with_patch(base: GraphView<'a>, patch: AdjacencyPatch) -> Self {
        Self { base, patch }
    }

    /// Gives the edits back, e.g. to publish them over a shared base.
    pub fn into_patch(self) -> AdjacencyPatch {
        self.patch
    }

    /// The edits applied so far.
    pub fn patch(&self) -> &AdjacencyPatch {
        &self.patch
    }

    /// Number of vertices (fixed: always the base graph's count).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of undirected edges after all applied deltas.
    pub fn num_edges(&self) -> usize {
        self.patched_view().num_edges()
    }

    /// Number of vertices whose adjacency differs from the base.
    pub fn num_patched(&self) -> usize {
        self.patch.num_patched()
    }

    /// The sorted neighbour list of `v`: the patched copy if an edit left
    /// `v`'s adjacency different from the base, the base CSR slice
    /// otherwise.
    ///
    /// # Panics
    /// Panics if `v` is out of range (same contract as [`GraphView`]).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.patched_view().neighbors(v)
    }

    /// Whether `u` and `v` are adjacent (`O(log degree(u))`).
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Applies one edit. `Ok(true)` when the graph changed, `Ok(false)`
    /// for a no-op (inserting an existing edge, deleting a missing one) —
    /// callers use the distinction to skip label repair and to keep
    /// journals free of dead entries.
    pub fn apply(&mut self, delta: EdgeDelta) -> Result<bool, DeltaError> {
        self.patch.apply(self.base, delta)
    }

    /// Materialises the overlay into an owned, canonical CSR [`Graph`].
    pub fn to_graph(&self) -> Graph {
        self.as_dyn_view().to_owned_graph()
    }

    /// A borrowed enum view of this overlay for the traversal APIs.
    pub fn as_dyn_view(&self) -> DynGraphView<'_> {
        DynGraphView::Patched(self.patched_view())
    }

    /// A borrowed `Copy` view of this overlay for monomorphised loops.
    pub fn patched_view(&self) -> PatchedView<'_> {
        PatchedView {
            base: self.base,
            patch: &self.patch,
        }
    }
}

/// A base CSR graph with a borrowed [`AdjacencyPatch`] over it: what a
/// patched generation serves. `Copy`, like [`GraphView`].
#[derive(Clone, Copy, Debug)]
pub struct PatchedView<'a> {
    base: GraphView<'a>,
    patch: &'a AdjacencyPatch,
}

impl<'a> PatchedView<'a> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        (self.base.num_edges() as i64 + self.patch.edge_delta).max(0) as usize
    }

    /// The sorted neighbour list of `v`: one bit test, then either the
    /// base CSR slice or the patched list.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        match self.patch.get(v) {
            Some(adj) => adj,
            None => self.base.neighbors(v),
        }
    }
}

/// Read access to adjacency, for traversal loops that are generic over
/// the graph form and monomorphised per form (see the module docs).
pub trait Adjacency: Copy {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// The sorted neighbour list of `v`.
    fn neighbors(&self, v: VertexId) -> &[VertexId];
}

impl Adjacency for GraphView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        GraphView::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        GraphView::neighbors(self, v)
    }
}

impl Adjacency for PatchedView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        PatchedView::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        PatchedView::neighbors(self, v)
    }
}

/// The enum-dispatched graph view: a frozen CSR or a patched one.
///
/// `Copy`, like [`GraphView`]. Every BFS oracle in [`crate::bfs`] takes
/// `impl Into<DynGraphView>`, so owned graphs, mmap'd views, and patched
/// overlays all run through one traversal implementation; the only cost
/// is one predictable match per adjacency fetch. Hot loops match once and
/// run generic over [`Adjacency`] instead.
#[derive(Clone, Copy, Debug)]
pub enum DynGraphView<'a> {
    /// A frozen CSR graph.
    Csr(GraphView<'a>),
    /// A base CSR plus an edit patch.
    Patched(PatchedView<'a>),
}

impl<'a> DynGraphView<'a> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        match self {
            DynGraphView::Csr(g) => g.num_vertices(),
            DynGraphView::Patched(p) => p.num_vertices(),
        }
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        match self {
            DynGraphView::Csr(g) => g.num_edges(),
            DynGraphView::Patched(p) => p.num_edges(),
        }
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        match self {
            DynGraphView::Csr(g) => g.neighbors(v),
            DynGraphView::Patched(p) => p.neighbors(v),
        }
    }

    /// Whether `u` and `v` are adjacent.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Materialises the view into an owned, canonical CSR [`Graph`] — the
    /// checkpoint's copy. Patched lists are sorted and symmetric already,
    /// so this is one concatenation pass with no sort.
    pub fn to_owned_graph(&self) -> Graph {
        let p = match self {
            DynGraphView::Csr(g) => return g.to_owned_graph(),
            DynGraphView::Patched(p) => p,
        };
        let n = p.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * p.num_edges());
        offsets.push(0u64);
        for v in 0..n as VertexId {
            neighbors.extend_from_slice(p.neighbors(v));
            offsets.push(neighbors.len() as u64);
        }
        Graph { offsets, neighbors }
    }
}

impl<'a> From<GraphView<'a>> for DynGraphView<'a> {
    fn from(g: GraphView<'a>) -> Self {
        DynGraphView::Csr(g)
    }
}

impl<'a> From<&'a Graph> for DynGraphView<'a> {
    fn from(g: &'a Graph) -> Self {
        DynGraphView::Csr(g.as_view())
    }
}

impl<'a> From<PatchedView<'a>> for DynGraphView<'a> {
    fn from(p: PatchedView<'a>) -> Self {
        DynGraphView::Patched(p)
    }
}

impl<'a> From<&'a DeltaGraph<'a>> for DynGraphView<'a> {
    fn from(d: &'a DeltaGraph<'a>) -> Self {
        d.as_dyn_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::testkit;

    #[test]
    fn overlay_starts_identical_to_base() {
        let g = testkit::grid(4, 4);
        let d = DeltaGraph::new(g.as_view());
        assert_eq!(d.num_vertices(), 16);
        assert_eq!(d.num_edges(), g.num_edges());
        assert_eq!(d.num_patched(), 0);
        for v in 0..16 {
            assert_eq!(d.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn insert_and_delete_patch_both_endpoints() {
        let g = testkit::path(5); // 0-1-2-3-4
        let mut d = DeltaGraph::new(g.as_view());
        assert!(d.apply(EdgeDelta::insert(0, 4)).unwrap());
        assert!(d.has_edge(0, 4));
        assert!(d.has_edge(4, 0));
        assert_eq!(d.num_edges(), g.num_edges() + 1);
        assert_eq!(d.num_patched(), 2);
        // Overlay lists stay sorted.
        assert_eq!(d.neighbors(0), &[1, 4]);
        assert_eq!(d.neighbors(4), &[0, 3]);

        assert!(d.apply(EdgeDelta::delete(1, 2)).unwrap());
        assert!(!d.has_edge(1, 2));
        assert!(!d.has_edge(2, 1));
        assert_eq!(d.num_edges(), g.num_edges());
        // The base graph is untouched.
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 4));
    }

    #[test]
    fn edits_undone_leave_the_patch_empty() {
        let g = testkit::grid(3, 3);
        let mut d = DeltaGraph::new(g.as_view());
        assert!(d.apply(EdgeDelta::insert(0, 8)).unwrap());
        assert!(d.apply(EdgeDelta::delete(4, 5)).unwrap());
        assert_eq!(d.patch().patched_vertices(), vec![0, 4, 5, 8]);
        assert!(matches!(d.as_dyn_view(), DynGraphView::Patched(_)));
        assert!(d.apply(EdgeDelta::delete(0, 8)).unwrap());
        assert!(d.apply(EdgeDelta::insert(5, 4)).unwrap());
        assert!(d.patch().is_empty());
        assert_eq!(d.num_edges(), g.num_edges());
        // An empty patch serves the plain CSR.
        let patch = d.into_patch();
        assert!(matches!(patch.view(g.as_view()), DynGraphView::Csr(_)));
        assert_eq!(patch.get(0), None);
    }

    #[test]
    fn ineffective_deltas_are_reported_not_applied() {
        let g = testkit::path(3);
        let mut d = DeltaGraph::new(g.as_view());
        assert!(!d.apply(EdgeDelta::insert(0, 1)).unwrap()); // already present
        assert!(!d.apply(EdgeDelta::delete(0, 2)).unwrap()); // not present
        assert_eq!(d.num_patched(), 0);
        assert_eq!(d.num_edges(), g.num_edges());
    }

    #[test]
    fn invalid_deltas_are_rejected() {
        let g = testkit::path(3);
        let mut d = DeltaGraph::new(g.as_view());
        assert_eq!(
            d.apply(EdgeDelta::insert(0, 7)).unwrap_err(),
            DeltaError::VertexOutOfRange {
                vertex: 7,
                num_vertices: 3
            }
        );
        assert_eq!(
            d.apply(EdgeDelta::insert(1, 1)).unwrap_err(),
            DeltaError::SelfLoop { vertex: 1 }
        );
    }

    #[test]
    fn materialised_graph_matches_overlay() {
        let g = testkit::erdos_renyi(30, 0.1, 5);
        let mut d = DeltaGraph::new(g.as_view());
        let mut rng = testkit::SplitMix64::new(42);
        for _ in 0..20 {
            let u = rng.next_below(30) as VertexId;
            let v = rng.next_below(30) as VertexId;
            if u == v {
                continue;
            }
            let delta = if d.has_edge(u, v) {
                EdgeDelta::delete(u, v)
            } else {
                EdgeDelta::insert(u, v)
            };
            d.apply(delta).unwrap();
        }
        let materialised = d.to_graph();
        assert_eq!(materialised.num_vertices(), d.num_vertices());
        assert_eq!(materialised.num_edges(), d.num_edges());
        for v in 0..30 {
            assert_eq!(materialised.neighbors(v), d.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn bfs_oracles_run_over_the_overlay() {
        let g = testkit::path(6); // 0-1-2-3-4-5
        let mut d = DeltaGraph::new(g.as_view());
        d.apply(EdgeDelta::insert(0, 5)).unwrap(); // close the cycle
        assert_eq!(bfs::distance(&d, 0, 5), Some(1));
        assert_eq!(bfs::distance(&d, 0, 3), Some(3));
        d.apply(EdgeDelta::delete(2, 3)).unwrap();
        // 0-1-2 and 3-4-5 joined only through the new 0-5 edge.
        assert_eq!(bfs::distance(&d, 2, 3), Some(5));
        // Base graph still answers the old distances.
        assert_eq!(bfs::distance(&g, 2, 3), Some(1));
        assert_eq!(bfs::distance(&g, 0, 5), Some(5));
    }
}
