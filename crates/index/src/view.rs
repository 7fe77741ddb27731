//! Borrowed, zero-copy views of a highway-cover index.
//!
//! [`IndexView`] is the label-storage abstraction of the crate: the whole
//! query engine is implemented against it, and two backings provide it —
//!
//! * [`HighwayCoverIndex`](crate::HighwayCoverIndex) (owned `Vec`s, produced
//!   by a build) via [`HighwayCoverIndex::as_view`](crate::HighwayCoverIndex::as_view),
//! * `hcl-store`'s memory-mapped files, whose validated byte ranges are
//!   reinterpreted as the same five slices without copying.
//!
//! Each label entry is **one word** — hub rank in the high half, distance
//! in the low half ([`LabelWord`]). An index whose landmark count is at
//! most 65,536 and whose largest label distance is at most 65,535 stores
//! narrow `u32` words (`(hub << 16) | dist`); any other index stores wide
//! `u64` words (`(hub << 32) | dist`). The width is a pure function of the
//! labels, picked where they are laid down, so it never depends on how an
//! index was built. [`LabelEntries`] carries the two cases; the query
//! engine is generic over the word type and matches the variant once per
//! query. The hot path walks one cache-line-friendly array per vertex
//! instead of two parallel pointer streams, and because hubs occupy the
//! high bits, per-vertex entries sorted by hub are also sorted as plain
//! integers — which is what the galloping merge in `query.rs` relies on.
//!
//! Untrusted data enters through [`IndexView::from_parts`], which checks
//! every structural invariant the query engine relies on, so hot paths can
//! index unchecked without risking panics on corrupt input.
//!
//! A view may also carry a [`LabelPatch`]: the rewritten label lists of
//! the vertices an edge edit relabelled, in the base's entry width, plus a
//! highway copy once an edit changed it. [`IndexView::with_patch`] pairs a
//! flat base with a patch; [`IndexView::label`], the query's label fetch
//! and the highway read then serve the patched state, while
//! [`label_offsets`](IndexView::label_offsets) and
//! [`label_entries`](IndexView::label_entries) keep describing the flat
//! base arrays. [`IndexView::to_owned_index`] flattens base + patch.

use crate::build::{HighwayCoverIndex, IndexStats, NOT_A_LANDMARK};
use hcl_core::{DenseBitSet, VertexId, VertexMap};
use std::fmt;
use std::sync::Arc;

/// One packed `(hub rank, distance)` label entry: the hub in the high half
/// of the word, the distance in the low half. Hub-sorted entry sequences
/// are therefore also sorted as plain integers, and masking with
/// [`HUB_MASK`](LabelWord::HUB_MASK) compares hubs without unpacking.
///
/// Implemented by `u32` (narrow: 16-bit hub, 16-bit distance) and `u64`
/// (wide: 32-bit hub, 32-bit distance).
pub trait LabelWord: Copy + Ord + fmt::Debug + Send + Sync + 'static {
    /// The hub bits of a word.
    const HUB_MASK: Self;
    /// Packs `(hub, dist)`; both must fit the half-word (checked in debug
    /// builds).
    fn pack(hub: u32, dist: u32) -> Self;
    /// The hub rank (the high half).
    fn hub(self) -> u32;
    /// The distance (the low half).
    fn dist(self) -> u32;
    /// The word with its distance bits cleared: words compare by hub.
    fn hub_bits(self) -> Self;
}

macro_rules! label_word {
    ($word:ty, $half:expr) => {
        impl LabelWord for $word {
            const HUB_MASK: Self = <$word>::MAX << $half;

            #[inline]
            fn pack(hub: u32, dist: u32) -> Self {
                debug_assert!(
                    (hub as u64) < (1u64 << $half) && (dist as u64) < (1u64 << $half),
                    "({hub}, {dist}) does not fit a {}-bit label word",
                    <$word>::BITS
                );
                ((hub as $word) << $half) | dist as $word
            }

            #[inline]
            fn hub(self) -> u32 {
                (self >> $half) as u32
            }

            #[inline]
            fn dist(self) -> u32 {
                (self & !Self::HUB_MASK) as u32
            }

            #[inline]
            fn hub_bits(self) -> Self {
                self & Self::HUB_MASK
            }
        }
    };
}
label_word!(u32, 16);
label_word!(u64, 32);

/// Whether labels over `k` landmarks whose largest distance is `max_dist`
/// fit narrow `u32` words — the one rule that picks an index's entry width.
pub(crate) fn fits_narrow(k: usize, max_dist: u32) -> bool {
    k <= 1 << 16 && max_dist <= u32::from(u16::MAX)
}

/// A label word a [`LabelPatch`] can hold: the patch keeps its lists in
/// the base's width, one map per width.
pub(crate) trait PatchWord: LabelWord {
    /// The largest distance a word of this width holds.
    const MAX_DIST: u32;
    /// The patch's lists of this width.
    fn lists(patch: &LabelPatch) -> &VertexMap<Vec<Self>>;
    /// The patch's lists of this width, mutably.
    fn lists_mut(patch: &mut LabelPatch) -> &mut VertexMap<Vec<Self>>;
}

impl PatchWord for u32 {
    const MAX_DIST: u32 = u16::MAX as u32;

    fn lists(patch: &LabelPatch) -> &VertexMap<Vec<Self>> {
        &patch.narrow
    }

    fn lists_mut(patch: &mut LabelPatch) -> &mut VertexMap<Vec<Self>> {
        &mut patch.narrow
    }
}

impl PatchWord for u64 {
    const MAX_DIST: u32 = u32::MAX;

    fn lists(patch: &LabelPatch) -> &VertexMap<Vec<Self>> {
        &patch.wide
    }

    fn lists_mut(patch: &mut LabelPatch) -> &mut VertexMap<Vec<Self>> {
        &mut patch.wide
    }
}

/// Owned label edits over a flat base index: the rewritten, hub-sorted
/// label list of every vertex whose label differs from the base, a copy
/// of the highway once an edit changed it, and a dense bitset marking the
/// patched vertices so an unpatched one costs one bit test.
///
/// Lists are kept in the base's entry width. When a repair produces a
/// distance the base's narrow words cannot hold, the patch *folds*: base
/// and patch are flattened into a fresh wide index that the patch owns
/// and every later list is relative to (see [`crate::repair::repair`]).
/// A patch does not hold its base; pair it with the base it was built
/// over through [`IndexView::with_patch`]. Cloning costs
/// `O(patched entries)` plus `n / 64` words for the bitset (a folded
/// index is shared, not copied).
#[derive(Clone, Default)]
pub struct LabelPatch {
    /// Bit `v` set iff `v` has a list in `narrow` or `wide`.
    patched: DenseBitSet,
    /// Rewritten lists over a narrow base.
    narrow: VertexMap<Vec<u32>>,
    /// Rewritten lists over a wide base.
    wide: VertexMap<Vec<u64>>,
    /// The current row-major highway, once an edit changed it.
    pub(crate) highway: Option<Vec<u32>>,
    /// The flattened state that replaced the base at a width fold.
    pub(crate) folded: Option<Arc<HighwayCoverIndex>>,
}

impl fmt::Debug for LabelPatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelPatch")
            .field("patched", &self.num_patched())
            .field("highway", &self.highway.is_some())
            .field("folded", &self.folded.is_some())
            .finish()
    }
}

impl LabelPatch {
    /// A patch with no edits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices whose label differs from the base.
    pub fn num_patched(&self) -> usize {
        self.narrow.len() + self.wide.len()
    }

    /// The patched vertices, ascending.
    pub fn patched_vertices(&self) -> Vec<VertexId> {
        let mut vertices: Vec<VertexId> = self.vertices().collect();
        vertices.sort_unstable();
        vertices
    }

    /// The patched vertices, in no particular order.
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.narrow.keys().chain(self.wide.keys()).copied()
    }

    /// Whether the patch carries a highway copy (an edit changed a
    /// landmark-to-landmark distance).
    pub fn has_highway(&self) -> bool {
        self.highway.is_some()
    }

    /// Whether the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.num_patched() == 0 && self.highway.is_none() && self.folded.is_none()
    }

    /// The rewritten list of `v` in width `W`, or `None` when `v` serves
    /// its base list. The dense bit is tested before the map is.
    #[inline]
    pub(crate) fn get<W: PatchWord>(&self, v: VertexId) -> Option<&[W]> {
        if !self.patched.contains(v as usize) {
            return None;
        }
        W::lists(self).get(&v).map(Vec::as_slice)
    }

    /// Sizes the patched-vertex bitset for an `n`-vertex base.
    pub(crate) fn ensure_universe(&mut self, n: usize) {
        if self.patched.len() < n {
            self.patched.reset(n);
            for &v in self.narrow.keys().chain(self.wide.keys()) {
                self.patched.insert(v as usize);
            }
        }
    }

    /// Makes `list` the label of `v`, or drops `v`'s list when `list`
    /// equals its base list `base`.
    pub(crate) fn set<W: PatchWord>(&mut self, v: VertexId, list: Vec<W>, base: &[W]) {
        if list == base {
            W::lists_mut(self).remove(&v);
            self.patched.remove(v as usize);
        } else {
            W::lists_mut(self).insert(v, list);
            self.patched.insert(v as usize);
        }
    }

    /// Replaces the base with `index`, the flattened current state: every
    /// list and the highway copy are folded into it.
    pub(crate) fn fold(&mut self, index: HighwayCoverIndex) {
        self.narrow.clear();
        self.wide.clear();
        self.patched.reset(index.num_vertices());
        self.highway = None;
        self.folded = Some(Arc::new(index));
    }
}

/// The flat label entries of an index: narrow `u32` or wide `u64` words
/// (see the module docs for which one an index uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelEntries<'a> {
    /// `(hub << 16) | dist` words.
    Narrow(&'a [u32]),
    /// `(hub << 32) | dist` words.
    Wide(&'a [u64]),
}

impl<'a> LabelEntries<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Self::Narrow(w) => w.len(),
            Self::Wide(w) => w.len(),
        }
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per entry: 4 (narrow) or 8 (wide).
    pub fn word_bytes(&self) -> usize {
        match self {
            Self::Narrow(_) => 4,
            Self::Wide(_) => 8,
        }
    }

    /// Entry `i` as `(hub rank, distance)`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> (u32, u32) {
        match self {
            Self::Narrow(w) => (w[i].hub(), w[i].dist()),
            Self::Wide(w) => (w[i].hub(), w[i].dist()),
        }
    }

    /// Every entry as `(hub rank, distance)`, in storage order.
    pub fn iter(self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.range(0, self.len())
    }

    /// Entries `lo..hi` as `(hub rank, distance)`.
    fn range(self, lo: usize, hi: usize) -> impl Iterator<Item = (u32, u32)> + 'a {
        (lo..hi).map(move |i| self.get(i))
    }

    /// The distance stored for hub `hub`, if any (entries hub-sorted).
    pub(crate) fn find(self, hub: u32) -> Option<u32> {
        fn find<W: LabelWord>(words: &[W], hub: u32) -> Option<u32> {
            let pos = words.partition_point(|w| w.hub() < hub);
            words.get(pos).filter(|w| w.hub() == hub).map(|w| w.dist())
        }
        match self {
            Self::Narrow(w) => find(w, hub),
            Self::Wide(w) => find(w, hub),
        }
    }
}

/// Owned label entries, in the width the labels call for.
pub(crate) enum LabelVec {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl LabelVec {
    /// Packs `total` hub-sorted `(hub, dist)` pairs over `k` landmarks
    /// into the width [`fits_narrow`] picks for their largest distance
    /// `max_dist`, or into wide words regardless when `wide` is set.
    pub(crate) fn pack(
        k: usize,
        max_dist: u32,
        wide: bool,
        total: usize,
        pairs: impl Iterator<Item = (u32, u32)>,
    ) -> Self {
        fn collect<W: LabelWord>(total: usize, pairs: impl Iterator<Item = (u32, u32)>) -> Vec<W> {
            let mut words = Vec::with_capacity(total);
            words.extend(pairs.map(|(h, d)| W::pack(h, d)));
            words
        }
        if !wide && fits_narrow(k, max_dist) {
            Self::Narrow(collect(total, pairs))
        } else {
            Self::Wide(collect(total, pairs))
        }
    }

    pub(crate) fn as_entries(&self) -> LabelEntries<'_> {
        match self {
            Self::Narrow(w) => LabelEntries::Narrow(w),
            Self::Wide(w) => LabelEntries::Wide(w),
        }
    }
}

/// Validation failure for raw index arrays ([`IndexView::from_parts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexDataError {
    /// `label_offsets` must hold exactly `num_vertices + 1` entries.
    OffsetsLength {
        /// Expected entry count (`num_vertices + 1`).
        expected: usize,
        /// Actual entry count.
        found: usize,
    },
    /// `label_offsets[0]` is not zero.
    NonZeroFirstOffset,
    /// `label_offsets` decreases at some vertex.
    NonMonotoneOffsets {
        /// Vertex whose label extent is negative.
        vertex: usize,
    },
    /// The final label offset disagrees with the entry array length.
    EntriesLengthMismatch {
        /// Value of the final label offset.
        offsets_total: u64,
        /// Length of the packed entry array.
        entries_len: usize,
    },
    /// More landmarks than vertices.
    TooManyLandmarks {
        /// Number of landmarks.
        landmarks: usize,
        /// Number of vertices.
        vertices: usize,
    },
    /// The highway matrix is not `k × k`.
    HighwayShape {
        /// Number of landmarks `k`.
        landmarks: usize,
        /// Actual highway array length.
        found: usize,
    },
    /// A landmark vertex id is out of range.
    LandmarkOutOfRange {
        /// Rank of the bad landmark.
        rank: usize,
        /// The out-of-range vertex id.
        vertex: VertexId,
    },
    /// `landmark_rank` and `landmarks` disagree (not inverse permutations).
    RankTableMismatch {
        /// Vertex at which the disagreement was detected.
        vertex: VertexId,
    },
    /// A label hub rank is `>= k`.
    HubOutOfRange {
        /// Vertex whose label holds the bad hub.
        vertex: usize,
        /// The out-of-range hub rank.
        hub: u32,
    },
    /// A vertex label is not strictly ascending by hub rank.
    UnsortedHubs {
        /// Vertex whose label is malformed.
        vertex: usize,
    },
    /// A highway diagonal entry is non-zero.
    HighwayDiagonal {
        /// Rank with `highway[r][r] != 0`.
        rank: usize,
    },
    /// The highway matrix is asymmetric (the graph is undirected).
    HighwayAsymmetric {
        /// First rank of the asymmetric pair.
        a: usize,
        /// Second rank of the asymmetric pair.
        b: usize,
    },
}

impl fmt::Display for IndexDataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexDataError::OffsetsLength { expected, found } => {
                write!(f, "label offsets hold {found} entries, expected {expected}")
            }
            IndexDataError::NonZeroFirstOffset => write!(f, "label offsets must start at 0"),
            IndexDataError::NonMonotoneOffsets { vertex } => {
                write!(f, "label offsets decrease at vertex {vertex}")
            }
            IndexDataError::EntriesLengthMismatch {
                offsets_total,
                entries_len,
            } => write!(
                f,
                "final label offset {offsets_total} disagrees with entry array length \
                 {entries_len}"
            ),
            IndexDataError::TooManyLandmarks {
                landmarks,
                vertices,
            } => {
                write!(f, "{landmarks} landmarks on a {vertices}-vertex graph")
            }
            IndexDataError::HighwayShape { landmarks, found } => {
                write!(f, "highway has {found} entries, expected {landmarks}²")
            }
            IndexDataError::LandmarkOutOfRange { rank, vertex } => {
                write!(f, "landmark {rank} is out-of-range vertex {vertex}")
            }
            IndexDataError::RankTableMismatch { vertex } => {
                write!(
                    f,
                    "landmark rank table disagrees with landmark list at vertex {vertex}"
                )
            }
            IndexDataError::HubOutOfRange { vertex, hub } => {
                write!(
                    f,
                    "label of vertex {vertex} references out-of-range hub {hub}"
                )
            }
            IndexDataError::UnsortedHubs { vertex } => {
                write!(
                    f,
                    "label of vertex {vertex} is not strictly ascending by hub"
                )
            }
            IndexDataError::HighwayDiagonal { rank } => {
                write!(f, "highway diagonal entry {rank} is non-zero")
            }
            IndexDataError::HighwayAsymmetric { a, b } => {
                write!(f, "highway entries ({a}, {b}) and ({b}, {a}) disagree")
            }
        }
    }
}

impl std::error::Error for IndexDataError {}

/// A borrowed, zero-copy view of a highway-cover index.
///
/// Five slices, layout-identical to the owned
/// [`HighwayCoverIndex`](crate::HighwayCoverIndex); see the module docs.
/// `Copy`, so pass it by value. All query entry points
/// ([`query_with`](IndexView::query_with) and friends) live on this type.
#[derive(Clone, Copy, Debug)]
pub struct IndexView<'a> {
    /// Landmark rank → vertex id, in ranking order.
    pub(crate) landmarks: &'a [VertexId],
    /// Vertex id → landmark rank, or [`NOT_A_LANDMARK`]; length is the
    /// vertex count.
    pub(crate) landmark_rank: &'a [u32],
    /// CSR offsets into `label_entries`; length `n + 1`.
    pub(crate) label_offsets: &'a [u64],
    /// Packed label words, hub-ascending (hence integer-ascending) within
    /// each vertex.
    pub(crate) label_entries: LabelEntries<'a>,
    /// Row-major `k × k` exact landmark-to-landmark distances (the
    /// patch's copy when it has one).
    pub(crate) highway: &'a [u32],
    /// Label edits over the flat arrays above; `None` for a plain index.
    pub(crate) patch: Option<&'a LabelPatch>,
}

impl<'a> IndexView<'a> {
    /// Builds a validated view over raw index arrays.
    ///
    /// Checks every structural invariant the query engine indexes by:
    /// label offsets monotone and spanning the entry array, entry hubs
    /// strictly ascending and `< k`, `landmarks`/`landmark_rank` mutually
    /// inverse, highway `k × k` with zero diagonal and symmetric. Both
    /// entry widths get the same checks and the same typed errors.
    /// `O(n + entries + k²)` — run once per load. Semantic correctness of
    /// the *distances* is not (cannot cheaply be) verified here; a
    /// tampered-but-well-formed file yields wrong answers, never panics or
    /// UB.
    pub fn from_parts(
        landmarks: &'a [VertexId],
        landmark_rank: &'a [u32],
        label_offsets: &'a [u64],
        label_entries: LabelEntries<'a>,
        highway: &'a [u32],
    ) -> Result<Self, IndexDataError> {
        let view = Self::from_parts_unchecked(
            landmarks,
            landmark_rank,
            label_offsets,
            label_entries,
            highway,
        );
        view.validate()?;
        Ok(view)
    }

    /// Builds a view **without validating** (see
    /// [`from_parts`](IndexView::from_parts) for what is skipped).
    ///
    /// Still a safe function: malformed arrays can cause wrong answers or
    /// panics later, never undefined behaviour. Use only on arrays that
    /// already passed validation.
    pub fn from_parts_unchecked(
        landmarks: &'a [VertexId],
        landmark_rank: &'a [u32],
        label_offsets: &'a [u64],
        label_entries: LabelEntries<'a>,
        highway: &'a [u32],
    ) -> Self {
        Self {
            landmarks,
            landmark_rank,
            label_offsets,
            label_entries,
            highway,
            patch: None,
        }
    }

    /// This (plain, flat) view with `patch`'s edits over it — the state a
    /// patched generation serves. Labels and the highway read through the
    /// patch; a folded patch replaces the flat arrays with its own index.
    /// An empty patch yields the plain view, so queries run the plain
    /// path.
    pub fn with_patch(self, patch: &'a LabelPatch) -> Self {
        let mut view = match &patch.folded {
            Some(index) => index.as_view(),
            None => self,
        };
        if let Some(highway) = &patch.highway {
            view.highway = highway;
        }
        view.patch = (patch.num_patched() > 0).then_some(patch);
        view
    }

    /// The flat base label of `v` in width `W`.
    #[inline]
    pub(crate) fn base_words<W: LabelWord>(&self, words: &'a [W], v: VertexId) -> &'a [W] {
        let lo = self.label_offsets[v as usize] as usize;
        let hi = self.label_offsets[v as usize + 1] as usize;
        &words[lo..hi]
    }

    /// The current label of `v` in width `W`: the patch's list when `v`
    /// is patched, the base's otherwise.
    #[inline]
    pub(crate) fn words<W: PatchWord>(&self, words: &'a [W], v: VertexId) -> &'a [W] {
        match self.patch.and_then(|p| p.get::<W>(v)) {
            Some(list) => list,
            None => self.base_words(words, v),
        }
    }

    /// The current label of `v` as a one-vertex [`LabelEntries`].
    pub(crate) fn label_words(&self, v: VertexId) -> LabelEntries<'a> {
        match self.label_entries {
            LabelEntries::Narrow(w) => LabelEntries::Narrow(self.words(w, v)),
            LabelEntries::Wide(w) => LabelEntries::Wide(self.words(w, v)),
        }
    }

    fn validate(&self) -> Result<(), IndexDataError> {
        let n = self.landmark_rank.len();
        let k = self.landmarks.len();
        if self.label_offsets.len() != n + 1 {
            return Err(IndexDataError::OffsetsLength {
                expected: n + 1,
                found: self.label_offsets.len(),
            });
        }
        if self.label_offsets[0] != 0 {
            return Err(IndexDataError::NonZeroFirstOffset);
        }
        let mut prev = 0u64;
        for (v, &off) in self.label_offsets.iter().enumerate().skip(1) {
            if off < prev {
                return Err(IndexDataError::NonMonotoneOffsets { vertex: v - 1 });
            }
            prev = off;
        }
        if prev != self.label_entries.len() as u64 {
            return Err(IndexDataError::EntriesLengthMismatch {
                offsets_total: prev,
                entries_len: self.label_entries.len(),
            });
        }
        if k > n {
            return Err(IndexDataError::TooManyLandmarks {
                landmarks: k,
                vertices: n,
            });
        }
        if self.highway.len() != k * k {
            return Err(IndexDataError::HighwayShape {
                landmarks: k,
                found: self.highway.len(),
            });
        }
        // `landmarks` and `landmark_rank` must be mutually inverse.
        for (rank, &v) in self.landmarks.iter().enumerate() {
            if (v as usize) >= n {
                return Err(IndexDataError::LandmarkOutOfRange { rank, vertex: v });
            }
            if self.landmark_rank[v as usize] != rank as u32 {
                return Err(IndexDataError::RankTableMismatch { vertex: v });
            }
        }
        for (v, &rank) in self.landmark_rank.iter().enumerate() {
            if rank != NOT_A_LANDMARK
                && (rank as usize >= k || self.landmarks[rank as usize] as usize != v)
            {
                return Err(IndexDataError::RankTableMismatch {
                    vertex: v as VertexId,
                });
            }
        }
        match self.label_entries {
            LabelEntries::Narrow(words) => validate_labels(self.label_offsets, words, k)?,
            LabelEntries::Wide(words) => validate_labels(self.label_offsets, words, k)?,
        }
        // Highway: zero diagonal, symmetric.
        for a in 0..k {
            if self.highway[a * k + a] != 0 {
                return Err(IndexDataError::HighwayDiagonal { rank: a });
            }
            for b in (a + 1)..k {
                if self.highway[a * k + b] != self.highway[b * k + a] {
                    return Err(IndexDataError::HighwayAsymmetric { a, b });
                }
            }
        }
        Ok(())
    }

    /// Number of landmarks in the index.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Vertex count of the graph this index was built for.
    pub fn num_vertices(&self) -> usize {
        self.landmark_rank.len()
    }

    /// The `(hub rank, distance)` label entries of vertex `v`, hub-sorted
    /// (through the patch, if any).
    pub fn label(&self, v: VertexId) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.label_words(v).iter()
    }

    /// Total label entries: the flat base's, adjusted by the patch.
    pub fn num_label_entries(&self) -> usize {
        let base = self.label_entries.len();
        let Some(patch) = self.patch else {
            return base;
        };
        patch.vertices().fold(base, |total, v| {
            let lo = self.label_offsets[v as usize] as usize;
            let hi = self.label_offsets[v as usize + 1] as usize;
            total - (hi - lo) + self.label_words(v).len()
        })
    }

    /// Whether vertex `v` is a landmark.
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.landmark_rank[v as usize] != NOT_A_LANDMARK
    }

    /// Landmark rank → vertex id, in ranking order (for serialisation).
    pub fn landmarks(&self) -> &'a [VertexId] {
        self.landmarks
    }

    /// Vertex id → landmark rank array (for serialisation).
    pub fn landmark_rank(&self) -> &'a [u32] {
        self.landmark_rank
    }

    /// CSR label offsets of the flat base, `n + 1` entries (for
    /// serialisation; a patch's lists are not in them).
    pub fn label_offsets(&self) -> &'a [u64] {
        self.label_offsets
    }

    /// Flat packed label words of the base, narrow or wide (for
    /// serialisation; a patch's lists are not in them).
    pub fn label_entries(&self) -> LabelEntries<'a> {
        self.label_entries
    }

    /// Row-major `k × k` highway matrix (the patched one, if any).
    pub fn highway(&self) -> &'a [u32] {
        self.highway
    }

    /// Copies the view into an owned [`HighwayCoverIndex`], in the entry
    /// width its labels call for (a wide view whose labels fit narrow
    /// words comes out narrow). A patched view is flattened: this is the
    /// checkpoint's copy of base + patch.
    pub fn to_owned_index(&self) -> HighwayCoverIndex {
        self.flatten(false)
    }

    /// [`to_owned_index`](Self::to_owned_index), forced to wide words
    /// when `wide` is set (a width fold).
    pub(crate) fn flatten(&self, wide: bool) -> HighwayCoverIndex {
        let k = self.landmarks.len();
        let (label_offsets, label_entries) = match self.patch {
            None => {
                let entries = self.label_entries;
                let max_dist = entries.iter().map(|(_, d)| d).max().unwrap_or(0);
                let packed = LabelVec::pack(k, max_dist, wide, entries.len(), entries.iter());
                (self.label_offsets.to_vec(), packed)
            }
            Some(_) => {
                let n = self.num_vertices();
                let mut offsets = Vec::with_capacity(n + 1);
                offsets.push(0u64);
                let (mut total, mut max_dist) = (0usize, 0u32);
                for v in 0..n as VertexId {
                    let label = self.label_words(v);
                    total += label.len();
                    offsets.push(total as u64);
                    max_dist = label.iter().fold(max_dist, |m, (_, d)| m.max(d));
                }
                let pairs = (0..n as VertexId).flat_map(|v| self.label_words(v).iter());
                (offsets, LabelVec::pack(k, max_dist, wide, total, pairs))
            }
        };
        HighwayCoverIndex {
            landmarks: self.landmarks.to_vec(),
            landmark_rank: self.landmark_rank.to_vec(),
            label_offsets,
            label_entries,
            highway: self.highway.to_vec(),
        }
    }

    /// Size statistics for logging and tuning (of base + patch).
    pub fn stats(&self) -> IndexStats {
        let total = self.num_label_entries();
        let n = self.num_vertices();
        let max = (0..n as VertexId)
            .map(|v| self.label_words(v).len())
            .max()
            .unwrap_or(0);
        let bytes = std::mem::size_of_val(self.landmarks)
            + std::mem::size_of_val(self.landmark_rank)
            + std::mem::size_of_val(self.label_offsets)
            + total * self.label_entries.word_bytes()
            + std::mem::size_of_val(self.highway);
        IndexStats {
            num_landmarks: self.landmarks.len(),
            total_label_entries: total,
            avg_label_size: total as f64 / n.max(1) as f64,
            max_label_size: max,
            bytes,
        }
    }
}

/// Label checks shared by both widths: every hub `< k` and strictly
/// ascending within each vertex. Because hubs sit in the high half-word,
/// strict hub ascent is exactly strict ascent of the packed words.
fn validate_labels<W: LabelWord>(
    offsets: &[u64],
    words: &[W],
    k: usize,
) -> Result<(), IndexDataError> {
    for (v, span) in offsets.windows(2).enumerate() {
        let mut last: Option<u32> = None;
        for &word in &words[span[0] as usize..span[1] as usize] {
            let hub = word.hub();
            if hub as usize >= k {
                return Err(IndexDataError::HubOutOfRange { vertex: v, hub });
            }
            if last.is_some_and(|l| hub <= l) {
                return Err(IndexDataError::UnsortedHubs { vertex: v });
            }
            last = Some(hub);
        }
    }
    Ok(())
}

impl<'a> From<&'a HighwayCoverIndex> for IndexView<'a> {
    fn from(idx: &'a HighwayCoverIndex) -> Self {
        idx.as_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use hcl_core::testkit;

    /// Packs parallel hub/dist arrays — the shape tests are written in.
    fn pack<W: LabelWord>(hubs: &[u32], dists: &[u32]) -> Vec<W> {
        hubs.iter()
            .zip(dists)
            .map(|(&h, &d)| W::pack(h, d))
            .collect()
    }

    #[test]
    fn pack_unpack_roundtrips_and_orders_by_hub() {
        for (h, d) in [(0u32, 0u32), (1, u32::MAX), (u32::MAX, 7), (3, 3)] {
            let w = u64::pack(h, d);
            assert_eq!((w.hub(), w.dist()), (h, d));
            assert_eq!(w.hub_bits(), u64::pack(h, 0));
        }
        for (h, d) in [(0u32, 0u32), (1, 0xFFFF), (0xFFFF, 7), (3, 3)] {
            let w = u32::pack(h, d);
            assert_eq!((w.hub(), w.dist()), (h, d));
            assert_eq!(w.hub_bits(), u32::pack(h, 0));
        }
        // Hub dominates the packed ordering regardless of distances.
        assert!(u64::pack(1, u32::MAX) < u64::pack(2, 0));
        assert!(u32::pack(1, 0xFFFF) < u32::pack(2, 0));
        // The width rule: both the hub and the distance must fit 16 bits.
        assert!(fits_narrow(1 << 16, 0xFFFF));
        assert!(!fits_narrow((1 << 16) + 1, 0));
        assert!(!fits_narrow(1, 0x1_0000));
    }

    #[test]
    fn build_output_validates_cleanly() {
        for k in [0, 1, 4, 16] {
            let g = testkit::erdos_renyi(50, 0.08, 9);
            let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: k });
            let v = idx.as_view();
            assert!(matches!(v.label_entries(), LabelEntries::Narrow(_)));
            let revalidated = IndexView::from_parts(
                v.landmarks(),
                v.landmark_rank(),
                v.label_offsets(),
                v.label_entries(),
                v.highway(),
            )
            .expect("freshly built index must validate");
            assert_eq!(revalidated.num_landmarks(), idx.num_landmarks());
            assert_eq!(revalidated.num_vertices(), idx.num_vertices());
        }
    }

    #[test]
    fn to_owned_index_roundtrips() {
        let g = testkit::grid(5, 5);
        let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 6 });
        let copy = idx.as_view().to_owned_index();
        for v in 0..25 {
            assert_eq!(
                idx.label(v).collect::<Vec<_>>(),
                copy.label(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(idx.stats().bytes, copy.stats().bytes);

        // A wide view of narrow-sized labels comes out narrow, with the
        // same labels.
        let v = idx.as_view();
        let wide: Vec<u64> = v
            .label_entries()
            .iter()
            .map(|(h, d)| u64::pack(h, d))
            .collect();
        let wide_view = IndexView::from_parts(
            v.landmarks(),
            v.landmark_rank(),
            v.label_offsets(),
            LabelEntries::Wide(&wide),
            v.highway(),
        )
        .expect("wide copy validates");
        assert_eq!(wide_view.stats().bytes, idx.stats().bytes + 4 * wide.len());
        let narrowed = wide_view.to_owned_index();
        assert_eq!(narrowed.as_view().label_entries(), v.label_entries());
    }

    #[test]
    fn from_parts_rejects_malformed_arrays() {
        // Minimal 2-vertex, 1-landmark shape, checked at both widths.
        let landmarks: &[u32] = &[0];
        let rank: &[u32] = &[0, NOT_A_LANDMARK];
        let offsets: &[u64] = &[0, 1, 2];
        let highway: &[u32] = &[0];
        let (narrow, wide) = (pack::<u32>(&[0, 0], &[0, 1]), pack::<u64>(&[0, 0], &[0, 1]));
        let bad_hub = (pack::<u32>(&[5, 0], &[0, 1]), pack::<u64>(&[5, 0], &[0, 1]));
        // Duplicate hub within one vertex label.
        let dup = (pack::<u32>(&[0, 0], &[0, 1]), pack::<u64>(&[0, 0], &[0, 1]));
        let one = (pack::<u32>(&[0], &[0]), pack::<u64>(&[0], &[0]));
        for (entries, bad_hub, dup, one) in [
            (
                LabelEntries::Narrow(&narrow),
                LabelEntries::Narrow(&bad_hub.0),
                LabelEntries::Narrow(&dup.0),
                LabelEntries::Narrow(&one.0),
            ),
            (
                LabelEntries::Wide(&wide),
                LabelEntries::Wide(&bad_hub.1),
                LabelEntries::Wide(&dup.1),
                LabelEntries::Wide(&one.1),
            ),
        ] {
            assert!(IndexView::from_parts(landmarks, rank, offsets, entries, highway).is_ok());
            assert!(matches!(
                IndexView::from_parts(landmarks, rank, &[0, 1], entries, highway).unwrap_err(),
                IndexDataError::OffsetsLength { .. }
            ));
            assert!(matches!(
                IndexView::from_parts(landmarks, rank, &[0, 2, 1], entries, highway).unwrap_err(),
                IndexDataError::NonMonotoneOffsets { .. }
            ));
            assert!(matches!(
                IndexView::from_parts(landmarks, rank, &[0, 1, 3], entries, highway).unwrap_err(),
                IndexDataError::EntriesLengthMismatch { .. }
            ));
            assert!(matches!(
                IndexView::from_parts(landmarks, rank, offsets, bad_hub, highway).unwrap_err(),
                IndexDataError::HubOutOfRange { hub: 5, .. }
            ));
            assert!(matches!(
                IndexView::from_parts(landmarks, rank, offsets, entries, &[0, 0]).unwrap_err(),
                IndexDataError::HighwayShape { .. }
            ));
            assert!(matches!(
                IndexView::from_parts(&[9], rank, offsets, entries, highway).unwrap_err(),
                IndexDataError::LandmarkOutOfRange { vertex: 9, .. }
            ));
            assert!(matches!(
                IndexView::from_parts(landmarks, &[0, 0], offsets, entries, highway).unwrap_err(),
                IndexDataError::RankTableMismatch { .. }
            ));
            assert!(matches!(
                IndexView::from_parts(landmarks, rank, offsets, entries, &[3]).unwrap_err(),
                IndexDataError::HighwayDiagonal { .. }
            ));
            assert!(matches!(
                IndexView::from_parts(&[0, 1], &[0, 1], &[0, 2, 2], dup, &[0, 1, 1, 0])
                    .unwrap_err(),
                IndexDataError::UnsortedHubs { vertex: 0 }
            ));
            // Asymmetric highway on the same 2-landmark shape.
            assert!(matches!(
                IndexView::from_parts(&[0, 1], &[0, 1], &[0, 1, 1], one, &[0, 1, 2, 0])
                    .unwrap_err(),
                IndexDataError::HighwayAsymmetric { .. }
            ));
        }
    }
}
