//! On-disk persistence for highway-cover indexes: a versioned, checksummed
//! binary container (`.hcl`) served back **zero-copy** through a memory
//! map.
//!
//! The motivating workflow is build-once / serve-many: one process runs the
//! expensive labelling and [`save`]s the result; any number of serving
//! processes [`IndexStore::open`] the file and answer queries immediately —
//! no edge-list parse, no rebuild, no deserialisation. On the supported
//! fast path (64-bit little-endian Unix) the file is `mmap`'d and the
//! little-endian fixed-width sections are reinterpreted in place as the
//! `GraphView` / `IndexView` slices the query engine runs on, so "load
//! time" is one page-table walk plus one validation pass, and resident
//! memory is shared between processes by the page cache.
//!
//! ```no_run
//! # use hcl_core::{Graph, testkit};
//! # use hcl_index::{HighwayCoverIndex, IndexConfig, QueryContext};
//! let graph = testkit::barabasi_albert(10_000, 5, 42);
//! let index = HighwayCoverIndex::build(&graph, IndexConfig::default());
//! hcl_store::save("web.hcl", &graph, &index)?;
//!
//! // …later, in a serving process:
//! let store = hcl_store::IndexStore::open("web.hcl")?;
//! let mut ctx = QueryContext::new();
//! let d = store.index().query_with(store.graph(), &mut ctx, 17, 4711);
//! # Ok::<(), hcl_store::StoreError>(())
//! ```
//!
//! Integrity: the container carries magic, version, declared length, and a
//! CRC-64 over the whole file, and every structural invariant of the CSR
//! arrays is validated once at open. Corrupt, truncated, or tampered input
//! yields a typed [`StoreError`] — never a panic, never UB. The full-file
//! CRC pass is the one validation cost that scales with file size, and it
//! exists to catch *storage* corruption; for files the process just wrote
//! (or the operator vouches for), [`IndexStore::open_trusted`] skips
//! exactly that pass while keeping every header, geometry, and semantic
//! check — making serving fan-out nearly free. See [`format`](self) docs in
//! `format.rs` for the byte layout, including the narrow and wide
//! label-entry sections.
//!
//! Platforms without the mmap fast path (or callers preferring a private
//! copy) get the same API via [`IndexStore::open_preloaded`] /
//! [`IndexStore::from_bytes`], which read into an aligned heap buffer.
//!
//! # Live state: base + patch
//!
//! A store is its validated **base** — the container's sections, mapped
//! or in an aligned buffer, behind an `Arc` — plus an optional owned
//! [`Patch`]: the adjacency lists and labels that edge edits changed,
//! the edge count, and a highway copy once an edit changed it. Opening a
//! file with pending deltas (a v6 journal section, a delta WAL) replays
//! them into a patch over the base; a live update publishes a generation
//! with [`IndexStore::with_patch`], which shares the base and clones
//! nothing but the patch. [`IndexStore::graph`] and
//! [`IndexStore::index`] serve base + patch; the full graph and index are
//! materialised only when a checkpoint writes a new container
//! ([`IndexStore::to_owned_parts`], [`checkpoint`]).
#![deny(missing_docs)]
// All unsafe in this crate is confined to `backing.rs` (mmap FFI and the
// aligned-buffer casts); inside an unsafe fn every unsafe operation must
// still be in an explicit `unsafe {}` block with its own SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]

mod backing;
mod checksum;
pub mod durable;
mod error;
mod format;
mod generation;
mod wal;

pub use checksum::crc64;
pub use error::StoreError;
pub use format::{
    rewrite_checksum, serialize, serialize_v6_with, serialize_with, serialize_with_journal,
    serialize_with_stats, BuildInfo, SectionInfo, StoreMeta, StoredBuildStats, StoredJournal,
    FORMAT_VERSION, HEADER_LEN, MAGIC, OLDEST_READABLE_VERSION,
};
pub use generation::{Generation, GenerationHandle};
pub use wal::{wal_path, Wal, WalInfo, WAL_FRAME_HEADER_LEN, WAL_HEADER_LEN};
// The strategy type recorded in [`BuildInfo`] lives in `hcl-index`;
// re-exported so store-level tooling does not need the extra import.
pub use hcl_index::SelectionStrategy;

use backing::{cast_u32s, cast_u64s, AlignedBuf, Backing};
use format::{LabelRanges, Layout};
use hcl_core::{AdjacencyPatch, DeltaGraph, DynGraphView, EdgeDelta, Graph, GraphView, VertexId};
use hcl_index::{BuildContext, HighwayCoverIndex, IndexView, LabelEntries, LabelPatch};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Serialises `graph` and `index` and writes them to `path` atomically,
/// leaving the header's build-metadata bytes unrecorded; see [`save_with`].
pub fn save(
    path: impl AsRef<Path>,
    graph: &Graph,
    index: &HighwayCoverIndex,
) -> Result<u64, StoreError> {
    save_with(path, graph, index, BuildInfo::default())
}

/// Serialises `graph` and `index` — recording `build` (builder threads and
/// landmark batch size) in the container header — and writes them to
/// `path` atomically: the bytes go to a temporary sibling file which is
/// then renamed over the target, so a concurrent reader either sees the
/// old complete container or the new one — never a truncated half-write,
/// and a process already serving the old file via mmap keeps its mapping
/// (the old inode stays alive until unmapped) instead of faulting on
/// truncated pages. Returns the number of bytes written.
pub fn save_with(
    path: impl AsRef<Path>,
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
) -> Result<u64, StoreError> {
    let path = path.as_ref();
    let bytes = serialize_with(graph, index, build)?;
    write_atomically(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Durable write-to-temporary-then-rename (temp fsync, rename, directory
/// fsync — see [`durable`]), shared by every save entry point.
///
/// A new container supersedes the delta WAL beside it, so the WAL is
/// removed afterwards (best effort). Until then it is stale — bound to
/// the old checksum — or, for a byte-identical rewrite, still describes
/// the state before the save: either way a crash in between reopens to
/// the old state or the new one.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    // `SystemIo` proceeds at every step, so the outcome is always
    // `Committed`; the `Crashed` arm only exists for fault simulators.
    durable::publish_with(path, bytes, &durable::SystemIo)?;
    if std::fs::remove_file(wal_path(path)).is_ok() {
        durable::sync_parent_dir(path).ok();
    }
    Ok(())
}

/// [`save_with`] plus the build's thread-count-invariant counters recorded
/// in the container's optional `build_stats` section (see
/// [`StoredBuildStats`] for the payload layout and the determinism
/// rationale). Returns the number of bytes written.
pub fn save_with_stats(
    path: impl AsRef<Path>,
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    stats: &StoredBuildStats,
) -> Result<u64, StoreError> {
    let path = path.as_ref();
    let bytes = serialize_with_stats(graph, index, build, stats)?;
    write_atomically(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// [`save_with`] for a journalled container: `graph`/`index` are the
/// **base** (as-last-compacted) state and `journal` the deltas applied
/// since — see [`serialize_with_journal`]. Returns the bytes written.
pub fn save_with_journal(
    path: impl AsRef<Path>,
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    journal: &StoredJournal,
) -> Result<u64, StoreError> {
    let path = path.as_ref();
    let bytes = serialize_with_journal(graph, index, build, journal)?;
    write_atomically(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// What a [`checkpoint`] wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Container size in bytes.
    pub bytes: u64,
    /// The new container's header checksum — what a WAL must bind to.
    pub checksum: u64,
}

/// Writes `graph`/`index` as the container at `path` with an empty
/// journal section and `compactions` as its counter, through the durable
/// publish, then removes the delta WAL beside it (best effort).
///
/// This is the checkpoint of the live-update path: the WAL's deltas are
/// folded into the new base sections. The new checksum makes the old WAL
/// stale, so a crash between the publish and the removal reopens to the
/// checkpointed state.
pub fn checkpoint(
    path: impl AsRef<Path>,
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    compactions: u64,
) -> Result<Checkpoint, StoreError> {
    let journal = StoredJournal {
        deltas: Vec::new(),
        compactions,
    };
    let bytes = serialize_with_journal(graph, index, build, &journal)?;
    write_atomically(path.as_ref(), &bytes)?;
    Ok(Checkpoint {
        bytes: bytes.len() as u64,
        checksum: format::stored_checksum(&bytes),
    })
}

/// What [`compact_file`] did, for logging and `inspect`-style tooling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Journal and WAL deltas folded into the base sections.
    pub deltas_folded: usize,
    /// Container size before compaction, in bytes.
    pub bytes_before: u64,
    /// Container size after compaction, in bytes.
    pub bytes_after: u64,
    /// The container's compaction counter after this compaction.
    pub compactions: u64,
}

/// Folds a container's pending deltas — its journal section and its
/// delta WAL — into its base sections: opens the file (which replays
/// them and repairs the labels), then [`checkpoint`]s the replayed state
/// with the compaction counter bumped.
///
/// A crash mid-compaction leaves the old container and its WAL intact. A
/// file with nothing pending is rewritten only when it predates the
/// current format version, upgrading it in place; otherwise it is left
/// untouched.
pub fn compact_file(path: impl AsRef<Path>) -> Result<CompactReport, StoreError> {
    let path = path.as_ref();
    let store = IndexStore::open(path)?;
    let meta = store.meta();
    let pending = store.pending_deltas();
    let compactions = store.journal().map_or(0, |j| j.compactions);
    if pending == 0 && meta.version >= FORMAT_VERSION {
        let len = store.len_bytes();
        return Ok(CompactReport {
            deltas_folded: 0,
            bytes_before: len,
            bytes_after: len,
            compactions,
        });
    }
    let (graph, index) = store.to_owned_parts();
    let compactions = compactions + u64::from(pending > 0);
    let written = checkpoint(path, &graph, &index, meta.build, compactions)?;
    Ok(CompactReport {
        deltas_folded: pending,
        bytes_before: meta.file_len,
        bytes_after: written.bytes,
        compactions,
    })
}

/// How much of the integrity machinery an open pays for; see
/// [`IndexStore::open`] vs [`IndexStore::open_trusted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpenMode {
    /// Full validation including the whole-file CRC-64 pass.
    Validated,
    /// Skip the CRC pass; header, section geometry, and semantic CSR/label
    /// validation still run.
    Trusted,
}

/// The edits a generation serves over its container's base sections:
/// adjacency ([`AdjacencyPatch`]) and labels ([`LabelPatch`]). Both are
/// minimal — they hold exactly the vertices whose list differs from the
/// base — so a patch costs memory in proportion to what the edits
/// changed, not to the graph.
#[derive(Clone, Debug, Default)]
pub struct Patch {
    /// Adjacency edits and the edge count.
    pub graph: AdjacencyPatch,
    /// Label edits and the highway copy.
    pub labels: LabelPatch,
}

impl Patch {
    /// A patch with no edits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty() && self.labels.is_empty()
    }
}

/// An opened, validated `.hcl` container serving borrowed graph and index
/// views.
///
/// All validation (header, checksum, section geometry, CSR and labelling
/// invariants) happens in the constructors; afterwards
/// [`graph`](IndexStore::graph) and [`index`](IndexStore::index) are
/// pointer arithmetic over the backing bytes (plus the patch, if any). The store must outlive the views it
/// hands out, which the borrow checker enforces.
///
/// The validated base is shared: [`with_patch`](IndexStore::with_patch)
/// makes another store over the same bytes that serves a [`Patch`] over
/// them, which is how a live update publishes a generation without
/// writing, re-parsing or copying a container.
pub struct IndexStore {
    base: Arc<Base>,
    /// The delta WAL found beside the file at open (`None` when there
    /// was none, or the store was not opened from a path).
    wal: Option<WalInfo>,
    /// The edits over the base sections: the journal and WAL replayed at
    /// open, or a patch handed to [`with_patch`](IndexStore::with_patch).
    /// `None` when the base sections are the current state.
    patch: Option<Arc<Patch>>,
}

/// The immutable, validated container every store over it shares.
struct Base {
    backing: Backing,
    layout: Layout,
    /// The decoded delta journal (`None` when the file has no journal
    /// section).
    journal: Option<StoredJournal>,
}

impl std::fmt::Debug for IndexStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexStore")
            .field("backing", &self.backing_kind())
            .field("meta", &self.base.layout.meta)
            .finish()
    }
}

impl IndexStore {
    /// Opens a container with **full validation**, preferring the
    /// zero-copy memory-mapped backing and falling back to a heap copy
    /// where mmap is unavailable. Pending deltas replay in order: the
    /// container's journal section, then the delta WAL beside it
    /// ([`wal_path`]) when it is bound to this container.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_mode(path, OpenMode::Validated)
    }

    /// Opens a container **without the whole-file CRC pass** — for files
    /// this process (or a trusted pipeline stage) just wrote, where the
    /// checksum would only re-verify bytes the page cache already holds.
    ///
    /// Everything cheap still runs: magic, version, declared length,
    /// section-table geometry, and the full semantic CSR/label validation
    /// (`O(n + entries + k²)`, but without touching every payload byte a
    /// second time for the CRC). What is *lost* is detection of silent
    /// storage-level corruption inside array payloads whose values happen
    /// to stay structurally plausible — distances, for instance. A
    /// tampered-but-well-formed file therefore yields wrong answers,
    /// never panics or UB (the same contract as
    /// [`IndexView::from_parts`]); use [`IndexStore::open`] for files of
    /// unknown provenance. WAL frames are CRC-checked either way.
    pub fn open_trusted(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_mode(path, OpenMode::Trusted)
    }

    fn open_mode(path: impl AsRef<Path>, mode: OpenMode) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();

        // `not(miri)`: Miri cannot execute the mmap FFI, so under Miri
        // every open takes the aligned heap path below — which is exactly
        // what lets the whole store test suite run under the interpreter.
        #[cfg(all(unix, not(miri), target_pointer_width = "64", target_endian = "little"))]
        {
            if len > 0 {
                if let Ok(map) = backing::mmap::Mmap::map(&file, len as usize) {
                    return Self::from_backing_at(Backing::Mmap(map), mode, path);
                }
            }
        }
        let buf = AlignedBuf::read_from(&mut file, len as usize)?;
        Self::from_backing_at(Backing::Heap(buf), mode, path)
    }

    /// Opens a container by reading it fully into an aligned heap buffer —
    /// the portable path, also useful when the file lives on storage where
    /// mapped page faults are slower than one sequential read.
    pub fn open_preloaded(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let buf = AlignedBuf::read_from(&mut file, len as usize)?;
        Self::from_backing_at(Backing::Heap(buf), OpenMode::Validated, path)
    }

    /// Validates an in-memory container image (copied into an aligned heap
    /// buffer). Handy for tests and for receiving index images over the
    /// network.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let base = Base::validate(
            Backing::Heap(AlignedBuf::copy_from(bytes)),
            OpenMode::Validated,
        )?;
        Self::replay(base, None)
    }

    /// [`from_bytes`](IndexStore::from_bytes) without the CRC pass; the
    /// in-memory counterpart of [`open_trusted`](IndexStore::open_trusted).
    pub fn from_bytes_trusted(bytes: &[u8]) -> Result<Self, StoreError> {
        let base = Base::validate(
            Backing::Heap(AlignedBuf::copy_from(bytes)),
            OpenMode::Trusted,
        )?;
        Self::replay(base, None)
    }

    /// A store over a graph and index built in this process, with no file
    /// behind it: they are serialised once into an in-memory container
    /// (trusted — a CRC pass over bytes produced here proves nothing).
    pub fn from_owned(graph: &Graph, index: &HighwayCoverIndex) -> Result<Self, StoreError> {
        Self::from_bytes_trusted(&serialize(graph, index)?)
    }

    /// Validates `backing` and replays its journal plus the WAL beside
    /// `path`.
    fn from_backing_at(backing: Backing, mode: OpenMode, path: &Path) -> Result<Self, StoreError> {
        let base = Base::validate(backing, mode)?;
        let wal = wal::scan(&wal_path(path), base.layout.meta.checksum)?;
        Self::replay(base, wal)
    }

    /// Replays the journal section and then the WAL's deltas over the
    /// base sections into a [`Patch`] — applying each edit to the
    /// adjacency patch and repairing the labels incrementally — so the
    /// store serves *current* state without copying the base. A delta
    /// that cannot be applied is a hard error: silently dropping edits
    /// would serve stale answers as if they were current.
    fn replay(base: Base, wal: Option<wal::WalScan>) -> Result<Self, StoreError> {
        let journal: &[EdgeDelta] = base.journal.as_ref().map_or(&[], |j| &j.deltas);
        let logged: &[EdgeDelta] = wal.as_ref().map_or(&[], |w| &w.deltas);
        let mut patch = Patch::new();
        if !journal.is_empty() || !logged.is_empty() {
            let mut overlay = DeltaGraph::new(base.graph());
            let mut cx = BuildContext::new();
            let sources = [("journal", journal), ("WAL", logged)];
            for (source, deltas) in sources {
                for (i, &delta) in deltas.iter().enumerate() {
                    hcl_index::repair(
                        base.index(),
                        &mut patch.labels,
                        &mut overlay,
                        delta,
                        &mut cx,
                    )
                    .map_err(|e| StoreError::Corrupt {
                        what: format!("{source} delta {i} ({delta}) cannot be applied: {e}"),
                    })?;
                }
            }
            patch.graph = overlay.into_patch();
        }
        Ok(Self {
            base: Arc::new(base),
            wal: wal.map(|w| w.info),
            patch: (!patch.is_empty()).then(|| Arc::new(patch)),
        })
    }

    /// Another store over this store's validated base bytes that serves
    /// `patch` over them as its current state — the generation a live
    /// update publishes. Nothing is copied or re-parsed: the base is
    /// shared, the patch is shared. [`verify_checksum`](
    /// IndexStore::verify_checksum), [`meta`](IndexStore::meta) and the
    /// `base_*` accessors keep describing the base bytes; the new store
    /// reports no WAL. An empty patch serves the base sections as they
    /// are.
    pub fn with_patch(&self, patch: Arc<Patch>) -> Self {
        Self {
            base: Arc::clone(&self.base),
            wal: None,
            patch: (!patch.is_empty()).then_some(patch),
        }
    }

    /// The edits this store serves over its base sections, or `None` when
    /// the base sections are the current state.
    pub fn patch(&self) -> Option<&Patch> {
        self.patch.as_deref()
    }

    /// The *current* graph: the base sections zero-copy from the backing,
    /// with the adjacency patch over them when there is one.
    pub fn graph(&self) -> DynGraphView<'_> {
        match &self.patch {
            Some(patch) => patch.graph.view(self.base.graph()),
            None => DynGraphView::Csr(self.base.graph()),
        }
    }

    /// The *current* index: the base sections zero-copy from the backing,
    /// with the label patch over them when there is one.
    pub fn index(&self) -> IndexView<'_> {
        match &self.patch {
            Some(patch) => self.base.index().with_patch(&patch.labels),
            None => self.base.index(),
        }
    }

    /// The graph exactly as stored in the base sections — the
    /// as-last-compacted state a journalled file's deltas replay over.
    /// Identical to [`graph`](IndexStore::graph) when nothing is pending.
    pub fn base_graph(&self) -> GraphView<'_> {
        self.base.graph()
    }

    /// The index exactly as stored in the base sections; see
    /// [`base_graph`](IndexStore::base_graph).
    pub fn base_index(&self) -> IndexView<'_> {
        self.base.index()
    }

    /// The decoded delta journal, or `None` for files written without a
    /// journal section.
    pub fn journal(&self) -> Option<&StoredJournal> {
        self.base.journal.as_ref()
    }

    /// Size in bytes of the journal section on disk (0 when absent).
    pub fn journal_bytes(&self) -> u64 {
        self.base
            .layout
            .journal
            .as_ref()
            .map_or(0, |r| (r.end - r.start) as u64)
    }

    /// The delta WAL found beside the file at open, stale or not (`None`
    /// when there was none, or the store was not opened from a path).
    pub fn wal(&self) -> Option<&WalInfo> {
        self.wal.as_ref()
    }

    /// Deltas replayed at open over the base sections: the journal
    /// section's plus a bound WAL's.
    pub fn pending_deltas(&self) -> usize {
        let journal = self.journal().map_or(0, StoredJournal::len);
        let logged = self.wal.filter(|w| !w.stale).map_or(0, |w| w.deltas);
        journal + logged
    }

    /// Header metadata (counts, version, checksum) of the base container
    /// — available without touching section bytes.
    pub fn meta(&self) -> StoreMeta {
        self.base.layout.meta
    }

    /// Per-section name/offset/size information for inspection tooling
    /// (7 core sections, plus the optional build-stats and journal).
    pub fn sections(&self) -> Vec<SectionInfo> {
        self.base.layout.sections()
    }

    /// The build counters recorded in the container's optional
    /// `build_stats` section, or `None` when the file was written without
    /// one or carries a stats layout this reader does not understand —
    /// deep-inspection tooling degrades gracefully.
    pub fn build_stats(&self) -> Option<StoredBuildStats> {
        let range = self.base.layout.build_stats.clone()?;
        let words = cast_u64s(&self.base.backing.bytes()[range]);
        StoredBuildStats::decode(words, self.base.layout.meta.num_landmarks)
    }

    /// Which backing serves this store: `"mmap"` or `"heap"`.
    pub fn backing_kind(&self) -> &'static str {
        self.base.backing.kind()
    }

    /// Total size of the container in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.base.layout.meta.file_len
    }

    /// Copies the current graph and index into owned structures — a full
    /// deserialisation with the patch flattened in, which is what a
    /// checkpoint writes.
    pub fn to_owned_parts(&self) -> (Graph, HighwayCoverIndex) {
        (self.graph().to_owned_graph(), self.index().to_owned_index())
    }

    /// Re-runs the whole-file CRC-64 pass over this store's base bytes,
    /// comparing against the checksum recorded in the header.
    ///
    /// This is the integrity-scrubber entry point: a store opened via
    /// [`open_trusted`](IndexStore::open_trusted) (which skipped the CRC
    /// pass), or one mapped long enough for storage rot to matter, can be
    /// re-verified in place without reopening. Returns
    /// [`StoreError::ChecksumMismatch`] when the bytes no longer hash to
    /// the header's value.
    pub fn verify_checksum(&self) -> Result<(), StoreError> {
        let computed = format::file_checksum(self.base.backing.bytes());
        let stored = self.base.layout.meta.checksum;
        if computed != stored {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        Ok(())
    }
}

impl Base {
    fn validate(backing: Backing, mode: OpenMode) -> Result<Self, StoreError> {
        #[cfg(target_endian = "big")]
        {
            return Err(StoreError::UnsupportedPlatform {
                why: "zero-copy .hcl serving requires a little-endian host",
            });
        }
        #[cfg(not(target_endian = "big"))]
        {
            let layout = format::parse_and_validate(backing.bytes(), mode == OpenMode::Validated)?;

            // Semantic validation, once: afterwards the accessors can use
            // the unchecked view constructors.
            let bytes = backing.bytes();
            let graph = GraphView::from_csr(
                cast_u64s(&bytes[layout.graph_offsets.clone()]),
                cast_u32s(&bytes[layout.graph_neighbors.clone()]),
            )?;
            let index = IndexView::from_parts(
                cast_u32s(&bytes[layout.landmarks.clone()]),
                cast_u32s(&bytes[layout.landmark_rank.clone()]),
                cast_u64s(&bytes[layout.label_offsets.clone()]),
                label_entries(&layout.labels, bytes),
                cast_u32s(&bytes[layout.highway.clone()]),
            )?;
            if graph.num_vertices() != index.num_vertices() {
                return Err(StoreError::GraphIndexMismatch {
                    graph_vertices: graph.num_vertices(),
                    index_vertices: index.num_vertices(),
                });
            }

            // An undecodable journal is a hard error, like an unappliable
            // delta at replay.
            let journal =
                match &layout.journal {
                    None => None,
                    Some(range) => {
                        let words = cast_u64s(&bytes[range.clone()]);
                        Some(StoredJournal::decode(words).ok_or(StoreError::Corrupt {
                        what: "journal section cannot be decoded (unknown tag, op, or geometry)"
                            .into(),
                    })?)
                    }
                };

            Ok(Self {
                backing,
                layout,
                journal,
            })
        }
    }

    fn graph(&self) -> GraphView<'_> {
        let bytes = self.backing.bytes();
        GraphView::from_csr_unchecked(
            cast_u64s(&bytes[self.layout.graph_offsets.clone()]),
            cast_u32s(&bytes[self.layout.graph_neighbors.clone()]),
        )
    }

    fn index(&self) -> IndexView<'_> {
        let bytes = self.backing.bytes();
        IndexView::from_parts_unchecked(
            cast_u32s(&bytes[self.layout.landmarks.clone()]),
            cast_u32s(&bytes[self.layout.landmark_rank.clone()]),
            cast_u64s(&bytes[self.layout.label_offsets.clone()]),
            label_entries(&self.layout.labels, bytes),
            cast_u32s(&bytes[self.layout.highway.clone()]),
        )
    }
}

/// Fully validates the container at `path` — header, section geometry,
/// whole-file CRC-64, and semantic CSR/label invariants — by reading it
/// into a heap buffer, without constructing a served store; then checks
/// the delta WAL beside it: a bad header or a bad non-final frame is
/// [`StoreError::Corrupt`] (a stale WAL or a torn tail is fine — opens
/// ignore both). Returns the header metadata on success.
///
/// This is what the serving-path scrubber runs against a reload *source*:
/// it always re-reads the file's current bytes (an existing mmap of the
/// old inode would keep serving pre-rename contents), costs no mmap
/// bookkeeping, and drops the buffer before returning. Pending deltas
/// are CRC-checked, not replayed.
pub fn verify_file(path: impl AsRef<Path>) -> Result<StoreMeta, StoreError> {
    let path = path.as_ref();
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let buf = AlignedBuf::read_from(&mut file, len as usize)?;
    let meta = Base::validate(Backing::Heap(buf), OpenMode::Validated)?
        .layout
        .meta;
    wal::scan(&wal_path(path), meta.checksum)?;
    Ok(meta)
}

/// The label-entry words of a layout, narrow or wide, straight from the
/// backing — shared by open-time validation and the served view.
fn label_entries<'a>(labels: &LabelRanges, bytes: &'a [u8]) -> LabelEntries<'a> {
    match labels {
        LabelRanges::Narrow(r) => LabelEntries::Narrow(cast_u32s(&bytes[r.clone()])),
        LabelRanges::Wide(r) => LabelEntries::Wide(cast_u64s(&bytes[r.clone()])),
    }
}

// Keep VertexId in the public-API surface story: sections store plain u32
// vertex ids, and this assert documents (at compile time) the assumption
// the 4-byte element size relies on.
const _: () = assert!(std::mem::size_of::<VertexId>() == 4);
