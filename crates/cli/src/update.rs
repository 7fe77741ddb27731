//! Live edge updates: the engine every serving mode routes `+u v` /
//! `-u v` deltas through.
//!
//! [`UpdateEngine`] keeps the **live** state as the container's validated
//! base plus an owned [`Patch`]: the adjacency lists and labels the
//! deltas changed, maintained incrementally by `hcl-index`'s [`repair`]
//! (never a full rebuild, never a copy of the base). Each batch is made
//! durable before it is acknowledged:
//!
//! * **WAL append.** A committed batch becomes one CRC-framed record
//!   appended to the sidecar `<index>.wal` and `fdatasync`ed: a few dozen
//!   bytes, one dirtied page, however large the container. An open
//!   replays the container's base sections, its journal section (files
//!   written before the WAL) and then the WAL into a patch.
//! * **Checkpoint.** Once `--compact-after N` deltas are pending (or on
//!   `hcl update --compact`), the batch is committed by materialising
//!   base + patch (a CSR concatenation and a label flatten — the only
//!   full copies on this path) and writing them as a fresh container
//!   through the durable publish; the new checksum makes the old WAL
//!   stale, and it is removed. The new file is then reopened as the base
//!   and the patch starts empty.
//!
//! Memory: every generation shares the one mapped base; a generation's
//! own cost is its patch, which holds exactly the vertices whose
//! adjacency or label differs from the base. [`UpdateEngine::publish`]
//! clones the committed patch into the next generation through
//! `IndexStore::with_patch`, in `O(patched vertices)`. Without
//! `--compact-after` the patch grows until a checkpoint. A batch that
//! fails — a bad delta, a failed append — restores the committed patch,
//! which is what is served and on disk.
//!
//! The engine is deliberately transport-agnostic: the `update`
//! subcommand drives it file-to-file, the stdin serve loops drive it a
//! line at a time, and the socket server drives it from `POST /update`
//! batches behind a mutex.
//!
//! This file is on the request-serving path (the `no-panics` lint
//! covers it): every failure degrades into a `Result` the caller can
//! report and count, never a panic that would take a serving loop down.

use hcl_core::{DeltaGraph, DeltaOp, DynGraphView, EdgeDelta, Graph};
use hcl_index::repair::{repair, RepairOutcome};
use hcl_index::{BuildContext, HighwayCoverIndex, IndexView};
use hcl_store::{BuildInfo, GenerationHandle, IndexStore, Patch, StoreError, Wal};
use std::path::PathBuf;
use std::sync::Arc;

/// How one [`UpdateEngine::commit`] made its batch durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Persisted {
    /// Nothing was staged, or there is no file behind the engine.
    Nothing,
    /// One frame of this many bytes appended to the WAL.
    Wal(u64),
    /// The live state written as a new container of this many bytes.
    Checkpoint(u64),
}

/// What one [`UpdateEngine::commit`] did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PersistReport {
    pub(crate) persisted: Persisted,
    /// Whether the pending deltas were folded into the base
    /// (`--compact-after` threshold reached, or an explicit compact).
    pub(crate) compacted: bool,
}

impl PersistReport {
    /// The tail of an update log line: `; N bytes appended to WAL`, `;
    /// checkpointed (N bytes)`, ….
    pub(crate) fn describe(&self) -> String {
        match (self.persisted, self.compacted) {
            (Persisted::Wal(b), _) => format!("; {b} bytes appended to WAL"),
            (Persisted::Checkpoint(b), _) => format!("; checkpointed ({b} bytes)"),
            (Persisted::Nothing, true) => "; journal compacted (in-memory index)".into(),
            (Persisted::Nothing, false) => "; in-memory index, nothing persisted".into(),
        }
    }
}

/// Why a commit failed. `unavailable` means the disk state is no longer
/// known to match the engine (an append could not be undone, or a
/// checkpoint failed after its rename): the engine refuses further
/// updates until a reload reopens the file.
#[derive(Debug)]
pub(crate) struct CommitError {
    pub(crate) message: String,
    pub(crate) unavailable: bool,
}

/// The file behind an engine: where checkpoints go and the WAL that
/// takes every other commit.
struct Disk {
    path: PathBuf,
    wal: Wal,
}

/// Incremental edge-update engine: applies deltas through label repair
/// into a patch over the shared base, commits them durably, and hands
/// out the live state for queries and generation swaps.
pub(crate) struct UpdateEngine {
    /// Build metadata carried into every checkpoint.
    build: BuildInfo,
    /// Checkpoints so far (the container's compaction counter).
    compactions: u64,
    /// Committed deltas not yet folded into the base sections: the
    /// container's journal section plus the WAL.
    pending: usize,
    /// Deltas applied since the last commit, in application order.
    staged: Vec<EdgeDelta>,
    /// The shared base every published generation serves its patch over:
    /// the container the WAL is bound to (or an in-memory image), with no
    /// patch of its own.
    base: IndexStore,
    /// The live edits: the committed patch plus the staged deltas.
    working: Patch,
    /// The last committed edits — what is on disk and what a failed
    /// batch rolls back to.
    committed: Arc<Patch>,
    /// Reused BFS scratch for the repair path.
    cx: BuildContext,
    /// `None` for an in-memory engine (no `--index` to write back to).
    disk: Option<Disk>,
    /// Checkpoint once this many deltas are pending (0 = never).
    compact_after: usize,
    /// A checkpoint failed after its rename: the container on disk is
    /// unknown to the engine.
    poisoned: bool,
}

impl UpdateEngine {
    /// Builds the engine from an opened container: its base and the
    /// patch it serves over it. With a `path`, it binds to that file's
    /// WAL and continues its history: the store must serve what the file
    /// reopens to (it was opened from it, or published by an engine over
    /// it).
    pub(crate) fn from_store(
        store: &IndexStore,
        path: Option<PathBuf>,
        compact_after: usize,
    ) -> Result<Self, String> {
        let (journal_pending, compactions) =
            store.journal().map_or((0, 0), |j| (j.len(), j.compactions));
        let disk = match path {
            Some(path) => {
                let wal = Wal::open(&path, store.meta().checksum)
                    .map_err(|e| format!("opening the delta WAL of {}: {e}", path.display()))?;
                Some(Disk { path, wal })
            }
            None => None,
        };
        let working = store.patch().cloned().unwrap_or_default();
        Ok(Self {
            build: store.meta().build,
            compactions,
            pending: journal_pending + disk.as_ref().map_or(0, |d| d.wal.deltas()),
            staged: Vec::new(),
            base: store.with_patch(Arc::new(Patch::new())),
            committed: Arc::new(working.clone()),
            working,
            cx: BuildContext::new(),
            disk,
            compact_after,
            poisoned: false,
        })
    }

    /// Builds the engine around an index built in memory this session,
    /// over an in-memory image of it: nothing is pending and there is no
    /// file to persist to.
    pub(crate) fn from_owned(
        graph: &Graph,
        index: &HighwayCoverIndex,
        compact_after: usize,
    ) -> Result<Self, String> {
        let store = IndexStore::from_owned(graph, index)
            .map_err(|e| format!("preparing the in-memory index for updates: {e}"))?;
        Self::from_store(&store, None, compact_after)
    }

    /// Stages one delta through incremental label repair. An ineffective
    /// delta (inserting an existing edge, deleting a missing one) returns
    /// `applied: false` and is *not* staged; an invalid one (out-of-range
    /// endpoint, self-loop) is an error and changes nothing.
    pub(crate) fn apply(&mut self, delta: EdgeDelta) -> Result<RepairOutcome, String> {
        let adjacency = std::mem::take(&mut self.working.graph);
        let mut overlay = DeltaGraph::with_patch(self.base.base_graph(), adjacency);
        let outcome = repair(
            self.base.base_index(),
            &mut self.working.labels,
            &mut overlay,
            delta,
            &mut self.cx,
        );
        self.working.graph = overlay.into_patch();
        let outcome = outcome.map_err(|e| format!("applying {delta}: {e}"))?;
        if outcome.applied {
            self.staged.push(delta);
        }
        Ok(outcome)
    }

    /// The live graph and index, for answering queries in-process.
    pub(crate) fn views(&self) -> (DynGraphView<'_>, IndexView<'_>) {
        (
            self.working.graph.view(self.base.base_graph()),
            self.base.base_index().with_patch(&self.working.labels),
        )
    }

    /// Deltas not yet folded into the base: committed plus staged.
    pub(crate) fn pending(&self) -> usize {
        self.pending + self.staged.len()
    }

    /// Checkpoints so far.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Valid bytes of the WAL on disk (0 for an in-memory engine or
    /// before the first append).
    pub(crate) fn wal_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.wal.len_bytes())
    }

    /// Whether the engine refuses updates until a reload (see
    /// [`CommitError::unavailable`]).
    pub(crate) fn unavailable(&self) -> bool {
        self.poisoned || self.disk.as_ref().is_some_and(|d| d.wal.is_poisoned())
    }

    /// Commits the staged deltas: one WAL frame, or a checkpoint once
    /// `--compact-after` deltas are pending. On success the live state is
    /// the committed state; on failure the engine has rolled back to the
    /// previous one, and so has the disk.
    pub(crate) fn commit(&mut self) -> Result<PersistReport, CommitError> {
        let due = self.compact_after > 0 && self.pending() >= self.compact_after;
        self.commit_inner(due)
    }

    /// Commits the staged deltas by folding everything pending into the
    /// base (a checkpoint when there is a file). A no-op when nothing is
    /// pending.
    pub(crate) fn compact(&mut self) -> Result<PersistReport, CommitError> {
        self.commit_inner(true)
    }

    fn commit_inner(&mut self, fold: bool) -> Result<PersistReport, CommitError> {
        let fold = fold && self.pending() > 0;
        if self.staged.is_empty() && !fold {
            return Ok(PersistReport {
                persisted: Persisted::Nothing,
                compacted: false,
            });
        }
        if self.unavailable() {
            self.rollback();
            return Err(CommitError {
                message: "updates are disabled until a reload: the index file's state is \
                          unknown after an earlier failure"
                    .into(),
                unavailable: true,
            });
        }
        let persisted = match (&mut self.disk, fold) {
            (None, _) => Ok(Persisted::Nothing),
            (Some(_), true) => self.checkpoint(),
            (Some(disk), false) => disk
                .wal
                .append(&self.staged)
                .map(Persisted::Wal)
                .map_err(|e| CommitError {
                    message: format!("appending to {}: {e}", disk.wal.path().display()),
                    unavailable: disk.wal.is_poisoned(),
                }),
        };
        let persisted = match persisted {
            Ok(p) => p,
            Err(e) => {
                self.rollback();
                return Err(e);
            }
        };
        if fold {
            self.pending = 0;
            self.compactions += 1;
        } else {
            self.pending += self.staged.len();
        }
        self.staged.clear();
        self.committed = Arc::new(self.working.clone());
        Ok(PersistReport {
            persisted,
            compacted: fold,
        })
    }

    /// Folds the patch into the base: materialises base + patch, writes
    /// them as the new container, and rebases onto it with an empty
    /// patch. Should reopening the written file fail, the engine keeps
    /// its base and patch, which still describe the same state. Only
    /// called with a file behind the engine (an in-memory engine keeps
    /// its patch).
    fn checkpoint(&mut self) -> Result<Persisted, CommitError> {
        let (graph, index) = {
            let (graph, index) = self.views();
            (graph.to_owned_graph(), index.to_owned_index())
        };
        let Some(disk) = self.disk.as_mut() else {
            return Ok(Persisted::Nothing);
        };
        let written =
            hcl_store::checkpoint(&disk.path, &graph, &index, self.build, self.compactions + 1);
        drop((graph, index));
        match written {
            Ok(written) => {
                // The stale WAL is gone or ignored; bind a writer to the
                // new container. Failing that, the checkpoint still
                // stands, but nothing more can be appended.
                match Wal::open(&disk.path, written.checksum) {
                    Ok(wal) => disk.wal = wal,
                    Err(_) => self.poisoned = true,
                }
                if let Ok(reopened) = IndexStore::open_trusted(&disk.path) {
                    self.working = reopened.patch().cloned().unwrap_or_default();
                    self.base = reopened.with_patch(Arc::new(Patch::new()));
                }
                Ok(Persisted::Checkpoint(written.bytes))
            }
            Err(e) => {
                // A failed directory fsync comes after the rename: the
                // container on disk is already the new one while the
                // engine rolls back, so refuse further updates.
                let renamed = matches!(
                    e,
                    StoreError::Publish {
                        step: "sync-dir",
                        ..
                    }
                );
                self.poisoned |= renamed;
                Err(CommitError {
                    message: format!("checkpointing {}: {e}", disk.path.display()),
                    unavailable: renamed,
                })
            }
        }
    }

    /// Discards the staged deltas: the live state returns to the last
    /// committed one.
    pub(crate) fn rollback(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        self.staged.clear();
        self.working = Patch::clone(&self.committed);
    }

    /// Swaps the committed state in as the next generation of `handle`
    /// and returns its number: the engine's base (after a checkpoint, the
    /// new container) with the committed patch over it
    /// (`IndexStore::with_patch`), which copies nothing.
    pub(crate) fn publish(&self, handle: &GenerationHandle) -> u64 {
        handle.swap(self.base.with_patch(Arc::clone(&self.committed)))
    }
}

// ---------------------------------------------------------------------------
// Delta-line grammar
// ---------------------------------------------------------------------------

/// Splits a serve-loop input line into its delta operation and the `u v`
/// remainder, or `None` when the line is not a delta (a plain query,
/// blank, or comment). `+u v` inserts, `-u v` deletes; whitespace after
/// the sign is allowed.
pub(crate) fn delta_op(line: &str) -> Option<(DeltaOp, &str)> {
    let trimmed = line.trim_start();
    match trimmed.as_bytes().first() {
        Some(b'+') => Some((DeltaOp::Insert, &trimmed[1..])),
        Some(b'-') => Some((DeltaOp::Delete, &trimmed[1..])),
        _ => None,
    }
}

/// Parses the `u v` remainder of a delta line (after [`delta_op`] took
/// the sign), with the same `<source>:<line>` diagnostics the query
/// grammar produces.
pub(crate) fn parse_delta_rest(
    op: DeltaOp,
    rest: &str,
    what: &str,
    lineno: usize,
) -> Result<EdgeDelta, String> {
    match crate::parse_pair_line(rest, what, lineno)? {
        Some((u, v)) => Ok(match op {
            DeltaOp::Insert => EdgeDelta::insert(u, v),
            DeltaOp::Delete => EdgeDelta::delete(u, v),
        }),
        None => Err(format!(
            "{what}:{lineno}: expected two vertex ids after the delta sign"
        )),
    }
}

/// Strict delta-script parsing for `hcl update` input: every non-blank,
/// non-comment line must be a `+u v` or `-u v` delta.
pub(crate) fn parse_delta_line(
    line: &str,
    what: &str,
    lineno: usize,
) -> Result<Option<EdgeDelta>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    match delta_op(trimmed) {
        Some((op, rest)) => parse_delta_rest(op, rest, what, lineno).map(Some),
        None => Err(format!(
            "{what}:{lineno}: expected `+u v` (insert) or `-u v` (delete), got `{trimmed}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;
    use hcl_index::{BuildOptions, QueryContext};

    fn engine_for(n: usize, k: usize, seed: u64) -> (Graph, UpdateEngine) {
        let graph = testkit::barabasi_albert(n, 3, seed);
        let index = HighwayCoverIndex::build_with(
            &graph,
            &BuildOptions {
                num_landmarks: k,
                ..Default::default()
            },
        );
        let engine = UpdateEngine::from_owned(&graph, &index, 0).unwrap();
        (graph, engine)
    }

    #[test]
    fn delta_lines_parse_and_reject() {
        assert_eq!(
            parse_delta_line("+3 7", "t", 1).unwrap(),
            Some(EdgeDelta::insert(3, 7))
        );
        assert_eq!(
            parse_delta_line("  - 12 4 ", "t", 2).unwrap(),
            Some(EdgeDelta::delete(12, 4))
        );
        assert_eq!(parse_delta_line("# comment", "t", 3).unwrap(), None);
        assert_eq!(parse_delta_line("", "t", 4).unwrap(), None);
        let err = parse_delta_line("3 7", "t", 5).unwrap_err();
        assert!(err.contains("t:5"), "missing location: {err}");
        let err = parse_delta_line("+3", "t", 6).unwrap_err();
        assert!(err.contains("t:6"), "missing location: {err}");
        let err = parse_delta_line("+3 7 9", "t", 7).unwrap_err();
        assert!(err.contains("trailing"), "wrong diagnosis: {err}");
    }

    #[test]
    fn query_lines_are_not_deltas() {
        assert!(delta_op("3 7").is_none());
        assert!(delta_op("# note").is_none());
        assert!(delta_op("").is_none());
        assert!(delta_op("+1 2").is_some());
        assert!(delta_op("-1 2").is_some());
    }

    #[test]
    fn apply_updates_live_answers_and_journals() {
        let (graph, mut engine) = engine_for(40, 4, 9);
        // Find a non-adjacent pair at distance > 1 and connect it.
        let mut pair = None;
        'outer: for u in 0..40u32 {
            for v in (u + 1)..40 {
                if !graph.as_view().neighbors(u).contains(&v) {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = pair.expect("a sparse graph has non-adjacent pairs");
        let outcome = engine.apply(EdgeDelta::insert(u, v)).unwrap();
        assert!(outcome.applied);
        assert_eq!(engine.pending(), 1);
        let mut ctx = QueryContext::new();
        let (g, ix) = engine.views();
        assert_eq!(ix.query_with(g, &mut ctx, u, v), Some(1));
        // Re-inserting is a no-op and is not journalled.
        let outcome = engine.apply(EdgeDelta::insert(u, v)).unwrap();
        assert!(!outcome.applied);
        assert_eq!(engine.pending(), 1);
        // Invalid deltas are errors and change nothing.
        assert!(engine.apply(EdgeDelta::insert(0, 40)).is_err());
        assert!(engine.apply(EdgeDelta::insert(3, 3)).is_err());
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn compact_folds_journal_into_base() {
        let (_graph, mut engine) = engine_for(30, 4, 2);
        engine.apply(EdgeDelta::insert(0, 17)).unwrap();
        engine.apply(EdgeDelta::delete(0, 17)).unwrap();
        assert_eq!(engine.pending(), 2);
        engine.compact().unwrap();
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.compactions(), 1);
        // Nothing pending: a second compact is a no-op.
        engine.compact().unwrap();
        assert_eq!(engine.compactions(), 1);
    }

    #[test]
    fn publish_swaps_in_the_live_answers() {
        let (graph, mut engine) = engine_for(30, 4, 5);
        let index = HighwayCoverIndex::build(&graph, hcl_index::IndexConfig { num_landmarks: 4 });
        let handle = GenerationHandle::new(IndexStore::from_owned(&graph, &index).unwrap());
        engine.apply(EdgeDelta::insert(2, 29)).unwrap();
        engine.commit().unwrap();
        assert_eq!(engine.publish(&handle), 2);
        let store = handle.current().store;
        let mut ctx = QueryContext::new();
        assert_eq!(
            store.index().query_with(store.graph(), &mut ctx, 2, 29),
            Some(1)
        );
        // The base bytes are shared, not rewritten: they still hold the
        // original graph, and still verify.
        assert_eq!(store.base_graph().num_edges(), graph.num_edges());
        store.verify_checksum().unwrap();
    }

    #[test]
    fn rollback_restores_the_committed_state() {
        let (graph, mut engine) = engine_for(30, 4, 6);
        assert!(engine.apply(EdgeDelta::insert(3, 28)).unwrap().applied);
        engine.commit().unwrap();
        assert!(engine.apply(EdgeDelta::insert(4, 27)).unwrap().applied);
        engine.rollback();
        assert_eq!(engine.pending(), 1);
        let mut ctx = QueryContext::new();
        let (g, ix) = engine.views();
        assert_eq!(ix.query_with(g, &mut ctx, 3, 28), Some(1));
        assert_eq!(g.num_edges(), graph.num_edges() + 1);
    }
}
