//! Torn-write / power-cut simulation over the durable publish sequence.
//!
//! Every fault schedule — an injected hard failure or a simulated power
//! cut at each [`PublishStep`], plus torn writes that cut the payload at
//! arbitrary byte positions — is replayed through the [`StoreIo`]
//! injection layer, and the survivor file is reopened. The property under
//! test is the crash-safety trichotomy: [`IndexStore::open`] on the
//! target path always yields the **old complete container**, the **new
//! complete container**, or a **typed error** — never accepted garbage.
//!
//! The delta WAL gets the same treatment one level up: every
//! [`PublishStep::WAL`] step × decision over a first and a later append,
//! and torn appends cut at byte positions. A reopen must give the state
//! before the batch, the state after it, or a typed error — a
//! half-applied batch never.
//!
//! Set `HCL_FAULT_SWEEP=full` (the fault-injection CI job does) to
//! densify the torn-write cut positions from a handful of landmarks to a
//! sweep across the whole payload.

use hcl_core::{testkit, DeltaGraph, EdgeDelta, Graph};
use hcl_index::repair::DynamicIndex;
use hcl_index::{BuildContext, HighwayCoverIndex, IndexConfig};
use hcl_store::durable::{
    publish_with, IoDecision, PublishOutcome, PublishStep, StoreIo, SystemIo,
};
use hcl_store::{wal_path, BuildInfo, IndexStore, StoreError, Wal};
use std::path::{Path, PathBuf};

/// Serialised container with `k` landmarks over the shared sample graph;
/// distinct `k` values make the old/new survivors distinguishable both
/// byte-wise and through [`IndexStore::meta`].
fn container(k: usize) -> Vec<u8> {
    let g = testkit::barabasi_albert(80, 3, 4);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: k });
    hcl_store::serialize(&g, &idx).expect("serialize")
}

/// Fresh scratch directory for one test, cleaned up by `Scratch::drop`.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let mut dir = std::env::temp_dir();
        dir.push(format!("hcl_faults_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self { dir }
    }

    fn target(&self) -> PathBuf {
        self.dir.join("live.hcl")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Injects one decision at one step; every other step proceeds.
struct FaultAt {
    step: PublishStep,
    decision: IoDecision,
}

impl StoreIo for FaultAt {
    fn decide(&self, step: PublishStep) -> IoDecision {
        if step == self.step {
            self.decision
        } else {
            IoDecision::Proceed
        }
    }
}

/// `<target>.tmp.*` siblings currently on disk.
fn temps(target: &Path) -> Vec<PathBuf> {
    let name = target.file_name().unwrap().to_str().unwrap();
    let prefix = format!("{name}.tmp.");
    std::fs::read_dir(target.parent().unwrap())
        .expect("read scratch dir")
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .map(|e| e.path())
        .collect()
}

/// Asserts the crash-safety trichotomy for the target path: its bytes are
/// exactly `old`, exactly `new`, or opening it yields a typed error (the
/// path for schedules that never published a complete container).
fn assert_trichotomy(target: &Path, old: &[u8], new: &[u8], schedule: &str) {
    let on_disk = std::fs::read(target).expect("target must exist once seeded");
    if on_disk == old || on_disk == new {
        let store = IndexStore::open(target)
            .unwrap_or_else(|e| panic!("{schedule}: complete survivor failed to open: {e}"));
        let k = store.meta().num_landmarks as usize;
        let expect = if on_disk == old { 4 } else { 8 };
        assert_eq!(k, expect, "{schedule}: survivor identity vs its landmarks");
    } else {
        let err = IndexStore::open(target)
            .err()
            .unwrap_or_else(|| panic!("{schedule}: torn survivor opened without error"));
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::Corrupt { .. }
            ),
            "{schedule}: torn survivor must be a typed container error, got {err:?}"
        );
    }
}

/// The full schedule sweep: every step × {fail, crash-before, crash-after},
/// then recovery — a clean publish over the survivor must commit, sweep
/// stale temps, and open as the new container.
#[test]
fn every_fault_schedule_leaves_old_new_or_typed_error() {
    let old = container(4);
    let new = container(8);

    for step in PublishStep::ALL {
        for decision in [
            IoDecision::Fail,
            IoDecision::CrashBefore,
            IoDecision::CrashAfter,
        ] {
            let schedule = format!("{decision:?}@{}", step.name());
            let scratch = Scratch::new(&format!("sweep_{}_{decision:?}", step.name()));
            let target = scratch.target();
            assert!(matches!(
                publish_with(&target, &old, &SystemIo),
                Ok(PublishOutcome::Committed)
            ));

            let io = FaultAt { step, decision };
            match publish_with(&target, &new, &io) {
                Err(StoreError::Publish {
                    step: failed,
                    source,
                }) => {
                    assert_eq!(decision, IoDecision::Fail, "{schedule}: unexpected error");
                    assert_eq!(failed, step.name(), "{schedule}: error names wrong step");
                    assert!(
                        source.to_string().contains("injected fault"),
                        "{schedule}: source must be the injected error, got {source}"
                    );
                    // A failed publish cleans its own temp immediately.
                    assert_eq!(temps(&target), Vec::<PathBuf>::new(), "{schedule}");
                }
                Err(other) => panic!("{schedule}: unexpected error kind {other:?}"),
                Ok(PublishOutcome::Crashed(at)) => {
                    assert_ne!(decision, IoDecision::Fail, "{schedule}: fail must error");
                    assert_eq!(at, step, "{schedule}: crash reported at wrong step");
                }
                Ok(PublishOutcome::Committed) => {
                    // Only a fault injected *after* the last real operation
                    // could commit; with this schedule set, never.
                    panic!("{schedule}: publish committed despite injected fault");
                }
            }

            assert_trichotomy(&target, &old, &new, &schedule);

            // Power-cut schedules may strand a temp; the next save to the
            // path must sweep it and publish cleanly.
            assert!(matches!(
                publish_with(&target, &new, &SystemIo),
                Ok(PublishOutcome::Committed)
            ));
            assert_eq!(
                temps(&target),
                Vec::<PathBuf>::new(),
                "{schedule}: recovery save must sweep stale temps"
            );
            assert_eq!(
                std::fs::read(&target).unwrap(),
                new,
                "{schedule}: recovery save must publish the new container"
            );
        }
    }
}

/// Torn writes: the power cut lands mid-`write-temp`, so only a prefix of
/// the payload reaches the temp file. The target must keep serving the old
/// container byte-identically, and the stranded torn temp — were anyone to
/// open it directly — must be a typed error, not accepted garbage.
#[test]
fn torn_write_prefixes_never_reach_the_target() {
    let old = container(4);
    let new = container(8);
    let full_sweep = std::env::var("HCL_FAULT_SWEEP").as_deref() == Ok("full");
    let cuts: Vec<usize> = if full_sweep {
        // Dense through the header/section table, stride through payload.
        let mut cuts: Vec<usize> = (0..new.len().min(300)).step_by(7).collect();
        cuts.extend((300..new.len()).step_by(499));
        cuts
    } else {
        vec![0, 1, 8, 24, new.len() / 2, new.len() - 1]
    };

    let scratch = Scratch::new("torn");
    let target = scratch.target();
    for cut in cuts {
        assert!(matches!(
            publish_with(&target, &old, &SystemIo),
            Ok(PublishOutcome::Committed)
        ));
        let io = FaultAt {
            step: PublishStep::WriteTemp,
            decision: IoDecision::CrashDuring(cut),
        };
        assert_eq!(
            publish_with(&target, &new, &io).unwrap(),
            PublishOutcome::Crashed(PublishStep::WriteTemp),
            "cut at {cut}"
        );
        // The target never saw the torn bytes.
        assert_eq!(std::fs::read(&target).unwrap(), old, "cut at {cut}");
        assert_trichotomy(&target, &old, &new, &format!("torn@{cut}"));

        // The stranded temp holds exactly the prefix; opening it directly
        // is the would-be disaster of a non-atomic writer, and it must be
        // a typed error (`cut == new.len()` never happens: strict prefix).
        let stranded = temps(&target);
        assert_eq!(stranded.len(), 1, "cut at {cut}: exactly one torn temp");
        let torn = std::fs::read(&stranded[0]).unwrap();
        assert_eq!(&torn, &new[..cut], "cut at {cut}: temp holds the prefix");
        assert!(
            IndexStore::open(&stranded[0]).is_err(),
            "cut at {cut}: torn prefix must not open"
        );

        // Recovery sweeps the stranded temp.
        assert!(matches!(
            publish_with(&target, &new, &SystemIo),
            Ok(PublishOutcome::Committed)
        ));
        assert_eq!(temps(&target), Vec::<PathBuf>::new(), "cut at {cut}");
    }
}

/// The old `write_atomically` used `.tmp.<pid>` alone, so two same-process
/// saves to one path shared a temp file and could tear each other. The
/// pid+counter names make concurrent same-path saves independent: every
/// save succeeds, the survivor is one of the published containers in full,
/// and no temp survives.
#[test]
fn concurrent_same_path_saves_never_collide() {
    let scratch = Scratch::new("concurrent");
    let target = scratch.target();
    let payloads: Vec<Vec<u8>> = vec![container(4), container(6), container(8)];

    std::thread::scope(|scope| {
        for payload in &payloads {
            let target = target.clone();
            scope.spawn(move || {
                for _ in 0..8 {
                    let outcome = publish_with(&target, payload, &SystemIo)
                        .expect("concurrent publish must succeed");
                    assert_eq!(outcome, PublishOutcome::Committed);
                }
            });
        }
    });

    let survivor = std::fs::read(&target).expect("target exists");
    assert!(
        payloads.contains(&survivor),
        "survivor must be one complete published container"
    );
    IndexStore::open(&target).expect("survivor opens");
    // Every guard has dropped, so one more save sweeps anything left.
    publish_with(&target, &payloads[0], &SystemIo).unwrap();
    assert_eq!(temps(&target), Vec::<PathBuf>::new());
}

/// Stale `.tmp.*` siblings from a crashed save (simulated here by planting
/// them directly, including a foreign-pid name) are swept by the next save
/// to that path — and only siblings of *that* path are touched.
#[test]
fn next_save_sweeps_stale_temps_from_crashed_saves() {
    let scratch = Scratch::new("stale");
    let target = scratch.target();
    let stale_same_pid = PathBuf::from(format!(
        "{}.tmp.{}.424242",
        target.display(),
        std::process::id()
    ));
    let stale_foreign = PathBuf::from(format!("{}.tmp.1.0", target.display()));
    let unrelated = scratch.dir.join("other.hcl.tmp.1.0");
    for p in [&stale_same_pid, &stale_foreign, &unrelated] {
        std::fs::write(p, b"leftover").unwrap();
    }

    publish_with(&target, &container(4), &SystemIo).unwrap();
    assert!(!stale_same_pid.exists(), "same-pid stale temp swept");
    assert!(!stale_foreign.exists(), "foreign-pid stale temp swept");
    assert!(
        unrelated.exists(),
        "other files' temps are not ours to sweep"
    );
    IndexStore::open(&target).expect("publish over stale temps still lands");
}

/// A failed fsync is reported as a typed error naming the exact step, and
/// the target is untouched (for `sync-dir`, the rename has already
/// happened, so the new container is in place — also asserted).
#[test]
fn failed_fsyncs_name_their_step() {
    let old = container(4);
    let new = container(8);

    let scratch = Scratch::new("fsync_temp");
    let target = scratch.target();
    publish_with(&target, &old, &SystemIo).unwrap();
    let err = publish_with(
        &target,
        &new,
        &FaultAt {
            step: PublishStep::SyncTemp,
            decision: IoDecision::Fail,
        },
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("sync-temp"),
        "display must name the step: {err}"
    );
    assert_eq!(std::fs::read(&target).unwrap(), old, "target untouched");

    // sync-dir fails *after* the atomic publish point: the caller gets a
    // typed error (durability of the rename is not guaranteed) but the
    // target already holds the complete new container.
    let err = publish_with(
        &target,
        &new,
        &FaultAt {
            step: PublishStep::SyncDir,
            decision: IoDecision::Fail,
        },
    )
    .unwrap_err();
    assert!(matches!(
        err,
        StoreError::Publish {
            step: "sync-dir",
            ..
        }
    ));
    assert_eq!(
        std::fs::read(&target).unwrap(),
        new,
        "rename already landed"
    );
}

/// `save` / `save_with` ride the same durable publish: a plain save leaves
/// no temp siblings behind and the result round-trips.
#[test]
fn save_is_durable_and_leaves_no_temps() {
    let scratch = Scratch::new("save");
    let target = scratch.target();
    let g = testkit::barabasi_albert(60, 3, 9);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 5 });
    hcl_store::save(&target, &g, &idx).expect("save");
    assert_eq!(temps(&target), Vec::<PathBuf>::new());
    let store = IndexStore::open(&target).expect("open");
    assert_eq!(store.meta().num_landmarks, 5);
    store
        .verify_checksum()
        .expect("freshly saved file verifies");
}

// ---------------------------------------------------------------------------
// The delta WAL
// ---------------------------------------------------------------------------

/// Everything a store serves, flattened for equality checks.
type Fingerprint = (
    Vec<u64>,
    Vec<u32>,
    Vec<u64>,
    (usize, Vec<(u32, u32)>),
    Vec<u32>,
);

/// The store's current state, flattened (base + any replayed patch): the
/// arrays a checkpoint of it would write.
fn fingerprint(store: &IndexStore) -> Fingerprint {
    let (g, ix) = store.to_owned_parts();
    let ix = ix.as_view();
    (
        g.csr_offsets().to_vec(),
        g.csr_neighbors().to_vec(),
        ix.label_offsets().to_vec(),
        (
            ix.label_entries().word_bytes(),
            ix.label_entries().iter().collect(),
        ),
        ix.highway().to_vec(),
    )
}

/// The WAL fixture: a container on disk and the in-memory states a
/// reopen may legally produce after each batch.
struct WalFixture {
    scratch: Scratch,
    graph: Graph,
    index: HighwayCoverIndex,
}

impl WalFixture {
    fn new(tag: &str) -> Self {
        let scratch = Scratch::new(tag);
        let graph = testkit::barabasi_albert(80, 3, 4);
        let index = HighwayCoverIndex::build(&graph, IndexConfig { num_landmarks: 4 });
        hcl_store::save(scratch.target(), &graph, &index).expect("save");
        Self {
            scratch,
            graph,
            index,
        }
    }

    fn target(&self) -> PathBuf {
        self.scratch.target()
    }

    fn checksum(&self) -> u64 {
        IndexStore::open(self.target()).unwrap().meta().checksum
    }

    /// Base plus `batches`, repaired in memory — the reference states.
    fn state_after(&self, batches: &[&[EdgeDelta]]) -> (Graph, HighwayCoverIndex) {
        let mut graph = self.graph.clone();
        let mut dynamic = DynamicIndex::from_view(self.index.as_view());
        let mut cx = BuildContext::new();
        for d in batches.iter().flat_map(|b| b.iter()) {
            let mut overlay = DeltaGraph::new(graph.as_view());
            let outcome = dynamic.apply_and_repair(&mut overlay, *d, &mut cx).unwrap();
            assert!(outcome.applied, "test batches hold effective deltas only");
            graph = overlay.to_graph();
        }
        (graph, dynamic.to_index())
    }

    fn fingerprint_after(&self, batches: &[&[EdgeDelta]]) -> Fingerprint {
        let (graph, index) = self.state_after(batches);
        let store = IndexStore::from_owned(&graph, &index).unwrap();
        fingerprint(&store)
    }
}

/// Two effective batches over the fixture graph: inserts of non-edges,
/// then one delete.
fn batches(graph: &Graph) -> (Vec<EdgeDelta>, Vec<EdgeDelta>) {
    let n = graph.num_vertices() as u32;
    let mut non_edges = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .filter(|&(u, v)| !graph.has_edge(u, v));
    let mut insert = || {
        let (u, v) = non_edges.next().unwrap();
        EdgeDelta::insert(u, v)
    };
    let a = vec![insert(), insert()];
    let v0 = graph.neighbors(7)[0];
    let b = vec![insert(), EdgeDelta::delete(7, v0), insert()];
    (a, b)
}

/// What a reopen gave, relative to the batch under test.
#[derive(Debug, PartialEq)]
enum Reopened {
    Before,
    After,
    TypedError,
}

fn reopen(target: &Path, before: &Fingerprint, after: &Fingerprint, schedule: &str) -> Reopened {
    match IndexStore::open(target) {
        Ok(store) => {
            let got = fingerprint(&store);
            if &got == before {
                Reopened::Before
            } else if &got == after {
                Reopened::After
            } else {
                panic!("{schedule}: reopen served a state that is neither before nor after");
            }
        }
        Err(StoreError::Corrupt { .. } | StoreError::Io(_)) => Reopened::TypedError,
        Err(other) => panic!("{schedule}: unexpected error kind {other:?}"),
    }
}

/// Frame bytes of a batch (for cut positions): 16-byte prefix + 16 per
/// delta, plus the 32-byte header on a fresh WAL.
fn append_len(deltas: usize, fresh: bool) -> usize {
    hcl_store::WAL_FRAME_HEADER_LEN
        + 16 * deltas
        + if fresh { hcl_store::WAL_HEADER_LEN } else { 0 }
}

/// Every WAL step × decision, on the first append (which creates the
/// file) and on a later one: the reopen is before, after, or a typed
/// error; a failed append is always before; and the next clean append
/// recovers to after.
#[test]
fn every_wal_fault_schedule_leaves_before_after_or_typed_error() {
    let full_sweep = std::env::var("HCL_FAULT_SWEEP").as_deref() == Ok("full");
    for first_append in [true, false] {
        let probe = WalFixture::new("wal_probe");
        let (a, b) = batches(&probe.graph);
        let prior: Vec<&[EdgeDelta]> = if first_append { vec![] } else { vec![&a] };
        let before = probe.fingerprint_after(&prior);
        let mut with_b = prior.clone();
        with_b.push(&b);
        let after = probe.fingerprint_after(&with_b);
        drop(probe);

        let len = append_len(b.len(), first_append);
        let cuts: Vec<usize> = if full_sweep {
            (0..len).collect()
        } else {
            vec![0, 1, 15, 16, len / 2, len - 1]
        };
        let mut decisions = vec![
            IoDecision::Fail,
            IoDecision::CrashBefore,
            IoDecision::CrashAfter,
        ];
        decisions.extend(cuts.into_iter().map(IoDecision::CrashDuring));

        for step in PublishStep::WAL {
            for &decision in &decisions {
                let schedule = format!(
                    "{decision:?}@{} ({} append)",
                    step.name(),
                    if first_append { "first" } else { "later" }
                );
                let fx = WalFixture::new("wal_sweep");
                let target = fx.target();
                let mut wal = Wal::open(&target, fx.checksum()).unwrap();
                if !first_append {
                    wal.append(&a).unwrap();
                }
                let io = FaultAt { step, decision };
                let result = wal.append_with(&b, &io);
                let got = reopen(&target, &before, &after, &schedule);
                match &result {
                    Err(StoreError::Publish { step: failed, .. }) => {
                        assert_eq!(decision, IoDecision::Fail, "{schedule}");
                        assert_eq!(*failed, step.name(), "{schedule}");
                        assert_eq!(got, Reopened::Before, "{schedule}: failed append must undo");
                        assert!(!wal.is_poisoned(), "{schedule}");
                    }
                    Err(other) => panic!("{schedule}: unexpected error {other:?}"),
                    Ok(PublishOutcome::Crashed(at)) => assert_eq!(*at, step, "{schedule}"),
                    Ok(PublishOutcome::Committed) => {
                        // Only at a step the append never ran: the undo
                        // (no failure reached it), or creation when the
                        // WAL already exists.
                        let skipped = step == PublishStep::WalRollback
                            || (step == PublishStep::WalCreate && !first_append);
                        assert!(skipped, "{schedule}: committed despite the fault");
                        assert_eq!(got, Reopened::After, "{schedule}");
                    }
                }
                // A crash can never leave a half-applied batch, and never
                // an unreadable WAL: frames are all-or-nothing.
                assert_ne!(got, Reopened::TypedError, "{schedule}");

                // Recovery: a writer over what the crash left re-appends
                // the batch when it did not survive.
                if got == Reopened::Before {
                    let mut again = Wal::open(&target, fx.checksum()).unwrap();
                    again.append(&b).unwrap();
                    assert_eq!(
                        reopen(&target, &before, &after, &schedule),
                        Reopened::After,
                        "{schedule}: recovery append"
                    );
                    let info = *IndexStore::open(&target).unwrap().wal().unwrap();
                    assert_eq!(info.torn_bytes(), 0, "{schedule}: torn tail truncated");
                }
            }
        }
    }
}

/// An append whose `fdatasync` fails is truncated back, so a reopen
/// equals the generation still being served; when the truncate fails
/// too, the writer refuses further appends.
#[test]
fn failed_wal_sync_truncates_back_or_poisons() {
    let fx = WalFixture::new("wal_sync_fail");
    let target = fx.target();
    let (a, b) = batches(&fx.graph);
    let served = fx.fingerprint_after(&[&a]);
    let after = fx.fingerprint_after(&[&a, &b]);
    let mut wal = Wal::open(&target, fx.checksum()).unwrap();
    wal.append(&a).unwrap();
    let len = std::fs::metadata(wal_path(&target)).unwrap().len();

    let err = wal
        .append_with(
            &b,
            &FaultAt {
                step: PublishStep::WalSync,
                decision: IoDecision::Fail,
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("wal-sync"), "{err}");
    assert_eq!(std::fs::metadata(wal_path(&target)).unwrap().len(), len);
    assert_eq!(
        reopen(&target, &served, &after, "sync-fail"),
        Reopened::Before
    );

    // Both the sync and its undo fail: poisoned, and the disk may hold
    // the frame — a reopen decides.
    struct SyncAndUndoFail;
    impl StoreIo for SyncAndUndoFail {
        fn decide(&self, step: PublishStep) -> IoDecision {
            match step {
                PublishStep::WalSync | PublishStep::WalRollback => IoDecision::Fail,
                _ => IoDecision::Proceed,
            }
        }
    }
    let err = wal.append_with(&b, &SyncAndUndoFail).unwrap_err();
    assert!(err.to_string().contains("wal-rollback"), "{err}");
    assert!(wal.is_poisoned());
    assert!(wal.append(&b).is_err(), "a poisoned writer refuses appends");
    assert_ne!(
        reopen(&target, &served, &after, "poisoned"),
        Reopened::TypedError
    );
}

/// A crash between the checkpoint's publish and the WAL's removal leaves
/// the old WAL beside the new container: it is stale and ignored, and
/// the next append resets it.
#[test]
fn checkpoint_crash_before_wal_removal_leaves_a_stale_wal() {
    let fx = WalFixture::new("wal_checkpoint");
    let target = fx.target();
    let (a, b) = batches(&fx.graph);
    let mut wal = Wal::open(&target, fx.checksum()).unwrap();
    wal.append(&a).unwrap();
    let old_wal = std::fs::read(wal_path(&target)).unwrap();

    let (graph, index) = fx.state_after(&[&a]);
    let written = hcl_store::checkpoint(&target, &graph, &index, BuildInfo::default(), 1).unwrap();
    assert!(!wal_path(&target).exists(), "checkpoint removes the WAL");
    // The crash: the removal never happened.
    std::fs::write(wal_path(&target), &old_wal).unwrap();

    let store = IndexStore::open(&target).unwrap();
    assert_eq!(fingerprint(&store), fx.fingerprint_after(&[&a]));
    assert!(
        store.wal().unwrap().stale,
        "old WAL is bound to the old checksum"
    );
    assert_eq!(store.pending_deltas(), 0);
    assert_eq!(store.journal().unwrap().compactions, 1);
    assert_eq!(store.meta().checksum, written.checksum);
    hcl_store::verify_file(&target).expect("a stale WAL is not corruption");
    drop(store);

    let mut wal = Wal::open(&target, written.checksum).unwrap();
    assert_eq!(wal.frames(), 0);
    wal.append(&b).unwrap();
    let store = IndexStore::open(&target).unwrap();
    assert_eq!(fingerprint(&store), fx.fingerprint_after(&[&a, &b]));
    assert!(!store.wal().unwrap().stale);
}

/// A damaged frame with more frames after it cannot come from a crash:
/// opens and the scrubber's file check both report it.
#[test]
fn corrupt_non_final_wal_frame_is_a_typed_error() {
    let fx = WalFixture::new("wal_corrupt");
    let target = fx.target();
    let (a, b) = batches(&fx.graph);
    let checksum = fx.checksum();
    let mut wal = Wal::open(&target, checksum).unwrap();
    wal.append(&a).unwrap();
    wal.append(&b).unwrap();
    let mut bytes = std::fs::read(wal_path(&target)).unwrap();
    bytes[hcl_store::WAL_HEADER_LEN + hcl_store::WAL_FRAME_HEADER_LEN + 3] ^= 0x40;
    std::fs::write(wal_path(&target), &bytes).unwrap();
    assert!(matches!(
        IndexStore::open(&target),
        Err(StoreError::Corrupt { .. })
    ));
    assert!(matches!(
        hcl_store::verify_file(&target),
        Err(StoreError::Corrupt { .. })
    ));
    assert!(Wal::open(&target, checksum).is_err());
}
