//! The delta write-ahead log: live edge updates persisted as CRC-framed
//! records appended to a sidecar `<index>.wal`, instead of rewriting the
//! whole container per batch.
//!
//! ```text
//! header (32 bytes, written once by the first append)
//!    0   8  magic "HCLWAL01"
//!    8   4  WAL version (u32 LE, currently 1)
//!   12   4  reserved (zero)
//!   16   8  the header CRC-64 `checksum` of the container the frames
//!           apply to (u64 LE) — the binding
//!   24   8  CRC-64 of bytes 0..24
//! frame (one per acknowledged batch)
//!    0   8  payload length P in bytes (u64 LE; a non-zero multiple of 16)
//!    8   8  CRC-64 of bytes 0..8 of the frame followed by the payload
//!   16   P  deltas, 16 bytes each: op (0 insert / 1 delete), endpoints
//!           packed (u << 32) | v — the journal section's encoding
//! ```
//!
//! **Binding.** A WAL whose bound checksum differs from its container's
//! is *stale*: it belongs to a container that no longer exists at that
//! path (a rebuild, a checkpoint, a copy). Opens ignore it and the next
//! append resets it.
//!
//! **Torn tail.** A frame is written with one `write` and made durable by
//! one `fdatasync` before its batch is acknowledged, so only the *last*
//! frame can be torn by a crash — and it was never acknowledged. A final
//! frame that is short or fails its CRC is ignored (and truncated by the
//! next append). A bad frame with more bytes after it cannot come from a
//! crash: that is [`StoreError::Corrupt`].
//!
//! **Failed appends.** If the write or the sync fails, the file is
//! truncated back to its previous length and synced before the error is
//! reported, so the disk agrees with the caller's rolled-back state. If
//! that undo fails too, the writer is *poisoned* and refuses further
//! appends: only a fresh open (which re-reads the disk) can tell what the
//! WAL holds.
//!
//! Every step runs through the [`StoreIo`] failpoint layer
//! ([`PublishStep::WAL`]), so the fault sweep covers it like the durable
//! publish. This file decodes untrusted bytes at open and on scrub, so it
//! is on the `no-panics` lint's serving-path list.

use crate::checksum::{crc64, crc64_finish, crc64_init, crc64_update};
use crate::durable::{
    injected_error, sync_file_data, sync_parent_dir, IoDecision, PublishOutcome, PublishStep,
    StoreIo, SystemIo,
};
use crate::error::StoreError;
use crate::format::{decode_delta, encode_delta};
use hcl_core::EdgeDelta;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// WAL file magic.
const WAL_MAGIC: [u8; 8] = *b"HCLWAL01";
/// WAL layout version this build reads and writes.
const WAL_VERSION: u32 = 1;
/// Length of the WAL header in bytes.
pub const WAL_HEADER_LEN: usize = 32;
/// Length of a frame's `[len][crc64]` prefix in bytes.
pub const WAL_FRAME_HEADER_LEN: usize = 16;
/// Bytes per encoded delta inside a frame payload.
const DELTA_BYTES: usize = 16;

/// The WAL beside a container: `<index>.wal` (`g.hcl` → `g.hcl.wal`).
pub fn wal_path(index: impl AsRef<Path>) -> PathBuf {
    let mut os = index.as_ref().as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

/// What a WAL file held when it was scanned — for `inspect`, metrics
/// and the writer's resume point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalInfo {
    /// The container checksum the header binds to (0 when the file is
    /// too short to hold a header).
    pub bound_checksum: u64,
    /// Bound to a different container: ignored by opens, reset by the
    /// next append. Frame and delta counts are 0 for a stale WAL.
    pub stale: bool,
    /// Complete, CRC-valid frames.
    pub frames: usize,
    /// Deltas inside those frames.
    pub deltas: usize,
    /// Length of the valid prefix: header plus complete frames (0 when
    /// there is no usable header).
    pub valid_bytes: u64,
    /// Length of the file on disk.
    pub file_bytes: u64,
}

impl WalInfo {
    /// Bytes past the valid prefix: a torn final frame (or a torn
    /// header) that was never acknowledged.
    pub fn torn_bytes(&self) -> u64 {
        self.file_bytes.saturating_sub(self.valid_bytes)
    }
}

/// A decoded WAL: its summary plus the deltas of every valid frame, in
/// append order (empty for a stale WAL).
pub(crate) struct WalScan {
    pub(crate) info: WalInfo,
    pub(crate) deltas: Vec<EdgeDelta>,
}

/// Reads and decodes the WAL at `path` against `container_checksum`.
/// `Ok(None)` when there is no WAL file.
pub(crate) fn scan(path: &Path, container_checksum: u64) -> Result<Option<WalScan>, StoreError> {
    match std::fs::read(path) {
        Ok(bytes) => decode(&bytes, container_checksum).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StoreError::Io(e)),
    }
}

fn corrupt(what: String) -> StoreError {
    StoreError::Corrupt {
        what: format!("delta WAL: {what}"),
    }
}

fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let b: [u8; 4] = bytes.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(b))
}

fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let b: [u8; 8] = bytes.get(at..at.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(b))
}

/// The 32-byte header binding a WAL to `container_checksum`.
fn encode_header(container_checksum: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[16..24].copy_from_slice(&container_checksum.to_le_bytes());
    let crc = crc64(&h[..24]);
    h[24..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// One frame: `[len][crc64][deltas…]`.
fn encode_frame(deltas: &[EdgeDelta]) -> Vec<u8> {
    let payload_len = deltas.len() * DELTA_BYTES;
    let mut frame = Vec::with_capacity(WAL_FRAME_HEADER_LEN + payload_len);
    frame.extend_from_slice(&(payload_len as u64).to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]);
    for d in deltas {
        for word in encode_delta(d) {
            frame.extend_from_slice(&word.to_le_bytes());
        }
    }
    let crc = frame_crc(&frame[..8], &frame[WAL_FRAME_HEADER_LEN..]);
    frame[8..16].copy_from_slice(&crc.to_le_bytes());
    frame
}

fn frame_crc(len_bytes: &[u8], payload: &[u8]) -> u64 {
    crc64_finish(crc64_update(crc64_update(crc64_init(), len_bytes), payload))
}

/// Decodes a WAL image; see the module docs for the stale, torn-tail and
/// corruption rules.
fn decode(bytes: &[u8], container_checksum: u64) -> Result<WalScan, StoreError> {
    let file_bytes = bytes.len() as u64;
    let empty = |bound_checksum, stale, valid_bytes| WalScan {
        info: WalInfo {
            bound_checksum,
            stale,
            frames: 0,
            deltas: 0,
            valid_bytes,
            file_bytes,
        },
        deltas: Vec::new(),
    };
    // A creation cut short before the header was complete: nothing in it
    // was ever acknowledged.
    let Some(header) = bytes.get(..WAL_HEADER_LEN) else {
        return Ok(empty(0, false, 0));
    };
    if header.get(..8) != Some(&WAL_MAGIC[..]) {
        return Err(corrupt("bad magic".into()));
    }
    let stored_crc = le_u64(header, 24).unwrap_or(0);
    if crc64(header.get(..24).unwrap_or(&[])) != stored_crc {
        return Err(corrupt("header checksum mismatch".into()));
    }
    let version = le_u32(header, 8).unwrap_or(0);
    if version != WAL_VERSION {
        return Err(corrupt(format!(
            "version {version} unsupported (this build reads {WAL_VERSION})"
        )));
    }
    let bound = le_u64(header, 16).unwrap_or(0);
    if bound != container_checksum {
        return Ok(empty(bound, true, WAL_HEADER_LEN as u64));
    }

    let mut deltas = Vec::new();
    let mut frames = 0usize;
    let mut at = WAL_HEADER_LEN;
    while at < bytes.len() {
        let rest = bytes.len() - at;
        // A frame prefix or payload cut short by the end of the file is
        // a torn tail.
        let Some(len) = le_u64(bytes, at) else { break };
        let Some(end) = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_add(WAL_FRAME_HEADER_LEN))
            .filter(|&total| total <= rest)
            .map(|total| at + total)
        else {
            break;
        };
        let payload = bytes.get(at + WAL_FRAME_HEADER_LEN..end).unwrap_or(&[]);
        let crc_ok =
            le_u64(bytes, at + 8) == Some(frame_crc(bytes.get(at..at + 8).unwrap_or(&[]), payload));
        let shape_ok = !payload.is_empty() && payload.len() % DELTA_BYTES == 0;
        if !(crc_ok && shape_ok) {
            if end == bytes.len() {
                break; // the final frame, torn mid-write
            }
            return Err(corrupt(format!(
                "frame {frames} at byte {at} fails its checksum with {} byte(s) after it",
                bytes.len() - end
            )));
        }
        for chunk in payload.chunks_exact(DELTA_BYTES) {
            let delta = match (le_u64(chunk, 0), le_u64(chunk, 8)) {
                (Some(op), Some(ends)) => decode_delta(op, ends),
                _ => None,
            };
            match delta {
                Some(d) => deltas.push(d),
                None => {
                    return Err(corrupt(format!(
                        "frame {frames} at byte {at} holds an unknown delta op"
                    )))
                }
            }
        }
        frames += 1;
        at = end;
    }
    Ok(WalScan {
        info: WalInfo {
            bound_checksum: bound,
            stale: false,
            frames,
            deltas: deltas.len(),
            valid_bytes: at as u64,
            file_bytes,
        },
        deltas,
    })
}

/// Appends frames to one container's WAL.
///
/// The writer resumes from what is on disk: a missing, stale or
/// header-torn WAL is recreated by the first append, a torn tail is
/// truncated before the next frame goes after the last valid one.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    container_checksum: u64,
    /// Length of the valid prefix on disk; 0 = no usable WAL yet.
    len: u64,
    /// Length of the file on disk (the valid prefix plus any torn tail).
    file_len: u64,
    frames: usize,
    deltas: usize,
    poisoned: bool,
}

impl Wal {
    /// Binds to the WAL beside the container at `index`, whose header
    /// checksum is `container_checksum`, resuming after its last valid
    /// frame. Fails with [`StoreError::Corrupt`] on a WAL with a bad
    /// header or a bad non-final frame.
    pub fn open(index: impl AsRef<Path>, container_checksum: u64) -> Result<Self, StoreError> {
        let path = wal_path(index);
        let info = scan(&path, container_checksum)?.map(|s| s.info);
        let (len, file_len, frames, deltas) = match info {
            // A stale WAL restarts from scratch; its length still counts
            // as file bytes to overwrite.
            Some(i) if i.stale => (0, i.file_bytes, 0, 0),
            Some(i) => (i.valid_bytes, i.file_bytes, i.frames, i.deltas),
            None => (0, 0, 0, 0),
        };
        Ok(Self {
            path,
            container_checksum,
            len,
            file_len,
            frames,
            deltas,
            poisoned: false,
        })
    }

    /// Path of the WAL file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Valid frames on disk.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Deltas inside the valid frames.
    pub fn deltas(&self) -> usize {
        self.deltas
    }

    /// Length of the valid prefix on disk (0 before the first append).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Whether a failed append could not be undone. A poisoned writer
    /// refuses every append; reopen the container to recover.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one frame holding `deltas` and makes it durable. Returns
    /// the bytes appended (header included on a fresh WAL).
    pub fn append(&mut self, deltas: &[EdgeDelta]) -> Result<u64, StoreError> {
        let before = self.len;
        self.append_with(deltas, &SystemIo)?;
        Ok(self.len - before)
    }

    /// [`append`](Wal::append) through an injectable I/O layer. On
    /// [`PublishOutcome::Committed`] the frame is durable. On an error
    /// the file is back at its previous length (or the writer is
    /// poisoned). [`PublishOutcome::Crashed`] only occurs under fault
    /// simulation and leaves the disk as the simulated power cut would.
    pub fn append_with<Io: StoreIo>(
        &mut self,
        deltas: &[EdgeDelta],
        io: &Io,
    ) -> Result<PublishOutcome, StoreError> {
        if self.poisoned {
            return Err(StoreError::Publish {
                step: PublishStep::WalRollback.name(),
                source: std::io::Error::other(
                    "an earlier failed append could not be undone; reopen the index",
                ),
            });
        }
        if deltas.is_empty() {
            return Ok(PublishOutcome::Committed);
        }
        let fresh = self.len == 0;
        let mut bytes = Vec::new();
        if fresh {
            bytes.extend_from_slice(&encode_header(self.container_checksum));
        }
        bytes.extend_from_slice(&encode_frame(deltas));
        let fail = |step: PublishStep, source: std::io::Error| StoreError::Publish {
            step: step.name(),
            source,
        };

        // 1. Open: create (or reset) a fresh WAL and make its directory
        //    entry durable; otherwise reopen and cut any torn tail.
        let mut file = if fresh {
            let decision = io.decide(PublishStep::WalCreate);
            match decision {
                IoDecision::Proceed | IoDecision::CrashAfter => {
                    let file =
                        File::create(&self.path).map_err(|e| fail(PublishStep::WalCreate, e))?;
                    self.file_len = 0;
                    sync_parent_dir(&self.path).map_err(|e| fail(PublishStep::WalCreate, e))?;
                    if decision == IoDecision::CrashAfter {
                        return Ok(PublishOutcome::Crashed(PublishStep::WalCreate));
                    }
                    file
                }
                IoDecision::Fail => {
                    return Err(fail(
                        PublishStep::WalCreate,
                        injected_error(PublishStep::WalCreate),
                    ))
                }
                IoDecision::CrashBefore | IoDecision::CrashDuring(_) => {
                    return Ok(PublishOutcome::Crashed(PublishStep::WalCreate))
                }
            }
        } else {
            let file = OpenOptions::new()
                .write(true)
                .open(&self.path)
                .map_err(|e| fail(PublishStep::WalAppend, e))?;
            if self.file_len != self.len {
                file.set_len(self.len)
                    .map_err(|e| fail(PublishStep::WalAppend, e))?;
                self.file_len = self.len;
            }
            file
        };
        let pre_len = self.len;

        // 2. Write header (fresh only) and frame in one `write`.
        let decision = io.decide(PublishStep::WalAppend);
        match decision {
            IoDecision::Proceed | IoDecision::CrashAfter => {
                let written = file
                    .seek(SeekFrom::Start(pre_len))
                    .and_then(|_| file.write_all(&bytes));
                if let Err(e) = written {
                    return Err(self.undo(&file, pre_len, io, fail(PublishStep::WalAppend, e)));
                }
                if decision == IoDecision::CrashAfter {
                    return Ok(PublishOutcome::Crashed(PublishStep::WalAppend));
                }
            }
            IoDecision::Fail => {
                let err = fail(
                    PublishStep::WalAppend,
                    injected_error(PublishStep::WalAppend),
                );
                return Err(self.undo(&file, pre_len, io, err));
            }
            IoDecision::CrashBefore => return Ok(PublishOutcome::Crashed(PublishStep::WalAppend)),
            IoDecision::CrashDuring(n) => {
                // Torn append: only a prefix reached the file before the cut.
                let cut = bytes.get(..n.min(bytes.len())).unwrap_or(&[]);
                let _ = file
                    .seek(SeekFrom::Start(pre_len))
                    .and_then(|_| file.write_all(cut))
                    .and_then(|_| sync_file_data(&file));
                return Ok(PublishOutcome::Crashed(PublishStep::WalAppend));
            }
        }

        // 3. fdatasync: after this the batch may be acknowledged.
        let decision = io.decide(PublishStep::WalSync);
        match decision {
            IoDecision::Proceed | IoDecision::CrashAfter => {
                if let Err(e) = sync_file_data(&file) {
                    return Err(self.undo(&file, pre_len, io, fail(PublishStep::WalSync, e)));
                }
                if decision == IoDecision::CrashAfter {
                    return Ok(PublishOutcome::Crashed(PublishStep::WalSync));
                }
            }
            IoDecision::Fail => {
                let err = fail(PublishStep::WalSync, injected_error(PublishStep::WalSync));
                return Err(self.undo(&file, pre_len, io, err));
            }
            IoDecision::CrashBefore | IoDecision::CrashDuring(_) => {
                return Ok(PublishOutcome::Crashed(PublishStep::WalSync))
            }
        }

        self.len = pre_len + bytes.len() as u64;
        self.file_len = self.len;
        self.frames += 1;
        self.deltas += deltas.len();
        Ok(PublishOutcome::Committed)
    }

    /// Undoes a failed append: truncate back to `pre_len` and sync, so
    /// the disk matches the caller's rolled-back state. Returns the
    /// error to report; poisons the writer when the undo fails too.
    fn undo<Io: StoreIo>(
        &mut self,
        file: &File,
        pre_len: u64,
        io: &Io,
        err: StoreError,
    ) -> StoreError {
        let undone = match io.decide(PublishStep::WalRollback) {
            IoDecision::Fail => Err(injected_error(PublishStep::WalRollback)),
            _ => file.set_len(pre_len).and_then(|_| sync_file_data(file)),
        };
        match undone {
            Ok(()) => {
                self.file_len = pre_len;
                err
            }
            Err(e) => {
                self.poisoned = true;
                StoreError::Publish {
                    step: PublishStep::WalRollback.name(),
                    source: std::io::Error::other(format!(
                        "{err}; truncating the failed frame also failed: {e}"
                    )),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(checksum: u64, batches: &[&[EdgeDelta]]) -> Vec<u8> {
        let mut bytes = encode_header(checksum).to_vec();
        for b in batches {
            bytes.extend(encode_frame(b));
        }
        bytes
    }

    #[test]
    fn frames_round_trip() {
        let a = [EdgeDelta::insert(1, 2)];
        let b = [EdgeDelta::delete(3, 4), EdgeDelta::insert(5, 6)];
        let scan = decode(&image(7, &[&a, &b]), 7).unwrap();
        assert_eq!(scan.info.frames, 2);
        assert_eq!(scan.deltas, [a[0], b[0], b[1]]);
        assert_eq!(scan.info.torn_bytes(), 0);
        assert_eq!(encode_frame(&a).len(), WAL_FRAME_HEADER_LEN + DELTA_BYTES);
    }

    #[test]
    fn stale_and_torn_are_ignored_but_mid_file_damage_is_not() {
        let a = [EdgeDelta::insert(1, 2)];
        let full = image(7, &[&a, &a]);
        let stale = decode(&full, 8).unwrap();
        assert!(stale.info.stale && stale.deltas.is_empty());
        for cut in 0..full.len() {
            let scan = decode(&full[..cut], 7).unwrap();
            assert!(scan.deltas.len() <= 2, "cut {cut}");
            assert_eq!(
                scan.info.valid_bytes + scan.info.torn_bytes(),
                cut as u64,
                "cut {cut}"
            );
        }
        // Flip a payload byte of the first of two frames.
        let mut bad = full.clone();
        bad[WAL_HEADER_LEN + WAL_FRAME_HEADER_LEN] ^= 1;
        assert!(matches!(decode(&bad, 7), Err(StoreError::Corrupt { .. })));
        // The same flip in the last frame is a torn tail.
        let mut tail = full.clone();
        let last = tail.len() - 1;
        tail[last] ^= 1;
        assert_eq!(decode(&tail, 7).unwrap().info.frames, 1);
        let mut header = full;
        header[20] ^= 1;
        assert!(matches!(
            decode(&header, 7),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
