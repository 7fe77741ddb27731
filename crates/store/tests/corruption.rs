//! Corruption handling: every malformed container must produce a typed
//! [`StoreError`] — never a panic, never undefined behaviour.

use hcl_core::{testkit, CsrError};
use hcl_index::{HighwayCoverIndex, IndexConfig};
use hcl_store::{IndexStore, SectionInfo, StoreError, HEADER_LEN};

fn sample_bytes() -> Vec<u8> {
    let g = testkit::barabasi_albert(80, 3, 4);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 6 });
    hcl_store::serialize(&g, &idx).expect("serialize")
}

/// The section called `name` in a loadable container.
fn section(bytes: &[u8], name: &str) -> SectionInfo {
    IndexStore::from_bytes(bytes)
        .expect("clean loads")
        .sections()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("section {name} present"))
}

/// Byte offset of section-table entry `i` (kind, elem size, offset, len).
fn table_entry(i: usize) -> usize {
    HEADER_LEN + i * 24
}

/// Index of the section-table entry holding kind `kind`.
fn table_index(bytes: &[u8], kind: u32) -> usize {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .find(|&i| {
            let at = table_entry(i);
            u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == kind
        })
        .unwrap_or_else(|| panic!("kind {kind} in the section table"))
}

fn corrupt_after_checksum_fix(mut bytes: Vec<u8>) -> StoreError {
    hcl_store::rewrite_checksum(&mut bytes);
    IndexStore::from_bytes(&bytes).expect_err("tampered container must not load")
}

#[test]
fn pristine_sample_loads() {
    assert!(IndexStore::from_bytes(&sample_bytes()).is_ok());
}

#[test]
fn truncation_at_any_length_is_a_typed_error() {
    let bytes = sample_bytes();
    // Every strict prefix must fail cleanly. Step through densely at the
    // start (header/table) and more coarsely through the payload.
    let mut cut = 0usize;
    while cut < bytes.len() {
        let err = IndexStore::from_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes unexpectedly loaded"));
        assert!(
            matches!(err, StoreError::Truncated { .. }),
            "prefix of {cut} bytes: expected Truncated, got {err:?}"
        );
        cut += if cut < 300 { 7 } else { 997 };
    }
}

#[test]
fn bad_magic_is_detected() {
    let mut bytes = sample_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
    // A file that is not a container at all.
    assert!(matches!(
        IndexStore::from_bytes(b"#!/bin/sh\necho not an index file, sorry\n" as &[u8]).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
}

#[test]
fn wrong_version_is_detected() {
    let mut bytes = sample_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::UnsupportedVersion { found: 99, .. }
    ));
}

/// The version just below the oldest readable one (v5, whose reader was
/// removed) and the one just above the current one are typed errors
/// naming the readable range, checksum intact or not.
#[test]
fn v5_and_v8_headers_are_unsupported_versions() {
    for version in [5u32, 8] {
        let mut bytes = sample_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        for bytes in [bytes.clone(), {
            hcl_store::rewrite_checksum(&mut bytes);
            bytes
        }] {
            match IndexStore::from_bytes(&bytes).unwrap_err() {
                StoreError::UnsupportedVersion {
                    found,
                    oldest_supported,
                    supported,
                } => {
                    assert_eq!(found, version);
                    assert_eq!(oldest_supported, hcl_store::OLDEST_READABLE_VERSION);
                    assert_eq!(supported, hcl_store::FORMAT_VERSION);
                    assert_eq!((oldest_supported, supported), (6, 7));
                }
                other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }
}

/// The label-entry sections: a v7 file holds exactly one of kind 9 (wide)
/// and kind 12 (narrow), each with its own element size, and narrow words
/// get the same semantic checks as wide ones.
#[test]
fn label_entry_sections_are_checked() {
    let g = testkit::barabasi_albert(80, 3, 4);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 6 });
    let info = hcl_store::BuildInfo::default();
    let stats = hcl_store::StoredBuildStats {
        bfs_visits: 1,
        label_insertions: 1,
        dominated: 0,
        landmark_labels: vec![0; 6],
    };
    let clean = hcl_store::serialize_with_stats(&g, &idx, info, &stats).expect("serialize");
    assert!(IndexStore::from_bytes(&clean).is_ok());
    let narrow = table_index(&clean, 12);
    let corrupt = |what: &str, err: StoreError| match err {
        StoreError::Corrupt { what: msg } => assert!(msg.contains(what), "{what}: {msg}"),
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    };

    // Kind 12 declaring 8-byte elements.
    let mut bytes = clean.clone();
    let at = table_entry(narrow) + 4;
    bytes[at..at + 4].copy_from_slice(&8u32.to_le_bytes());
    corrupt("element size 8", corrupt_after_checksum_fix(bytes));

    // Both kinds: relabel the (u64) build-stats section as kind 9.
    let mut bytes = clean.clone();
    let at = table_entry(table_index(&clean, 10));
    bytes[at..at + 4].copy_from_slice(&9u32.to_le_bytes());
    corrupt("exactly one", corrupt_after_checksum_fix(bytes));

    // Neither: relabel kind 12 as a (u64) journal section, its length
    // rounded down to whole 8-byte elements.
    let mut bytes = clean.clone();
    let at = table_entry(narrow);
    bytes[at..at + 4].copy_from_slice(&11u32.to_le_bytes());
    bytes[at + 4..at + 8].copy_from_slice(&8u32.to_le_bytes());
    let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
    bytes[at + 16..at + 24].copy_from_slice(&(len / 8 * 8).to_le_bytes());
    corrupt(
        "missing section label_entries",
        corrupt_after_checksum_fix(bytes),
    );

    // A narrow word whose hub is >= k (the hub is the high u16).
    let entries = section(&clean, "label_entries32");
    let mut bytes = clean.clone();
    let at = entries.offset as usize + 2;
    bytes[at..at + 2].copy_from_slice(&250u16.to_le_bytes());
    assert!(matches!(
        corrupt_after_checksum_fix(bytes),
        StoreError::InvalidIndex(hcl_index::IndexDataError::HubOutOfRange { hub: 250, .. })
    ));

    // Two narrow words of one vertex swapped: hubs out of order.
    let store = IndexStore::from_bytes(&clean).unwrap();
    let offsets = store.index().label_offsets();
    let (v, lo) = offsets
        .windows(2)
        .enumerate()
        .find(|(_, w)| w[1] - w[0] >= 2)
        .map(|(v, w)| (v, w[0] as usize))
        .expect("some vertex holds two entries");
    drop(store);
    let mut bytes = clean.clone();
    let at = entries.offset as usize + 4 * lo;
    let (first, second) = (bytes[at..at + 4].to_vec(), bytes[at + 4..at + 8].to_vec());
    bytes[at..at + 4].copy_from_slice(&second);
    bytes[at + 4..at + 8].copy_from_slice(&first);
    match corrupt_after_checksum_fix(bytes) {
        StoreError::InvalidIndex(hcl_index::IndexDataError::UnsortedHubs { vertex }) => {
            assert_eq!(vertex, v)
        }
        other => panic!("expected UnsortedHubs, got {other:?}"),
    }
}

#[test]
fn bit_flips_anywhere_in_the_payload_fail_the_checksum() {
    let clean = sample_bytes();
    for at in [64usize, 100, 256, clean.len() / 2, clean.len() - 1] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x04;
        assert!(
            matches!(
                IndexStore::from_bytes(&bytes).unwrap_err(),
                StoreError::ChecksumMismatch { .. }
            ),
            "flip at byte {at} was not caught"
        );
    }
}

#[test]
fn trailing_garbage_is_detected() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"padding");
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));
}

#[test]
fn checksum_fixed_but_sections_broken_is_corrupt() {
    // Tampering that *also* repairs the checksum must still be rejected by
    // the structural validators.
    let clean = sample_bytes();

    // Misalign a section offset.
    let mut bytes = clean.clone();
    let entry = HEADER_LEN + 8; // first section's offset field
    let off = u64::from_le_bytes(bytes[entry..entry + 8].try_into().unwrap());
    bytes[entry..entry + 8].copy_from_slice(&(off + 4).to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Point a section past the end of the file.
    let mut bytes = clean.clone();
    bytes[entry..entry + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Duplicate section kind.
    let mut bytes = clean.clone();
    bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&2u32.to_le_bytes()); // kind 1 -> 2
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Nonsense section count.
    let mut bytes = clean.clone();
    bytes[12..16].copy_from_slice(&3u32.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Lie about the vertex count in the metadata.
    let mut bytes = clean.clone();
    bytes[32..40].copy_from_slice(&123456u64.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));
}

#[test]
fn semantically_invalid_graph_arrays_are_rejected() {
    // Build a container whose bytes are internally consistent (checksum
    // repaired) but whose neighbour array violates CSR invariants.
    let g = testkit::path(6);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 2 });
    let clean = hcl_store::serialize(&g, &idx).expect("serialize");
    let store = IndexStore::from_bytes(&clean).expect("clean loads");
    let neighbors = store
        .sections()
        .into_iter()
        .find(|s| s.name == "graph_neighbors")
        .expect("section present");
    drop(store);

    // Out-of-range neighbour id.
    let mut bytes = clean.clone();
    let at = neighbors.offset as usize;
    bytes[at..at + 4].copy_from_slice(&777u32.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::InvalidGraph(CsrError::NeighborOutOfRange { .. })
    ));

    // Break symmetry: rewrite vertex 0's single neighbour (1 -> 5).
    let mut bytes = clean.clone();
    bytes[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::InvalidGraph(_)
    ));
}

#[test]
fn semantically_invalid_index_arrays_are_rejected() {
    // Wide (v6) words here; `label_entry_sections_are_checked` covers the
    // narrow ones.
    let g = testkit::star(8);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 3 });
    let clean = hcl_store::serialize_v6_with(&g, &idx, hcl_store::BuildInfo::default(), None, None)
        .expect("serialize");
    let store = IndexStore::from_bytes(&clean).expect("clean loads");
    let entries = store
        .sections()
        .into_iter()
        .find(|s| s.name == "label_entries")
        .expect("section present");
    drop(store);

    let mut bytes = clean.clone();
    // Entries are packed u64s with the hub in the high 32 bits; a hub
    // rank >= k in the first entry must be caught by semantic validation.
    let at = entries.offset as usize + 4;
    bytes[at..at + 4].copy_from_slice(&250u32.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::InvalidIndex(_)
    ));
}

/// The trusted path skips only the CRC pass. Payload bit rot that stays
/// structurally plausible therefore gets through (the documented trade —
/// wrong answers, never panics or UB), while every structural and
/// semantic violation is still rejected with the same typed errors.
#[test]
fn trusted_mode_skips_exactly_the_checksum() {
    let clean = sample_bytes();
    assert!(IndexStore::from_bytes_trusted(&clean).is_ok());

    // Flip a bit inside a label *distance* (low half of a packed narrow
    // entry): structurally valid, so the validated path must catch it via
    // the CRC and the trusted path — by design — must not.
    let entries = section(&clean, "label_entries32");
    let mut bytes = clean.clone();
    bytes[entries.offset as usize] ^= 0x01;
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
    assert!(
        IndexStore::from_bytes_trusted(&bytes).is_ok(),
        "trusted mode must not pay for the CRC pass"
    );

    // Everything cheaper than the CRC still runs under trusted mode.
    let mut bad_magic = clean.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        IndexStore::from_bytes_trusted(&bad_magic).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
    assert!(matches!(
        IndexStore::from_bytes_trusted(&clean[..clean.len() / 2]).unwrap_err(),
        StoreError::Truncated { .. }
    ));
    // Structural: misaligned section offset (checksum repaired, so only
    // the geometry check can object).
    let mut misaligned = clean.clone();
    let entry = HEADER_LEN + 8;
    let off = u64::from_le_bytes(misaligned[entry..entry + 8].try_into().unwrap());
    misaligned[entry..entry + 8].copy_from_slice(&(off + 4).to_le_bytes());
    hcl_store::rewrite_checksum(&mut misaligned);
    assert!(matches!(
        IndexStore::from_bytes_trusted(&misaligned).unwrap_err(),
        StoreError::Corrupt { .. }
    ));
    // Semantic: out-of-range hub rank in the first packed entry.
    let mut bad_hub = clean.clone();
    let at = entries.offset as usize + 2;
    bad_hub[at..at + 2].copy_from_slice(&250u16.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bad_hub);
    assert!(matches!(
        IndexStore::from_bytes_trusted(&bad_hub).unwrap_err(),
        StoreError::InvalidIndex(_)
    ));

    // The trusted path also serves files on disk.
    let mut path = std::env::temp_dir();
    path.push(format!("hcl_store_trusted_{}.hcl", std::process::id()));
    std::fs::write(&path, &clean).unwrap();
    assert!(IndexStore::open_trusted(&path).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_errors_are_typed_io() {
    let err = IndexStore::open("/definitely/not/a/real/path.hcl").unwrap_err();
    assert!(matches!(err, StoreError::Io(_)));
}

#[test]
fn corrupted_file_on_disk_fails_via_open_too() {
    let mut bytes = sample_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    let mut path = std::env::temp_dir();
    path.push(format!("hcl_store_corrupt_{}.hcl", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let err = IndexStore::open(&path).unwrap_err();
    assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
    std::fs::remove_file(&path).ok();
}

/// Every single-bit flip and every truncation of a delta WAL opens to a
/// prefix of its batches or to a typed error — never a panic, never a
/// batch that was not written.
#[test]
fn damaged_wal_opens_to_a_batch_prefix_or_a_typed_error() {
    use hcl_core::EdgeDelta;
    let dir = std::env::temp_dir().join(format!("hcl_corrupt_wal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.hcl");
    std::fs::write(&path, sample_bytes()).unwrap();
    let base = IndexStore::open(&path).unwrap();
    let edges = |s: &IndexStore| s.graph().num_edges();
    let base_edges = edges(&base);
    let mut wal = hcl_store::Wal::open(&path, base.meta().checksum).unwrap();
    drop(base);
    let n = 80u32;
    let non_edges: Vec<(u32, u32)> = {
        let s = IndexStore::open(&path).unwrap();
        (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|&(u, v)| !s.graph().has_edge(u, v))
            .take(3)
            .collect()
    };
    for &(u, v) in &non_edges {
        wal.append(&[EdgeDelta::insert(u, v)]).unwrap();
    }
    let wal_file = hcl_store::wal_path(&path);
    let pristine = std::fs::read(&wal_file).unwrap();
    // Each surviving batch adds one edge; anything else is a bug.
    let check = |what: &str| match IndexStore::open(&path) {
        Ok(s) => {
            let added = edges(&s) - base_edges;
            assert!(added <= non_edges.len(), "{what}: {added} edges appeared");
            for &(u, v) in &non_edges[..added] {
                assert!(s.graph().has_edge(u, v), "{what}: not a batch prefix");
            }
        }
        Err(e) => assert!(
            matches!(e, StoreError::Corrupt { .. }),
            "{what}: expected a typed WAL error, got {e:?}"
        ),
    };
    // Every position natively; a stride under the (much slower) Miri.
    let stride = if cfg!(miri) { 11 } else { 1 };
    for cut in (0..pristine.len()).step_by(stride) {
        std::fs::write(&wal_file, &pristine[..cut]).unwrap();
        check(&format!("truncated to {cut}"));
    }
    for byte in (0..pristine.len()).step_by(stride) {
        for bit in [0u8, 3, 7] {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 1 << bit;
            std::fs::write(&wal_file, &flipped).unwrap();
            check(&format!("bit {bit} of byte {byte} flipped"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
