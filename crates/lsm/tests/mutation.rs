//! Mutation tests for the structural invariant checker: seed specific
//! corruptions into otherwise-healthy databases and assert
//! `Db::check_integrity` reports each with a precise, distinct diagnostic.
//!
//! Two seeding styles are used, mirroring how corruption happens in the
//! wild:
//!
//! * **byte-level** faults via [`FaultEnv::flip_byte`] /
//!   [`FaultEnv::truncate_file`] (bit rot, torn writes);
//! * **metadata** faults by appending hand-crafted evil [`VersionEdit`]s to
//!   the MANIFEST between close and reopen (a buggy compaction install —
//!   the failure mode the checker exists to catch).

use ldbpp_lsm::attr::{AttrExtractor, AttrValue};
use ldbpp_lsm::check::CheckCode;
use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::{Env, FaultEnv, MemEnv};
use ldbpp_lsm::version::{current_file_name, table_file_name, VersionEdit, VersionSet};
use ldbpp_lsm::wal::LogWriter;
use ldbpp_lsm::zonemap::ZoneEntry;
use std::sync::Arc;

const DB: &str = "mutadb";

/// Extractor for the tests' value format: attribute "A" is the first value
/// byte as an integer.
#[derive(Debug)]
struct FirstByteAttr;

impl AttrExtractor for FirstByteAttr {
    fn extract(&self, attr: &str, value: &[u8]) -> Option<AttrValue> {
        (attr == "A" && !value.is_empty()).then(|| AttrValue::Int(value[0] as i64))
    }
}

fn opts() -> DbOptions {
    DbOptions {
        indexed_attrs: vec!["A".to_string()],
        extractor: Some(Arc::new(FirstByteAttr)),
        auto_compact: false,
        ..DbOptions::small()
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("key{i:04}").into_bytes()
}

fn val(i: usize) -> Vec<u8> {
    let mut v = vec![(i % 200) as u8];
    v.extend_from_slice("v".repeat(40).as_bytes());
    v
}

/// Build a healthy two-L0-file database (interleaved key ranges, so the
/// files overlap — legal in L0, corrupt if moved to L1).
fn build(env: Arc<dyn Env>) -> Db {
    let db = Db::open(env, DB, opts()).unwrap();
    for i in (0..40).step_by(2) {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    for i in (1..40).step_by(2) {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    db
}

/// The two L0 table file numbers, newest first.
fn l0_files(db: &Db) -> Vec<u64> {
    db.current_version().files[0]
        .iter()
        .map(|f| f.number)
        .collect()
}

/// Close-doctor-reopen: run `evil` against a recovered [`VersionSet`] so
/// the lie lands in the MANIFEST, then reopen and check.
fn doctor_and_reopen(
    env: Arc<MemEnv>,
    evil: impl FnOnce(&mut VersionSet) -> VersionEdit,
) -> ldbpp_lsm::check::IntegrityReport {
    {
        let mut vs = VersionSet::recover(env.clone(), DB, opts().num_levels).unwrap();
        let edit = evil(&mut vs);
        vs.log_and_apply(edit).unwrap();
    }
    let db = Db::open(env, DB, opts()).unwrap();
    db.check_integrity()
}

#[test]
fn clean_db_passes() {
    let env = MemEnv::new();
    let db = build(env.clone());
    let report = db.check_integrity();
    assert!(report.is_clean(), "fresh db not clean:\n{report}");
    drop(db);
    let db = Db::open(env, DB, opts()).unwrap();
    let report = db.check_integrity();
    assert!(report.is_clean(), "reopened db not clean:\n{report}");
}

#[test]
fn clean_db_passes_after_compaction() {
    let env = MemEnv::new();
    let db = build(env);
    db.major_compact().unwrap();
    let report = db.check_integrity();
    assert!(report.is_clean(), "compacted db not clean:\n{report}");
}

#[test]
fn missing_file_detected() {
    let env = MemEnv::new();
    let db = build(env.clone());
    let victim = l0_files(&db)[0];
    env.remove(&table_file_name(DB, victim)).unwrap();
    let report = db.check_integrity();
    assert!(report.has(CheckCode::MissingFile), "{report}");
    let v = report
        .violations
        .iter()
        .find(|v| v.code == CheckCode::MissingFile)
        .unwrap();
    assert!(
        v.detail.contains(&format!("{victim:06}.ldb")),
        "diagnostic does not name the missing file: {v}"
    );
}

#[test]
fn orphan_file_detected() {
    let env = MemEnv::new();
    let db = build(env.clone());
    env.write_all(&format!("{DB}/999999.ldb"), b"stray")
        .unwrap();
    let report = db.check_integrity();
    assert!(report.has(CheckCode::OrphanFile), "{report}");
    let v = report
        .violations
        .iter()
        .find(|v| v.code == CheckCode::OrphanFile)
        .unwrap();
    assert!(v.detail.contains("999999.ldb"), "{v}");
}

#[test]
fn deferred_compaction_inputs_are_tracked_then_reclaimed_when_idle() {
    let env = MemEnv::new();
    let db = Db::open(
        env.clone(),
        DB,
        DbOptions {
            background_work: true,
            ..opts()
        },
    )
    .unwrap();
    for i in 0..40 {
        db.put(&key(i), &val(i)).unwrap();
        if i == 19 {
            db.flush().unwrap();
        }
    }
    db.flush().unwrap();
    // A reader holding the current version pins its files across the
    // compaction, so their deletion is deferred.
    let pinned = db.current_version();
    let inputs = l0_files(&db);
    assert!(!inputs.is_empty());
    db.major_compact().unwrap();
    for n in &inputs {
        assert!(env.exists(&table_file_name(DB, *n)), "file {n} is pinned");
    }
    let report = db.check_integrity();
    assert!(report.is_clean(), "pinned inputs are not orphans: {report}");

    // Once the reader is gone, an idle database reclaims them without
    // waiting for another compaction.
    drop(pinned);
    db.wait_for_background_idle().unwrap();
    for n in &inputs {
        assert!(!env.exists(&table_file_name(DB, *n)), "file {n} reclaimed");
    }
    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn truncated_file_detected() {
    let base = MemEnv::new();
    let env = FaultEnv::new(base);
    let db = build(env.clone());
    let victim = l0_files(&db)[0];
    env.truncate_file(&table_file_name(DB, victim), 64).unwrap();
    let report = db.check_integrity();
    assert!(report.has(CheckCode::FileSize), "{report}");
    let v = report
        .violations
        .iter()
        .find(|v| v.code == CheckCode::FileSize)
        .unwrap();
    assert!(
        v.detail.contains("64 bytes on disk"),
        "diagnostic lacks the actual size: {v}"
    );
}

#[test]
fn flipped_byte_detected() {
    let base = MemEnv::new();
    let env = FaultEnv::new(base);
    let db = build(env.clone());
    let victim = l0_files(&db)[0];
    // Offset 32 lands inside the first data block (well before the footer),
    // so the block's CRC catches it.
    env.flip_byte(&table_file_name(DB, victim), 32).unwrap();
    let report = db.check_integrity();
    assert!(report.has(CheckCode::TableUnreadable), "{report}");
}

#[test]
fn overlapping_l1_files_detected() {
    let env = MemEnv::new();
    let db = build(env.clone());
    let files = db.current_version().files[0].clone();
    assert_eq!(files.len(), 2, "expected exactly two L0 files");
    drop(db);
    // A buggy "compaction" that moves both interleaved L0 files to L1
    // verbatim: their key ranges overlap, which L1 must never allow.
    let report = doctor_and_reopen(env, |_| {
        let mut edit = VersionEdit::default();
        for f in &files {
            edit.delete_file(0, f.number);
            edit.add_file(1, (**f).clone());
        }
        edit
    });
    assert!(report.has(CheckCode::LevelOverlap), "{report}");
    let v = report
        .violations
        .iter()
        .find(|v| v.code == CheckCode::LevelOverlap)
        .unwrap();
    assert!(v.detail.contains("L1 files"), "{v}");
}

#[test]
fn lying_file_meta_detected() {
    let env = MemEnv::new();
    let db = build(env.clone());
    let f = Arc::clone(&db.current_version().files[0][0]);
    drop(db);
    // Re-install the newest L0 file with doctored counts and bounds.
    let report = doctor_and_reopen(env, |_| {
        let mut lie = (*f).clone();
        lie.num_entries += 5;
        lie.num_blocks += 1;
        lie.largest =
            ldbpp_lsm::InternalKey::new(b"zzz-not-there", 1, ldbpp_lsm::ValueType::Value).0;
        let mut edit = VersionEdit::default();
        edit.delete_file(0, f.number);
        edit.add_file(0, lie);
        edit
    });
    assert!(report.has(CheckCode::EntryCount), "{report}");
    assert!(report.has(CheckCode::BlockCount), "{report}");
    assert!(report.has(CheckCode::FileBounds), "{report}");
    let v = report
        .violations
        .iter()
        .find(|v| v.code == CheckCode::FileBounds)
        .unwrap();
    assert!(v.detail.contains("zzz-not-there"), "{v}");
}

#[test]
fn lying_zone_map_detected() {
    let env = MemEnv::new();
    let db = build(env.clone());
    let f = Arc::clone(&db.current_version().files[0][0]);
    drop(db);
    // Shrink the manifest's file-level zone map for attribute A to a range
    // no stored value falls in: zone pruning would silently skip the file.
    let report = doctor_and_reopen(env, |_| {
        let mut lie = (*f).clone();
        let mut zone = ZoneEntry::new();
        zone.update(&AttrValue::Int(100_000));
        lie.sec_file_zones = vec![("A".to_string(), zone)];
        let mut edit = VersionEdit::default();
        edit.delete_file(0, f.number);
        edit.add_file(0, lie);
        edit
    });
    assert!(report.has(CheckCode::ZoneMapLie), "{report}");
    let v = report
        .violations
        .iter()
        .find(|v| v.code == CheckCode::ZoneMapLie)
        .unwrap();
    assert!(
        v.detail.contains("manifest's file zone map"),
        "diagnostic does not name the lying structure: {v}"
    );
}

#[test]
fn sequence_beyond_last_detected() {
    let env = MemEnv::new();
    let db = build(env.clone());
    assert!(db.last_sequence() >= 40);
    drop(db);
    // Rewind the manifest's sequence counter: table entries now claim
    // sequences the database says were never assigned.
    let report = doctor_and_reopen(env, |vs| {
        vs.last_sequence = 1;
        VersionEdit::default()
    });
    assert!(report.has(CheckCode::SequenceBeyondLast), "{report}");
}

#[test]
fn manifest_mismatch_detected() {
    let env = MemEnv::new();
    let db = build(env.clone());
    // Point CURRENT at a hand-forged manifest describing a different tree:
    // one phantom file at L3 and none of the live files.
    let phantom = ldbpp_lsm::version::FileMetaData {
        number: 777,
        file_size: 1,
        num_entries: 1,
        num_blocks: 1,
        smallest: ldbpp_lsm::InternalKey::new(b"a", 1, ldbpp_lsm::ValueType::Value).0,
        largest: ldbpp_lsm::InternalKey::new(b"b", 1, ldbpp_lsm::ValueType::Value).0,
        sec_file_zones: Vec::new(),
    };
    let mut edit = VersionEdit::default();
    edit.add_file(3, phantom);
    let mut w = LogWriter::new(env.new_writable(&format!("{DB}/MANIFEST-777777")).unwrap());
    w.add_record(&edit.encode()).unwrap();
    w.sync().unwrap();
    env.write_all(&current_file_name(DB), b"MANIFEST-777777\n")
        .unwrap();
    let report = db.check_integrity();
    assert!(report.has(CheckCode::ManifestMismatch), "{report}");
    // Both directions of the disagreement are diagnosed: the phantom L3
    // file and the missing live L0 files.
    let phantom_named = report
        .violations
        .iter()
        .any(|v| v.code == CheckCode::ManifestMismatch && v.detail.contains("777"));
    assert!(phantom_named, "{report}");
}

#[test]
fn erased_keys_counter_persists() {
    let env = MemEnv::new();
    let opts = DbOptions {
        auto_compact: false,
        ..DbOptions::small()
    };
    let db = Db::open(env.clone(), DB, opts.clone()).unwrap();
    db.put(b"gone", b"v").unwrap();
    db.flush().unwrap();
    db.delete(b"gone").unwrap();
    db.flush().unwrap();
    assert_eq!(db.erased_keys(), 0);
    // Compacting to the base level discards the key's entire history
    // (tombstone included) — the manifest must remember that forever.
    db.major_compact().unwrap();
    assert!(db.erased_keys() > 0, "compaction did not count the erasure");
    let counted = db.erased_keys();
    drop(db);
    let db = Db::open(env, DB, opts).unwrap();
    assert_eq!(db.erased_keys(), counted, "counter lost across reopen");
}
