//! The crash-safe KB directory format, owned by [`crate::ShardedKb`] and
//! shared by recovery and replication.
//!
//! Layout of a KB directory:
//!
//! ```text
//! kb-dir/
//!   snapshot-000007.json        # full KB as of segment 7 (atomic write)
//!   snapshot-000007.meta.json   # its sidecar: records applied so far
//!   wal-000008.log              # sealed segment
//!   wal-000009.log              # active segment (appends go here)
//! ```
//!
//! Opening ([`recover_dir`]) replays the latest snapshot, then every
//! segment with a higher sequence number in order — truncating a torn
//! final record instead of failing — and resumes appending to the highest
//! segment. [`crate::ShardedKb::snapshot`] folds the current state into a
//! new snapshot and deletes the segments (and older snapshots) it covers.

use crate::wal::{
    list_seqs, meta_name, parse_segment_name, parse_snapshot_name, scan_frames, segment_name,
    snapshot_name, WalRecord, WalWriter,
};
use serde::{Deserialize, Serialize};
use smartml_kb::{check_carried, check_landmarkers, check_meta_features, KbError, KnowledgeBase};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::Path;

/// Tuning knobs for a KB directory's WAL.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// `fsync` after every append (durable against power loss, slower).
    /// Off, appends still reach the OS immediately and survive process
    /// crashes — only a machine crash can lose the last few records.
    pub fsync_writes: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { segment_bytes: 1 << 20, fsync_writes: true }
    }
}

/// What recovery found when opening a directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot that seeded the state, if any.
    pub snapshot_seq: Option<u64>,
    /// Segments replayed over the snapshot.
    pub segments_replayed: usize,
    /// Records applied from those segments.
    pub records_replayed: usize,
    /// True when a torn tail was truncated somewhere during replay.
    pub truncated_tail: bool,
    /// Total WAL records ever applied in this directory's lineage: the
    /// snapshot sidecar's count plus the records replayed this open. The
    /// replication sequence number — a replica is caught up when its
    /// applied sequence equals the primary's.
    pub applied_seq: u64,
}

/// Sidecar payload stored next to each snapshot (`snapshot-NNNNNN.meta.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotMeta {
    applied_seq: u64,
}

/// Reads a snapshot's sidecar applied-record count. A missing or
/// unparseable sidecar (directories written before replication existed)
/// counts as zero — the sidecar is advisory lag metadata, not a
/// correctness input.
pub(crate) fn read_snapshot_meta(dir: &Path, seq: u64) -> u64 {
    std::fs::read_to_string(dir.join(meta_name(seq)))
        .ok()
        .and_then(|s| serde_json::from_str::<SnapshotMeta>(&s).ok())
        .map(|m| m.applied_seq)
        .unwrap_or(0)
}

/// Writes a snapshot's sidecar atomically (tmp + rename).
pub(crate) fn write_snapshot_meta(dir: &Path, seq: u64, applied_seq: u64) -> Result<(), KbError> {
    let body = serde_json::to_string(&SnapshotMeta { applied_seq })
        .expect("sidecar serialisation cannot fail");
    let tmp = dir.join(format!("{}.tmp", meta_name(seq)));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, dir.join(meta_name(seq)))?;
    Ok(())
}

/// What an entry or record read from `path` (when there is one) failed
/// [`check_meta_features`] or [`check_landmarkers`] with, as
/// [`KbError::Corrupt`] naming the dataset. Applied, it would poison
/// every later query — refuse, never index.
fn unindexable(path: Option<&Path>, dataset_id: &str, why: String) -> KbError {
    KbError::Corrupt {
        path: path.map(Path::to_path_buf),
        detail: format!("dataset `{dataset_id}`: {why}"),
    }
}

/// Refuses a loaded or shipped snapshot holding an unindexable entry.
pub(crate) fn check_entries(path: Option<&Path>, kb: &KnowledgeBase) -> Result<(), KbError> {
    kb.entries().iter().try_for_each(|e| {
        check_carried(&e.meta_features.values, e.landmarkers)
            .map_err(|why| unindexable(path, &e.dataset_id, why))
    })
}

/// Refuses a scanned or shipped WAL span holding an unindexable record.
pub(crate) fn check_records(path: Option<&Path>, records: &[WalRecord]) -> Result<(), KbError> {
    records.iter().try_for_each(|record| match record {
        WalRecord::Run { dataset_id, meta_features, .. } => {
            check_meta_features(&meta_features.values)
                .map_err(|why| unindexable(path, dataset_id, why))
        }
        WalRecord::Landmarkers { dataset_id, landmarkers } => {
            check_landmarkers(*landmarkers).map_err(|why| unindexable(path, dataset_id, why))
        }
    })
}

/// Replays a KB directory: latest snapshot, then every newer segment in
/// order (truncating a torn tail), and opens the writer positioned on
/// the highest segment. Every store — primary, replica, in-process —
/// opens through here ([`crate::ShardedKb::open_with`]).
pub(crate) fn recover_dir(
    dir: &Path,
    options: &DurableOptions,
) -> Result<(KnowledgeBase, WalWriter, RecoveryReport), KbError> {
    std::fs::create_dir_all(dir)?;
    let snapshots = list_seqs(dir, parse_snapshot_name)?;
    let snapshot_seq = snapshots.last().copied();
    let mut kb = match snapshot_seq {
        Some(seq) => {
            let path = dir.join(snapshot_name(seq));
            let kb = KnowledgeBase::load(&path)?;
            check_entries(Some(&path), &kb)?;
            kb
        }
        None => KnowledgeBase::new(),
    };
    let mut recovery = RecoveryReport { snapshot_seq, ..Default::default() };
    recovery.applied_seq = snapshot_seq.map(|s| read_snapshot_meta(dir, s)).unwrap_or(0);
    let floor = snapshot_seq.unwrap_or(0);
    let segments: Vec<u64> =
        list_seqs(dir, parse_segment_name)?.into_iter().filter(|&s| s > floor).collect();
    for (ix, &seq) in segments.iter().enumerate() {
        let path = dir.join(segment_name(seq));
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let scan = scan_frames(&bytes, &path)?;
        if let Some(torn_at) = scan.torn_at {
            // A torn tail is only legal on the *final* segment — the one
            // the crash interrupted. A tear behind a sealed rotation
            // boundary is a hole in acknowledged history: replaying past
            // it would silently drop records that later segments assume
            // exist, so refuse to open instead.
            if ix + 1 != segments.len() {
                return Err(KbError::Corrupt {
                    path: Some(path),
                    detail: format!(
                        "segment {seq} torn at byte {torn_at} with later segment(s) \
                         present — mid-rotation history hole, refusing to replay past it"
                    ),
                });
            }
            // Drop the torn tail so future appends start on a boundary.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(torn_at)?;
            f.sync_all()?;
            recovery.truncated_tail = true;
        }
        check_records(Some(&path), &scan.records)?;
        for record in &scan.records {
            record.apply_to(&mut kb);
        }
        recovery.segments_replayed += 1;
        recovery.records_replayed += scan.records.len();
    }
    recovery.applied_seq += recovery.records_replayed as u64;
    // Resume on the highest segment, or start the one after the
    // snapshot so sequence numbers never move backwards.
    let active = segments.last().copied().unwrap_or(floor + 1);
    let writer = WalWriter::open(dir, active, options.segment_bytes, options.fsync_writes)?;
    Ok((kb, writer, recovery))
}

#[cfg(test)]
mod tests {
    //! The directory format exercised through its one store, opened the
    //! way the in-process `wal:DIR` backend opens it.

    use super::*;
    use crate::ShardedKb;
    use smartml_classifiers::{Algorithm, ParamConfig};
    use smartml_data::synth::gaussian_blobs;
    use smartml_kb::{AlgorithmRun, KbBackend, QueryOptions};
    use smartml_metafeatures::{extract, Landmarkers, MetaFeatures};
    use std::path::PathBuf;

    fn mf(seed: u64) -> MetaFeatures {
        let d = gaussian_blobs("m", 40 + seed as usize, 3, 2, 1.0, seed);
        extract(&d, &d.all_rows())
    }

    fn run(acc: f64) -> AlgorithmRun {
        AlgorithmRun { algorithm: Algorithm::Svm, config: ParamConfig::default(), accuracy: acc }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, options: DurableOptions) -> Result<ShardedKb, KbError> {
        ShardedKb::open_with(dir, options, 1)
    }

    #[test]
    fn reopen_recovers_all_records() {
        let dir = tmp("smartml-durable-reopen");
        {
            let kb = open(&dir, DurableOptions::default()).unwrap();
            for i in 0..5u64 {
                kb.record_run(&format!("d{i}"), &mf(i), run(0.6 + i as f64 / 100.0)).unwrap();
            }
            kb.set_landmarkers("d0", Landmarkers { decision_stump: 0.4, nearest_centroid: 0.5 })
                .unwrap();
        } // dropped without snapshot: the WAL is the only persistence
        let kb = open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(kb.len(), 5);
        assert_eq!(kb.n_runs(), 5);
        assert!(kb.to_monolithic().get("d0").unwrap().landmarkers.is_some());
        assert_eq!(kb.recovery().records_replayed, 6);
        assert!(!kb.recovery().truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_recovered_and_matches_in_memory_build() {
        let dir = tmp("smartml-durable-torn");
        let mut reference = KnowledgeBase::new();
        {
            let kb = open(&dir, DurableOptions::default()).unwrap();
            for i in 0..4u64 {
                kb.record_run(&format!("d{i}"), &mf(i), run(0.7)).unwrap();
                reference.record_run(&format!("d{i}"), &mf(i), run(0.7));
            }
        }
        // Tear the active segment mid-record: append half a frame.
        let seq = list_seqs(&dir, parse_segment_name).unwrap();
        let active = dir.join(segment_name(*seq.last().unwrap()));
        let torn = crate::wal::encode_frame(&WalRecord::Run {
            dataset_id: "torn".into(),
            meta_features: mf(9),
            run: run(0.9),
        });
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&active).unwrap();
            f.write_all(&torn[..torn.len() - 7]).unwrap();
        }
        let kb = open(&dir, DurableOptions::default()).unwrap();
        assert!(kb.recovery().truncated_tail);
        assert_eq!(kb.len(), 4, "complete records survive, torn one is dropped");
        // A recommend against the recovered store matches one against
        // the same runs applied in memory.
        let q = mf(2);
        let opts = QueryOptions::default();
        let recovered = kb.recommend(&q, None, &opts);
        let fresh = reference.recommend_extended(&q, None, &opts);
        assert_eq!(recovered, fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_preserves_state() {
        let dir = tmp("smartml-durable-snapshot");
        let small = DurableOptions { segment_bytes: 512, fsync_writes: false };
        let kb = open(&dir, small.clone()).unwrap();
        for i in 0..8u64 {
            kb.record_run(&format!("d{i}"), &mf(i), run(0.8)).unwrap();
        }
        assert!(kb.n_segments().unwrap() > 1, "tiny threshold must rotate");
        let covered = kb.snapshot().unwrap();
        // All covered segments are gone; one fresh segment remains.
        let segs = list_seqs(&dir, parse_segment_name).unwrap();
        assert_eq!(segs, vec![covered + 1]);
        let snaps = list_seqs(&dir, parse_snapshot_name).unwrap();
        assert_eq!(snaps, vec![covered]);
        // Post-snapshot writes land in the WAL; reopen sees everything.
        kb.record_run("after", &mf(20), run(0.9)).unwrap();
        drop(kb);
        let kb = open(&dir, small).unwrap();
        assert_eq!(kb.len(), 9);
        assert_eq!(kb.recovery().snapshot_seq, Some(covered));
        assert_eq!(kb.recovery().records_replayed, 1);
        // A second snapshot supersedes the first.
        let covered2 = kb.snapshot().unwrap();
        assert!(covered2 > covered);
        assert_eq!(list_seqs(&dir, parse_snapshot_name).unwrap(), vec![covered2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_rotation_tear_refuses_to_open() {
        let dir = tmp("smartml-durable-midrot-tear");
        let small = DurableOptions { segment_bytes: 256, fsync_writes: false };
        {
            let kb = open(&dir, small.clone()).unwrap();
            for i in 0..8u64 {
                kb.record_run(&format!("d{i}"), &mf(i), run(0.7)).unwrap();
            }
        }
        let segs = list_seqs(&dir, parse_segment_name).unwrap();
        assert!(segs.len() >= 2, "tiny threshold must rotate: {segs:?}");
        // Tear a SEALED segment — one with later segments behind it. That
        // is a hole in acknowledged history, not a crash-interrupted
        // append, and replaying past it would silently lose records.
        let sealed = dir.join(segment_name(segs[0]));
        let len = std::fs::metadata(&sealed).unwrap().len();
        let f = OpenOptions::new().write(true).open(&sealed).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        match open(&dir, small) {
            Err(KbError::Corrupt { path: Some(p), detail }) => {
                assert!(p.ends_with(segment_name(segs[0])), "{p:?}");
                assert!(detail.contains("history hole"), "{detail}");
            }
            Ok(_) => panic!("mid-rotation tear must refuse to open"),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_empty_tail_recovers_cleanly() {
        // Snapshot, then reopen with no post-snapshot writes: the active
        // segment exists on disk but holds zero frames. The sidecar must
        // carry the applied count across the compaction.
        let dir = tmp("smartml-durable-empty-tail");
        let opts = DurableOptions { fsync_writes: false, ..Default::default() };
        let kb = open(&dir, opts.clone()).unwrap();
        for i in 0..3u64 {
            kb.record_run(&format!("d{i}"), &mf(i), run(0.8)).unwrap();
        }
        assert_eq!(kb.applied_seq(), 3);
        let covered = kb.snapshot().unwrap();
        drop(kb);
        let kb = open(&dir, opts).unwrap();
        assert_eq!(kb.len(), 3);
        assert_eq!(kb.recovery().snapshot_seq, Some(covered));
        assert_eq!(kb.recovery().segments_replayed, 1);
        assert_eq!(kb.recovery().records_replayed, 0);
        assert!(!kb.recovery().truncated_tail);
        assert_eq!(kb.applied_seq(), 3, "sidecar must survive the snapshot");
        assert_eq!(kb.active_segment(), covered + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_surfaces_with_path() {
        let dir = tmp("smartml-durable-corrupt-snap");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(snapshot_name(3)), "{broken").unwrap();
        match open(&dir, DurableOptions::default()) {
            Err(KbError::Corrupt { path: Some(p), .. }) => {
                assert!(p.ends_with(snapshot_name(3)));
            }
            Ok(_) => panic!("expected corrupt snapshot error, got a KB"),
            other => panic!("expected corrupt snapshot error, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_trait_roundtrip() {
        let dir = tmp("smartml-durable-backend");
        let mut kb = open(&dir, DurableOptions::default()).unwrap();
        kb.kb_record_run("d", &mf(1), run(0.66)).unwrap();
        assert_eq!(kb.kb_len(), 1);
        assert_eq!(kb.kb_n_runs(), 1);
        assert_eq!(kb.kb_describe(), format!("wal:{}", dir.display()));
        let rec = kb.kb_recommend(&mf(1), None, &QueryOptions::default()).unwrap();
        assert!(!rec.algorithms.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
