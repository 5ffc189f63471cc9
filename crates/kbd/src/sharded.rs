//! [`ShardedKb`]: the one durable KB store — served by the event-driven
//! server, opened in process as the `wal:DIR` backend. Entries split
//! across N shards, queries answered from one dense index.
//!
//! A recommendation is a global nearest-neighbour scan, so sharding
//! cannot partition *queries*: every query looks at every dataset. The
//! scan therefore does not walk the shards at all. It walks one flat
//! z-score matrix in global insertion order:
//!
//! - the registry keeps every dataset's current meta-features in a
//!   [`FeatureTable`] — row-major, one row per dataset, row = insertion
//!   sequence — and a `sequence → (shard, index in shard)` table;
//! - a [`ZIndex`] caches the table's z-scores, keyed on the table's
//!   *feature version*, which moves only when a row is appended or its
//!   bits change. A SET_LANDMARKERS, or a RECORD that repeats a known
//!   dataset's meta-features bit for bit (the pipeline's own traffic:
//!   one RECORD per tuned algorithm), leaves it warm;
//! - the first query after the version moved rebuilds the z-scores
//!   *into the buffer the cache already owns* — a fresh one only if a
//!   concurrent reader still scans the old — under the cache mutex, so
//!   concurrent readers wait for one rebuild instead of each running
//!   their own. Writes stay O(1): they never touch the cache;
//! - a query scans the matrix sequentially, keeps the best `k` rows,
//!   and dereferences [`KbEntry`]s for those `k` winners only.
//!
//! What the shards still partition is **run lists and write locks**:
//! each dataset's entry lives in exactly one shard, chosen by an FNV
//! hash of its meta-features at first insertion (sticky thereafter), and
//! a write locks the WAL, the registry and that *one* shard.
//!
//! ## Byte-identity with the monolithic [`KnowledgeBase`]
//!
//! The in-memory [`KnowledgeBase`] is the reference: the sharded answer
//! must be byte-identical to its `recommend_extended` over the same
//! history (the `sharded_differential` test compares by `to_bits`, the
//! `backend_equiv` test over the wire). `smartml_kb`'s `index` module
//! owns that argument (running sums are the reference's
//! own summation carried on; deviations and z-scores are re-swept with
//! the reference's expressions; `(distance, sequence)` is the stable
//! sort's order); this file adds only that rows are in global insertion
//! order and that the shared [`smartml_kb::vote_ranked`] sees the same
//! winners in the same order.
//!
//! Durability is the directory format of [`crate::durable`]: WAL
//! segments, snapshots and their sidecars. Entries are partitioned only
//! in memory, so a directory reopens at any shard count with the same
//! [`ShardedKb::to_monolithic`].

use crate::durable::{
    check_entries, check_records, recover_dir, write_snapshot_meta, DurableOptions,
    RecoveryReport,
};
use crate::wal::{
    list_seqs, meta_name, parse_meta_name, parse_segment_name, parse_snapshot_name, scan_frames,
    segment_name, snapshot_name, WalRecord, WalWriter,
};
use smartml_kb::{
    check_carried, check_landmarkers, check_meta_features, vote_ranked, AlgorithmRun, FeatureTable,
    KbBackend, KbEntry, KbError, KnowledgeBase, QueryOptions, Recommendation, ZIndex,
};
use smartml_metafeatures::{Landmarkers, MetaFeatures};
use smartml_obs::Counter;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// Z-score rebuilds: one per feature-version change that a query saw.
static ZCACHE_REBUILDS: Counter = Counter::new("kbd.zcache.rebuilds");

/// Rows whose distance a read's z-index scan finished, added once per
/// read; one minus it over the rows scanned is the share the scan's
/// bound pruned.
static ZINDEX_ROWS_FINISHED: Counter = Counter::new("kbd.zindex.rows_finished");

/// Where one dataset's entry lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    shard: usize,
    /// Index into that shard's `entries()`.
    index: usize,
}

/// Global bookkeeping, all of it keyed by global insertion sequence —
/// the entry's index in the monolithic ordering.
#[derive(Default)]
struct Registry {
    /// Dataset id → sequence.
    assign: HashMap<String, usize>,
    /// Current meta-features, row = sequence. Overwrites update in
    /// place, exactly like the monolithic KB.
    features: FeatureTable,
    /// Sequence → entry.
    locs: Vec<Loc>,
}

/// FNV-1a over the meta-feature bytes: deterministic shard routing that
/// needs no coordination and spreads adjacent datasets.
fn shard_of(values: &[f64], n_shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % n_shards as u64) as usize
}

impl Registry {
    /// Replaces whatever is indexed with already-checked `entries`
    /// (global insertion order), partitioned into the `n_shards` shards
    /// it returns. The feature table is cleared, not replaced: its
    /// version carries on, so the z-cache cannot mistake the new table
    /// for the one it last saw.
    fn reindex(&mut self, entries: Vec<KbEntry>, n_shards: usize) -> Vec<KnowledgeBase> {
        self.assign.clear();
        self.features.clear();
        self.locs.clear();
        let mut shards: Vec<Vec<KbEntry>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (seq, entry) in entries.into_iter().enumerate() {
            let shard = shard_of(&entry.meta_features.values, n_shards);
            self.assign.insert(entry.dataset_id.clone(), seq);
            self.features.push(&entry.meta_features.values);
            self.locs.push(Loc { shard, index: shards[shard].len() });
            shards[shard].push(entry);
        }
        shards.into_iter().map(KnowledgeBase::from_entries).collect()
    }
}

/// A WAL-durable, shard-partitioned KB index. All methods take `&self`;
/// share it behind an `Arc` across event loops.
pub struct ShardedKb {
    dir: PathBuf,
    options: DurableOptions,
    /// Writers serialise here first: WAL append order defines the
    /// global apply order (and therefore recovery order).
    wal: Mutex<WalWriter>,
    registry: RwLock<Registry>,
    shards: Vec<RwLock<KnowledgeBase>>,
    /// Z-scores of `registry.features` as of one version of it. Locked
    /// after the registry and shards, and never by a writer.
    zcache: Mutex<Arc<ZIndex>>,
    recovery: RecoveryReport,
    /// Total WAL records applied in this directory's lineage — the
    /// replication position (see [`RecoveryReport::applied_seq`]).
    applied_seq: AtomicU64,
}

impl ShardedKb {
    /// Opens (creating if needed) a KB directory, recovering it as the
    /// [`crate::durable`] module describes, and partitions the recovered
    /// entries into `n_shards` shards, preserving global insertion order.
    /// In-process `wal:DIR` users open one shard.
    pub fn open_with(
        dir: &Path,
        options: DurableOptions,
        n_shards: usize,
    ) -> Result<ShardedKb, KbError> {
        let (kb, writer, recovery) = recover_dir(dir, &options)?;
        let mut registry = Registry::default();
        let shards = registry.reindex(kb.into_entries(), n_shards.max(1));
        let applied_seq = AtomicU64::new(recovery.applied_seq);
        Ok(ShardedKb {
            dir: dir.to_path_buf(),
            options,
            wal: Mutex::new(writer),
            registry: RwLock::new(registry),
            shards: shards.into_iter().map(RwLock::new).collect(),
            zcache: Mutex::new(Arc::default()),
            recovery,
            applied_seq,
        })
    }

    /// What WAL recovery found when this index was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Datasets known.
    pub fn len(&self) -> usize {
        self.registry.read().expect("registry poisoned").features.len()
    }

    /// True when no datasets are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total recorded runs.
    pub fn n_runs(&self) -> usize {
        let _reg = self.registry.read().expect("registry poisoned");
        self.shards
            .iter()
            .map(|s| s.read().expect("shard poisoned").n_runs())
            .sum()
    }

    /// Sequence number of the active WAL segment.
    pub fn active_segment(&self) -> u64 {
        self.wal.lock().expect("wal poisoned").seq()
    }

    /// Total WAL records applied in this directory's lineage (the
    /// replication position).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Acquire)
    }

    /// Number of WAL segment files currently on disk.
    pub fn n_segments(&self) -> Result<usize, KbError> {
        Ok(list_seqs(&self.dir, parse_segment_name)?.len())
    }

    /// Directory this store journals into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Runs `f` with the active WAL position `(segment seq, byte len)`
    /// while holding the WAL mutex, so the position cannot move (and
    /// compaction cannot run) for the duration of the call.
    pub(crate) fn with_wal_position<T>(&self, f: impl FnOnce((u64, u64)) -> T) -> T {
        let wal = self.wal.lock().expect("wal poisoned");
        f((wal.seq(), wal.len()))
    }

    /// Logs then applies one run observation. WAL discipline: the
    /// record is on disk before any reader can observe it. The WAL
    /// mutex is held across the apply so WAL order equals apply order —
    /// recovery replays the exact in-memory history.
    pub fn record_run(
        &self,
        dataset_id: &str,
        meta_features: &MetaFeatures,
        run: AlgorithmRun,
    ) -> Result<(), KbError> {
        check_meta_features(&meta_features.values).map_err(KbError::Invalid)?;
        let record = WalRecord::Run {
            dataset_id: dataset_id.to_string(),
            meta_features: meta_features.clone(),
            run,
        };
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.append(&record)?;
        self.apply_record(&record);
        self.applied_seq.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Logs then applies landmarker accuracies for a dataset (a no-op
    /// for unknown ids, like the monolithic KB — but still logged).
    pub fn set_landmarkers(
        &self,
        dataset_id: &str,
        landmarkers: Landmarkers,
    ) -> Result<(), KbError> {
        check_landmarkers(landmarkers).map_err(KbError::Invalid)?;
        let record =
            WalRecord::Landmarkers { dataset_id: dataset_id.to_string(), landmarkers };
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.append(&record)?;
        self.apply_record(&record);
        self.applied_seq.fetch_add(1, Ordering::Release);
        drop(wal);
        Ok(())
    }

    /// Nominates algorithms — byte-identical to the monolithic
    /// [`KnowledgeBase::recommend_extended`] over the same history (see
    /// the module docs for why).
    ///
    /// # Panics
    ///
    /// On meta-features [`check_meta_features`] refuses; the servers
    /// check at dispatch, other callers use [`ShardedKb::try_recommend`].
    pub fn recommend(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Recommendation {
        self.try_recommend(meta_features, query_landmarkers, options)
            .expect("query meta-features were checked by the caller")
    }

    /// [`ShardedKb::recommend`], refusing a query the index cannot
    /// measure a distance to with [`KbError::Invalid`].
    pub fn try_recommend(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Result<Recommendation, KbError> {
        check_carried(&meta_features.values, query_landmarkers).map_err(KbError::Invalid)?;
        let reg = self.registry.read().expect("registry poisoned");
        let guards: Vec<RwLockReadGuard<'_, KnowledgeBase>> =
            self.shards.iter().map(|s| s.read().expect("shard poisoned")).collect();
        let entry = |seq: usize| {
            let Loc { shard, index } = reg.locs[seq];
            &guards[shard].entries()[index]
        };
        let (nearest, finished) = self.cached_z(&reg.features).nearest(
            &meta_features.values,
            query_landmarkers,
            options,
            |seq| entry(seq).landmarkers,
        );
        ZINDEX_ROWS_FINISHED.add(finished);
        // Same element size: collected into `nearest`'s own buffer.
        let ranked: Vec<(&KbEntry, f64)> =
            nearest.into_iter().map(|(seq, distance)| (entry(seq), distance)).collect();
        Ok(vote_ranked(&ranked, options))
    }

    /// The z-scores of `features`, rebuilt first if its version moved
    /// since they were computed. Called with the registry read guard
    /// held, so the table cannot change underneath the rebuild; holding
    /// the cache mutex across it makes the rebuild single-flight.
    fn cached_z(&self, features: &FeatureTable) -> Arc<ZIndex> {
        let mut cache = self.zcache.lock().expect("zcache poisoned");
        if cache.version() != features.version() {
            ZCACHE_REBUILDS.inc();
            // In place unless a reader still scans the old z-scores.
            if Arc::get_mut(&mut cache).is_none() {
                *cache = Arc::default();
            }
            Arc::get_mut(&mut cache).expect("sole owner: checked or just made").rebuild(features);
        }
        Arc::clone(&cache)
    }

    /// Reassembles the monolithic KB (global insertion order) from the
    /// shards. Used by snapshotting and the equivalence tests.
    pub fn to_monolithic(&self) -> KnowledgeBase {
        let reg = self.registry.read().expect("registry poisoned");
        let guards: Vec<RwLockReadGuard<'_, KnowledgeBase>> =
            self.shards.iter().map(|s| s.read().expect("shard poisoned")).collect();
        let entries =
            reg.locs.iter().map(|loc| guards[loc.shard].entries()[loc.index].clone()).collect();
        KnowledgeBase::from_entries(entries)
    }

    /// Folds the current state into a snapshot file and compacts: the
    /// snapshot is written atomically, then every segment it covers and
    /// every older snapshot are deleted, and appends continue on a fresh
    /// segment. Returns the new snapshot's sequence number. Writers are
    /// blocked for the duration (the WAL mutex is held); readers only
    /// briefly while the shards are folded.
    pub fn snapshot(&self) -> Result<u64, KbError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.sync()?;
        let covered = wal.seq();
        let kb = self.to_monolithic();
        // Atomic write via the single-file KB path (tmp + fsync + rename).
        kb.save(&self.dir.join(snapshot_name(covered)))?;
        write_snapshot_meta(&self.dir, covered, self.applied_seq())?;
        // The snapshot now owns everything up to `covered`: drop the
        // segments it folded and the snapshots (with sidecars) it
        // supersedes.
        remove_unkept(&self.dir, |is_segment, seq| {
            if is_segment { seq > covered } else { seq >= covered }
        })?;
        *wal = WalWriter::open(
            &self.dir,
            covered + 1,
            self.options.segment_bytes,
            self.options.fsync_writes,
        )?;
        Ok(covered)
    }

    /// Applies one already-logged, already-checked WAL record to the
    /// registry and shards. Shared by the local write path and the
    /// replication apply path so both produce identical state.
    fn apply_record(&self, record: &WalRecord) {
        // Lock order: registry before shard (readers use the same order),
        // so a reader holding a registry read guard never sees a
        // half-applied record.
        let mut guard = self.registry.write().expect("registry poisoned");
        let reg = &mut *guard;
        match record {
            WalRecord::Run { dataset_id, meta_features, run } => {
                let values = &meta_features.values;
                let known = reg.assign.get(dataset_id).copied();
                // A known dataset's shard is sticky; its meta-features are
                // overwritten in place, exactly like the monolithic KB.
                let shard = match known {
                    Some(seq) => reg.locs[seq].shard,
                    None => shard_of(values, self.shards.len()),
                };
                let mut kb = self.shards[shard].write().expect("shard poisoned");
                match known {
                    Some(seq) => reg.features.set(seq, values),
                    None => {
                        reg.assign.insert(dataset_id.to_string(), reg.locs.len());
                        reg.features.push(values);
                        reg.locs.push(Loc { shard, index: kb.len() });
                    }
                }
                kb.record_run(dataset_id, meta_features, run.clone());
            }
            WalRecord::Landmarkers { dataset_id, landmarkers } => {
                if let Some(&seq) = reg.assign.get(dataset_id) {
                    let mut kb = self.shards[reg.locs[seq].shard].write().expect("shard poisoned");
                    kb.set_landmarkers(dataset_id, *landmarkers);
                }
            }
        }
    }

    /// Replication apply: mirrors `data` (whole WAL frames shipped by the
    /// primary) onto the local active segment byte-for-byte, then applies
    /// each record through the same path local writes use. The chunk must
    /// start exactly at the local WAL frontier — anything else means this
    /// replica diverged and must resync from a snapshot. Returns the new
    /// local applied sequence.
    pub fn apply_sync_chunk(
        &self,
        segment: u64,
        offset: u64,
        data: &str,
    ) -> Result<u64, KbError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        if wal.seq() != segment || wal.len() != offset {
            return Err(KbError::Backend(format!(
                "sync position mismatch: chunk is for segment {segment} offset {offset}, \
                 local WAL is at segment {} offset {} — resync required",
                wal.seq(),
                wal.len()
            )));
        }
        let bytes = data.as_bytes();
        let scan = scan_frames(bytes, &self.dir.join(segment_name(segment)))?;
        if scan.torn_at.is_some() {
            return Err(KbError::Backend(
                "sync chunk is not a whole number of frames — refusing a torn prefix".into(),
            ));
        }
        check_records(None, &scan.records)?;
        // Disk before memory, exactly like a local write: after a crash
        // here, recovery replays the mirrored frames.
        wal.append_raw(bytes)?;
        for record in &scan.records {
            self.apply_record(record);
        }
        let n = scan.records.len() as u64;
        Ok(self.applied_seq.fetch_add(n, Ordering::AcqRel) + n)
    }

    /// Replication segment advance: the primary sealed `current` and
    /// moved on; mirror its rotation by opening segment `next` locally.
    pub fn advance_segment(&self, next: u64) -> Result<(), KbError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        if next <= wal.seq() {
            return Err(KbError::Backend(format!(
                "sync segment advance must move forward: at {}, asked for {next}",
                wal.seq()
            )));
        }
        *wal = WalWriter::open(
            &self.dir,
            next,
            self.options.segment_bytes,
            self.options.fsync_writes,
        )?;
        Ok(())
    }

    /// Replication reset: installs a full snapshot shipped by the
    /// primary, replacing every local segment and snapshot. The replica's
    /// directory afterwards is exactly what a primary compacted at
    /// `snapshot_seq` would hold, so a restart recovers from it normally.
    pub fn install_snapshot(
        &self,
        snapshot_seq: u64,
        kb_json: &str,
        applied_seq: u64,
    ) -> Result<(), KbError> {
        let kb: KnowledgeBase = serde_json::from_str(kb_json).map_err(|e| KbError::Corrupt {
            path: None,
            detail: format!("sync snapshot failed to parse: {e}"),
        })?;
        check_entries(None, &kb)?;
        let mut wal = self.wal.lock().expect("wal poisoned");
        let mut reg = self.registry.write().expect("registry poisoned");
        let mut guards: Vec<_> =
            self.shards.iter().map(|s| s.write().expect("shard poisoned")).collect();
        // Persist first (disk before memory): snapshot + sidecar, then
        // drop every local segment (diverged or superseded history) and
        // every other snapshot.
        kb.save(&self.dir.join(snapshot_name(snapshot_seq)))?;
        write_snapshot_meta(&self.dir, snapshot_seq, applied_seq)?;
        remove_unkept(&self.dir, |is_segment, seq| !is_segment && seq == snapshot_seq)?;
        // Rebuild the in-memory index from the snapshot, preserving the
        // snapshot's entry order as the global insertion order — the same
        // partitioning open_with performs.
        let shards = reg.reindex(kb.into_entries(), self.shards.len());
        for (guard, kb) in guards.iter_mut().zip(shards) {
            **guard = kb;
        }
        self.applied_seq.store(applied_seq, Ordering::Release);
        *wal = WalWriter::open(
            &self.dir,
            snapshot_seq + 1,
            self.options.segment_bytes,
            self.options.fsync_writes,
        )?;
        Ok(())
    }

    /// Replication reset without a snapshot: drops every local segment,
    /// snapshot, and in-memory entry and reopens the WAL at segment 1.
    /// A replica whose history diverged from a primary that never
    /// compacted (so there is no snapshot to ship) falls back to this
    /// before re-tailing the primary's retained segments from zero.
    pub fn reset_for_resync(&self) -> Result<(), KbError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        let mut reg = self.registry.write().expect("registry poisoned");
        let mut guards: Vec<_> =
            self.shards.iter().map(|s| s.write().expect("shard poisoned")).collect();
        remove_unkept(&self.dir, |_, _| false)?;
        for (guard, kb) in guards.iter_mut().zip(reg.reindex(Vec::new(), self.shards.len())) {
            **guard = kb;
        }
        self.applied_seq.store(0, Ordering::Release);
        *wal = WalWriter::open(&self.dir, 1, self.options.segment_bytes, self.options.fsync_writes)?;
        Ok(())
    }
}

/// Deletes every WAL segment, snapshot and snapshot sidecar in `dir`
/// that `keep(is_segment, seq)` refuses — the one sweep behind
/// compaction and both replication resets.
fn remove_unkept(dir: &Path, keep: impl Fn(bool, u64) -> bool) -> Result<(), KbError> {
    let sweep = |parse: fn(&str) -> Option<u64>, name: fn(u64) -> String, is_segment: bool| {
        for seq in list_seqs(dir, parse)? {
            if !keep(is_segment, seq) {
                std::fs::remove_file(dir.join(name(seq)))?;
            }
        }
        Ok::<(), KbError>(())
    };
    sweep(parse_segment_name, segment_name, true)?;
    sweep(parse_snapshot_name, snapshot_name, false)?;
    sweep(parse_meta_name, meta_name, false)
}

/// The in-process `wal:DIR` knowledge-base backend. Answers are the
/// in-memory [`KnowledgeBase`]'s, bit for bit (see the module docs).
impl KbBackend for ShardedKb {
    fn kb_recommend(
        &self,
        meta_features: &MetaFeatures,
        query_landmarkers: Option<Landmarkers>,
        options: &QueryOptions,
    ) -> Result<Recommendation, KbError> {
        self.try_recommend(meta_features, query_landmarkers, options)
    }

    fn kb_record_run(
        &mut self,
        dataset_id: &str,
        meta_features: &MetaFeatures,
        run: AlgorithmRun,
    ) -> Result<(), KbError> {
        self.record_run(dataset_id, meta_features, run)
    }

    fn kb_set_landmarkers(
        &mut self,
        dataset_id: &str,
        landmarkers: Landmarkers,
    ) -> Result<(), KbError> {
        self.set_landmarkers(dataset_id, landmarkers)
    }

    fn kb_len(&self) -> usize {
        self.len()
    }

    fn kb_n_runs(&self) -> usize {
        self.n_runs()
    }

    fn kb_describe(&self) -> String {
        format!("wal:{}", self.dir.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_classifiers::{Algorithm, ParamConfig};
    use smartml_data::synth::gaussian_blobs;
    use smartml_metafeatures::extract;

    fn mf(seed: u64) -> MetaFeatures {
        let d = gaussian_blobs("m", 40 + seed as usize, 3, 2, 1.0, seed);
        extract(&d, &d.all_rows())
    }

    fn run(alg: Algorithm, acc: f64) -> AlgorithmRun {
        AlgorithmRun { algorithm: alg, config: ParamConfig::default(), accuracy: acc }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Applies the same history to a monolithic KB and a sharded one.
    fn twin_histories(dir: &Path, n_shards: usize) -> (KnowledgeBase, ShardedKb) {
        let sharded = ShardedKb::open_with(
            dir,
            DurableOptions { fsync_writes: false, ..Default::default() },
            n_shards,
        )
        .unwrap();
        let mut mono = KnowledgeBase::new();
        let algs = [Algorithm::Knn, Algorithm::Lda, Algorithm::RandomForest, Algorithm::Svm];
        for i in 0..20u64 {
            let id = format!("d{}", i % 12); // revisits overwrite meta-features
            let m = mf(i);
            let r = run(algs[(i % 4) as usize], 0.5 + (i as f64) / 50.0);
            mono.record_run(&id, &m, r.clone());
            sharded.record_run(&id, &m, r).unwrap();
        }
        mono.set_landmarkers("d3", Landmarkers { decision_stump: 0.7, nearest_centroid: 0.6 });
        sharded
            .set_landmarkers("d3", Landmarkers { decision_stump: 0.7, nearest_centroid: 0.6 })
            .unwrap();
        (mono, sharded)
    }

    /// `(feature table version, cached z-scores version)`: a rebuild
    /// happens exactly when a read finds these two apart.
    fn versions(sharded: &ShardedKb) -> (u64, u64) {
        let table = sharded.registry.read().unwrap().features.version();
        (table, sharded.zcache.lock().unwrap().version())
    }

    #[test]
    fn zcache_survives_reads_and_invalidates_on_write() {
        let dir = tmp("smartml-sharded-zcache");
        let (_mono, sharded) = twin_histories(&dir, 4);
        let q = mf(200);
        let opts = QueryOptions::default();
        let first = sharded.recommend(&q, None, &opts);
        let warm = versions(&sharded);
        let second = sharded.recommend(&q, None, &opts);
        assert_eq!(first, second);
        assert_eq!(versions(&sharded), warm, "reads neither move the table nor rebuild");
        assert_eq!(warm.0, warm.1);
        sharded.record_run("fresh", &mf(300), run(Algorithm::Knn, 0.9)).unwrap();
        assert_eq!(versions(&sharded), (warm.0 + 1, warm.1), "a write only moves the table");
        let third = sharded.recommend(&q, None, &opts);
        assert_eq!(versions(&sharded), (warm.0 + 1, warm.0 + 1));
        // The new entry participates (stats shifted or neighbour set grew).
        assert_ne!(serde_json::to_string(&third).unwrap(), serde_json::to_string(&first).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zcache_rebuilds_on_feature_change_not_on_every_write() {
        let dir = tmp("smartml-sharded-zcache-version");
        let (_mono, sharded) = twin_histories(&dir, 3);
        let (q, opts) = (mf(200), QueryOptions::default());
        sharded.recommend(&q, None, &opts);
        let (warm, cached) = versions(&sharded);
        assert_eq!(warm, cached);
        // The pipeline's phase 5 for one new dataset: a RECORD per tuned
        // algorithm with the same meta-features, then SET_LANDMARKERS.
        let (m, applied) = (mf(300), sharded.applied_seq());
        for alg in [Algorithm::Knn, Algorithm::Lda, Algorithm::Svm] {
            sharded.record_run("fresh", &m, run(alg, 0.8)).unwrap();
            sharded.recommend(&q, None, &opts);
            assert_eq!(versions(&sharded), (warm + 1, warm + 1), "one rebuild, on the first RECORD");
        }
        sharded
            .set_landmarkers("fresh", Landmarkers { decision_stump: 0.5, nearest_centroid: 0.5 })
            .unwrap();
        sharded.recommend(&q, None, &opts);
        assert_eq!(versions(&sharded), (warm + 1, warm + 1));
        assert_eq!(sharded.applied_seq(), applied + 4, "every write is still logged and applied");
        // Changed bits for a known dataset do invalidate.
        sharded.record_run("fresh", &mf(301), run(Algorithm::Knn, 0.8)).unwrap();
        assert_eq!(versions(&sharded), (warm + 2, warm + 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_meta_features_are_refused_wherever_they_enter() {
        let dir = tmp("smartml-sharded-invalid");
        let (mono, sharded) = twin_histories(&dir, 3);
        let short = MetaFeatures { values: vec![0.5, 1.5, 2.5] };
        let mut infinite = mf(1);
        infinite.values[3] = f64::INFINITY;
        let applied = sharded.applied_seq();
        for bad in [&short, &infinite] {
            // In process: typed, and nothing logged or applied.
            assert!(matches!(
                sharded.record_run("bad", bad, run(Algorithm::Knn, 0.9)),
                Err(KbError::Invalid(_))
            ));
            assert!(matches!(
                sharded.try_recommend(bad, None, &QueryOptions::default()),
                Err(KbError::Invalid(_))
            ));
        }
        let overflowed = Landmarkers { decision_stump: f64::INFINITY, nearest_centroid: 0.5 };
        assert!(matches!(sharded.set_landmarkers("d3", overflowed), Err(KbError::Invalid(_))));
        assert!(matches!(
            sharded.try_recommend(&mf(1), Some(overflowed), &QueryOptions::default()),
            Err(KbError::Invalid(_))
        ));
        assert_eq!((sharded.applied_seq(), sharded.len()), (applied, mono.len()));

        // Shipped by a primary: a chunk and a snapshot carrying one are
        // refused whole, before anything reaches the disk.
        let frame = crate::wal::encode_frame(&WalRecord::Run {
            dataset_id: "bad".into(),
            meta_features: short.clone(),
            run: run(Algorithm::Knn, 0.9),
        });
        let (segment, offset) = sharded.with_wal_position(|p| p);
        match sharded.apply_sync_chunk(segment, offset, std::str::from_utf8(&frame).unwrap()) {
            Err(KbError::Corrupt { detail, .. }) => assert!(detail.contains("`bad`"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(sharded.with_wal_position(|p| p), (segment, offset));
        let mut poisoned = mono.clone();
        poisoned.record_run("bad", &short, run(Algorithm::Knn, 0.9));
        let shipped = serde_json::to_string(&poisoned).unwrap();
        assert!(matches!(
            sharded.install_snapshot(segment + 1, &shipped, 99),
            Err(KbError::Corrupt { .. })
        ));
        assert_eq!(
            serde_json::to_string(&sharded.to_monolithic()).unwrap(),
            serde_json::to_string(&mono).unwrap()
        );
        drop(sharded);

        // Already on disk (written before the check existed): the
        // directory opens at no shard count, and the error names the
        // dataset.
        {
            use std::io::Write;
            let active = dir.join(segment_name(segment));
            let mut f = std::fs::OpenOptions::new().append(true).open(&active).unwrap();
            f.write_all(&frame).unwrap();
        }
        for n_shards in [3, 1] {
            match ShardedKb::open_with(&dir, DurableOptions::default(), n_shards).err() {
                Some(KbError::Corrupt { path: Some(p), detail }) => {
                    assert!(p.ends_with(segment_name(segment)), "{p:?}");
                    assert!(detail.contains("`bad`") && detail.contains("got 3"), "{detail}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_recovery_reopens_identically_at_any_shard_count() {
        let dir = tmp("smartml-sharded-recovery");
        let (mono, sharded) = twin_histories(&dir, 4);
        drop(sharded); // no snapshot: WAL is the only persistence
        // The server's shard count and the in-process backend's single
        // shard recover the same entries in the same order.
        let json = |kb: &KnowledgeBase| serde_json::to_string(kb).unwrap();
        for n_shards in [4, 1] {
            let reopened = ShardedKb::open_with(&dir, DurableOptions::default(), n_shards).unwrap();
            assert_eq!(reopened.len(), 12);
            assert_eq!(reopened.recovery().records_replayed, 21);
            assert_eq!(json(&reopened.to_monolithic()), json(&mono), "{n_shards} shard(s)");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_preserves_state() {
        let dir = tmp("smartml-sharded-snapshot");
        let small = DurableOptions { segment_bytes: 512, fsync_writes: false };
        let sharded = ShardedKb::open_with(&dir, small.clone(), 3).unwrap();
        let mut mono = KnowledgeBase::new();
        let mut record = |kb: &ShardedKb, id: &str, m: MetaFeatures| {
            mono.record_run(id, &m, run(Algorithm::Svm, 0.8));
            kb.record_run(id, &m, run(Algorithm::Svm, 0.8)).unwrap();
        };
        for i in 0..8u64 {
            record(&sharded, &format!("d{i}"), mf(i));
        }
        assert!(sharded.n_segments().unwrap() > 1, "tiny threshold must rotate");
        let covered = sharded.snapshot().unwrap();
        // All covered segments are gone; one fresh segment remains.
        assert_eq!(list_seqs(&dir, parse_snapshot_name).unwrap(), vec![covered]);
        assert_eq!(list_seqs(&dir, parse_segment_name).unwrap(), vec![covered + 1]);
        // Post-snapshot writes land on the fresh segment; reopen sees
        // everything.
        record(&sharded, "after", mf(20));
        drop(sharded);
        let reopened = ShardedKb::open_with(&dir, small, 3).unwrap();
        assert_eq!(reopened.len(), 9);
        assert_eq!(reopened.recovery().snapshot_seq, Some(covered));
        assert_eq!(reopened.recovery().records_replayed, 1);
        assert_eq!(
            serde_json::to_string(&reopened.to_monolithic()).unwrap(),
            serde_json::to_string(&mono).unwrap()
        );
        // A second snapshot supersedes the first, sidecar included.
        let covered2 = reopened.snapshot().unwrap();
        assert!(covered2 > covered);
        assert_eq!(list_seqs(&dir, parse_snapshot_name).unwrap(), vec![covered2]);
        assert_eq!(list_seqs(&dir, parse_meta_name).unwrap(), vec![covered2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_index_recommends_nothing() {
        let dir = tmp("smartml-sharded-empty");
        let sharded = ShardedKb::open_with(&dir, DurableOptions::default(), 2).unwrap();
        let rec = sharded.recommend(&mf(1), None, &QueryOptions::default());
        assert!(rec.algorithms.is_empty() && rec.neighbors.is_empty());
        assert!(sharded.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
