//! Request dispatch: one code path per verb, from a request line to
//! the [`Response`] the [`ShardedKb`] determines. The `backend_equiv`
//! integration test checks those responses byte for byte against ones
//! built from an in-memory `KnowledgeBase` fed the same writes.

use crate::durable::{read_snapshot_meta, RecoveryReport};
use crate::protocol::{KbStats, Request, Response, ServerMetrics, SYNC_CHUNK_BYTES};
use crate::sharded::ShardedKb;
use crate::wal::{
    frames_prefix, list_seqs, parse_segment_name, parse_snapshot_name, segment_name,
    snapshot_name, WAL_FSYNCS, WAL_ROTATIONS,
};
use smartml_kb::{check_carried, check_landmarkers, check_meta_features, KbError};
use smartml_obs::{Counter, Gauge, Histogram};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

// Per-request service metrics (`crate.component.name` convention). One
// process-wide set, reported verbatim by the METRICS verb.
pub(crate) static REQ_TOTAL: Counter = Counter::new("kbd.req.total");
pub(crate) static REQ_ERRORS: Counter = Counter::new("kbd.req.errors");
pub(crate) static BYTES_IN: Counter = Counter::new("kbd.bytes_in");
pub(crate) static BYTES_OUT: Counter = Counter::new("kbd.bytes_out");
pub(crate) static REQUEST_US: Histogram = Histogram::new("kbd.request_us");
static REQ_RECOMMEND: Counter = Counter::new("kbd.req.recommend");
static REQ_RECOMMEND_BATCH: Counter = Counter::new("kbd.req.recommend_batch");
static REQ_RECORD_RUN: Counter = Counter::new("kbd.req.record_run");
static REQ_SET_LANDMARKERS: Counter = Counter::new("kbd.req.set_landmarkers");
static REQ_STATS: Counter = Counter::new("kbd.req.stats");
static REQ_SNAPSHOT: Counter = Counter::new("kbd.req.snapshot");
static REQ_METRICS: Counter = Counter::new("kbd.req.metrics");
static REQ_PING: Counter = Counter::new("kbd.req.ping");
static REQ_SHUTDOWN: Counter = Counter::new("kbd.req.shutdown");
static REQ_SYNC: Counter = Counter::new("kbd.req.sync");
static REQ_PROMOTE: Counter = Counter::new("kbd.req.promote");
static REQ_NOT_PRIMARY: Counter = Counter::new("kbd.req.not_primary");

/// Replication lag in records (primary applied sequence minus local
/// applied sequence), updated by the replica tailer after every sync
/// round. Reported through the METRICS verb on replicas.
pub(crate) static REPLICA_LAG: Gauge = Gauge::new("kbd.replica.lag_records");

/// Which side of replication this server is on. Threaded into
/// [`dispatch`] so replicas can reject writes with a typed redirect.
#[derive(Debug, Clone, Default)]
pub enum ServeRole {
    /// Accepts the full verb set, including `SYNC` pulls from replicas.
    #[default]
    Primary,
    /// Read-only: serves `RECOMMEND`/`RECOMMEND_BATCH`/`STATS`/`METRICS`
    /// (and `PING`/`SHUTDOWN`); every write answers
    /// [`Response::NotPrimary`] naming the primary to retry against.
    Replica {
        /// Address of the primary this replica tails.
        primary: String,
    },
}

/// The server's *live* role: shared by every serving thread and
/// swappable at runtime by the `PROMOTE` verb.
///
/// [`ServeRole`] in the options describes how the process *starts*;
/// this cell is what dispatch consults per request, so a promotion —
/// flipping a replica to primary — takes effect on the very next
/// request without restarting or re-registering any connection. The
/// flip is one-way (primary never demotes back) and idempotent.
pub struct RoleCell {
    /// True while the server is a read-only replica.
    is_replica: std::sync::atomic::AtomicBool,
    /// The primary this replica redirects writes to (unused once
    /// promoted; kept for the redirect message only).
    primary: std::sync::Mutex<String>,
    /// Runs exactly once, on the promoting request's thread: the
    /// process hooks its replica machinery teardown here (stopping the
    /// WAL tailer so promotion also ends the pull loop).
    on_promote: std::sync::Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl RoleCell {
    /// A cell starting in `role`.
    pub fn new(role: ServeRole) -> RoleCell {
        let (is_replica, primary) = match role {
            ServeRole::Primary => (false, String::new()),
            ServeRole::Replica { primary } => (true, primary),
        };
        RoleCell {
            is_replica: std::sync::atomic::AtomicBool::new(is_replica),
            primary: std::sync::Mutex::new(primary),
            on_promote: std::sync::Mutex::new(None),
        }
    }

    /// Is the server currently a read-only replica?
    pub fn is_replica(&self) -> bool {
        self.is_replica.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The primary to redirect writes to — `Some` only while a replica.
    pub fn replica_primary(&self) -> Option<String> {
        self.is_replica()
            .then(|| self.primary.lock().expect("role primary poisoned").clone())
    }

    /// Registers the teardown to run when (if) this server is promoted.
    pub fn set_promote_hook(&self, hook: impl FnOnce() + Send + 'static) {
        *self.on_promote.lock().expect("promote hook poisoned") = Some(Box::new(hook));
    }

    /// Promotes a replica to primary; returns whether the server *was*
    /// a replica (false = it already accepted writes, nothing changed).
    /// The registered hook runs on the winning caller's thread, once.
    pub fn promote(&self) -> bool {
        let was_replica = self
            .is_replica
            .swap(false, std::sync::atomic::Ordering::AcqRel);
        if was_replica {
            if let Some(hook) = self.on_promote.lock().expect("promote hook poisoned").take() {
                hook();
            }
        }
        was_replica
    }
}

/// Builds the [`ServerMetrics`] wire struct from the live registry plus
/// the store's replication position. `replication_lag` is `Some` only on
/// replicas (the tailer keeps [`REPLICA_LAG`] current).
pub(crate) fn collect_metrics(applied_seq: u64, replication_lag: Option<u64>) -> ServerMetrics {
    let lat = REQUEST_US.summary();
    let mut ops: Vec<(String, u64)> = [
        ("metrics", &REQ_METRICS),
        ("not_primary", &REQ_NOT_PRIMARY),
        ("ping", &REQ_PING),
        ("promote", &REQ_PROMOTE),
        ("recommend", &REQ_RECOMMEND),
        ("recommend_batch", &REQ_RECOMMEND_BATCH),
        ("record_run", &REQ_RECORD_RUN),
        ("set_landmarkers", &REQ_SET_LANDMARKERS),
        ("shutdown", &REQ_SHUTDOWN),
        ("snapshot", &REQ_SNAPSHOT),
        ("stats", &REQ_STATS),
        ("sync", &REQ_SYNC),
    ]
    .iter()
    .map(|(name, c)| (name.to_string(), c.value()))
    .collect();
    ops.sort();
    ServerMetrics {
        requests: REQ_TOTAL.value(),
        errors: REQ_ERRORS.value(),
        bytes_in: BYTES_IN.value(),
        bytes_out: BYTES_OUT.value(),
        request_us_p50: lat.p50,
        request_us_p99: lat.p99,
        request_us_max: lat.max,
        request_us_mean: lat.mean,
        wal_fsyncs: WAL_FSYNCS.value(),
        wal_rotations: WAL_ROTATIONS.value(),
        applied_seq,
        replication_lag,
        ops,
    }
}

/// Serves one `SYNC` request from a KB directory. `active` is the
/// `(segment, length)` frontier read under the store's WAL lock — the
/// authoritative frame boundary for the active segment (sealed segments
/// are immutable). The caller holds that lock across this call so
/// compaction cannot delete segments mid-read.
pub(crate) fn sync_from_dir(
    dir: &Path,
    active: (u64, u64),
    applied_seq: u64,
    segment: u64,
    offset: u64,
) -> Result<Response, KbError> {
    let (active_seq, active_len) = active;
    let floor = list_seqs(dir, parse_snapshot_name)?.last().copied();
    let ship_snapshot = |seq: u64| -> Result<Response, KbError> {
        let kb_json = std::fs::read_to_string(dir.join(snapshot_name(seq)))?;
        Ok(Response::SyncSnapshot {
            snapshot_seq: seq,
            applied_seq: read_snapshot_meta(dir, seq),
            next_segment: seq + 1,
            kb_json,
        })
    };
    let (mut seg, mut off) = if segment == 0 {
        // Bootstrap: ship the snapshot when one exists, else replay from
        // the oldest segment on disk.
        if let Some(floor) = floor {
            return ship_snapshot(floor);
        }
        let first =
            list_seqs(dir, parse_segment_name)?.first().copied().unwrap_or(active_seq);
        (first, 0)
    } else if floor.is_some_and(|f| segment <= f) {
        // Behind the compaction floor: those segments are gone; reset
        // the replica from the snapshot that folded them.
        return ship_snapshot(floor.unwrap());
    } else {
        (segment, offset)
    };
    loop {
        if seg > active_seq {
            // Ahead of the primary: diverged history. A snapshot resets
            // the replica wholesale; without one there is nothing safe
            // to ship.
            return match floor {
                Some(f) => ship_snapshot(f),
                None => Err(KbError::Backend(format!(
                    "sync position (segment {seg}) is ahead of the primary's active \
                     segment {active_seq} and no snapshot exists to reset from"
                ))),
            };
        }
        let seg_len = if seg == active_seq {
            active_len
        } else {
            std::fs::metadata(dir.join(segment_name(seg)))?.len()
        };
        if off > seg_len {
            return match floor {
                Some(f) => ship_snapshot(f),
                None => Err(KbError::Backend(format!(
                    "sync offset {off} is past segment {seg}'s {seg_len} bytes and no \
                     snapshot exists to reset from"
                ))),
            };
        }
        if off == seg_len {
            if seg < active_seq {
                if (seg, off) == (segment, offset) {
                    // The caller sits exactly at a sealed segment's end:
                    // an empty chunk whose `next_segment` moves past it
                    // tells the replica to rotate its own WAL before the
                    // next pull. Shipping segment `seg + 1` bytes right
                    // away would name a position the replica hasn't
                    // reached yet and be refused as a mismatch.
                    return Ok(Response::SyncChunk {
                        segment: seg,
                        offset: off,
                        data: String::new(),
                        next_segment: seg + 1,
                        next_offset: 0,
                        caught_up: false,
                        applied_seq,
                    });
                }
                seg += 1;
                off = 0;
                continue;
            }
            // At the frontier: an empty chunk that says "caught up".
            return Ok(Response::SyncChunk {
                segment: seg,
                offset: off,
                data: String::new(),
                next_segment: seg,
                next_offset: off,
                caught_up: true,
                applied_seq,
            });
        }
        let path = dir.join(segment_name(seg));
        let mut file = File::open(&path)?;
        file.seek(SeekFrom::Start(off))?;
        let mut bytes = vec![0u8; (seg_len - off) as usize];
        file.read_exact(&mut bytes)?;
        let take = frames_prefix(&bytes, SYNC_CHUNK_BYTES);
        if take == 0 {
            return Err(KbError::Backend(format!(
                "segment {seg} holds no complete frame at offset {off}"
            )));
        }
        bytes.truncate(take);
        // Frames are a hex header plus JSON plus newline — always UTF-8.
        let data = String::from_utf8(bytes).map_err(|e| KbError::Corrupt {
            path: Some(path),
            detail: format!("segment bytes are not UTF-8: {e}"),
        })?;
        let end = off + take as u64;
        let (next_segment, next_offset) =
            if end == seg_len && seg < active_seq { (seg + 1, 0) } else { (seg, end) };
        let caught_up = seg == active_seq && end == active_len;
        return Ok(Response::SyncChunk {
            segment: seg,
            offset: off,
            data,
            next_segment,
            next_offset,
            caught_up,
            applied_seq,
        });
    }
}

/// Serialises a response line (without the trailing newline).
pub(crate) fn encode(response: &Response) -> String {
    serde_json::to_string(response).expect("response serialisation cannot fail")
}

/// Streams a response line straight into `out` (no trailing newline,
/// no intermediate String). Byte-identical to [`encode`].
pub(crate) fn encode_into(response: &Response, out: &mut String) {
    serde::Serialize::serialize_into(response, out);
}

/// Executes one request line against a store. Returns the response and
/// whether the server should stop.
///
/// A replica serves reads only: every mutating verb (and `SYNC`, which
/// only a primary can answer authoritatively) is rejected with a typed
/// [`Response::NotPrimary`] redirect naming the primary's address.
pub(crate) fn dispatch(
    line: &str,
    store: &ShardedKb,
    recovery: &RecoveryReport,
    role: &RoleCell,
) -> (Response, bool) {
    let request: Request = match serde_json::from_str(line.trim()) {
        Ok(r) => r,
        Err(e) => {
            return (Response::Error { message: format!("bad request: {e}") }, false);
        }
    };
    // `PROMOTE` is deliberately absent from the replica reject list: it
    // is *the* verb a replica must accept while read-only.
    if let Some(primary) = role.replica_primary() {
        let rejected = matches!(
            request,
            Request::RecordRun { .. }
                | Request::SetLandmarkers { .. }
                | Request::Snapshot
                | Request::Sync { .. }
        );
        if rejected {
            REQ_NOT_PRIMARY.inc();
            return (Response::NotPrimary { primary }, false);
        }
    }
    // Meta-features and landmarkers are checked here, where they enter:
    // values no store can index are refused before they reach a WAL or
    // a scan.
    let carried = match &request {
        Request::Recommend { meta_features, landmarkers, .. } => {
            check_carried(&meta_features.values, *landmarkers)
        }
        Request::RecommendBatch { queries } => {
            queries.iter().try_for_each(|q| check_carried(&q.meta_features.values, q.landmarkers))
        }
        Request::RecordRun { meta_features, .. } => check_meta_features(&meta_features.values),
        Request::SetLandmarkers { landmarkers, .. } => check_landmarkers(*landmarkers),
        _ => Ok(()),
    };
    if let Err(why) = carried {
        return (Response::Error { message: format!("bad request: {why}") }, false);
    }
    let response = match request {
        Request::Recommend { meta_features, landmarkers, options } => {
            REQ_RECOMMEND.inc();
            let opts = options.unwrap_or_default();
            let recommendation = store.recommend(&meta_features, landmarkers, &opts);
            Response::Recommendation { recommendation }
        }
        Request::RecommendBatch { queries } => {
            REQ_RECOMMEND_BATCH.inc();
            // Answered exactly like the equivalent RECOMMEND sequence:
            // same per-query path, in order.
            let recommendations = queries
                .into_iter()
                .map(|q| {
                    let opts = q.options.unwrap_or_default();
                    store.recommend(&q.meta_features, q.landmarkers, &opts)
                })
                .collect();
            Response::Recommendations { recommendations }
        }
        Request::RecordRun { dataset_id, meta_features, run } => {
            REQ_RECORD_RUN.inc();
            match store.record_run(&dataset_id, &meta_features, run) {
                Ok(()) => Response::Recorded { datasets: store.len(), runs: store.n_runs() },
                Err(e) => Response::Error { message: e.to_string() },
            }
        }
        Request::SetLandmarkers { dataset_id, landmarkers } => {
            REQ_SET_LANDMARKERS.inc();
            match store.set_landmarkers(&dataset_id, landmarkers) {
                Ok(()) => Response::Recorded { datasets: store.len(), runs: store.n_runs() },
                Err(e) => Response::Error { message: e.to_string() },
            }
        }
        Request::Stats => {
            REQ_STATS.inc();
            Response::Stats {
                stats: KbStats {
                    datasets: store.len(),
                    runs: store.n_runs(),
                    wal_segments: store.n_segments().unwrap_or(0),
                    active_segment: store.active_segment(),
                    snapshot_seq: recovery.snapshot_seq,
                    recovered_records: recovery.records_replayed,
                    recovered_torn_tail: recovery.truncated_tail,
                    applied_seq: store.applied_seq(),
                },
            }
        }
        Request::Snapshot => {
            REQ_SNAPSHOT.inc();
            match store.snapshot() {
                Ok(seq) => Response::Snapshotted { snapshot_seq: seq },
                Err(e) => Response::Error { message: e.to_string() },
            }
        }
        Request::Sync { segment, offset } => {
            REQ_SYNC.inc();
            // Holding the WAL mutex excludes both appends and snapshot
            // compaction, which take it before touching segment files.
            let synced = store.with_wal_position(|position| {
                sync_from_dir(store.dir(), position, store.applied_seq(), segment, offset)
            });
            match synced {
                Ok(response) => response,
                Err(e) => Response::Error { message: e.to_string() },
            }
        }
        Request::Metrics => {
            REQ_METRICS.inc();
            let lag = role.is_replica().then(|| REPLICA_LAG.value().max(0) as u64);
            Response::Metrics { metrics: collect_metrics(store.applied_seq(), lag) }
        }
        Request::Promote => {
            REQ_PROMOTE.inc();
            Response::Promoted { was_replica: role.promote() }
        }
        Request::Ping => {
            REQ_PING.inc();
            Response::Pong
        }
        Request::Shutdown => {
            REQ_SHUTDOWN.inc();
            return (Response::ShuttingDown, true);
        }
    };
    (response, false)
}
