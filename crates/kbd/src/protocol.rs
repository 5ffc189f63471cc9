//! The `smartmld` wire protocol: JSON lines over TCP.
//!
//! One request per line, one response per line, in order. The framing is
//! trivial on purpose — any language with a JSON library and a socket
//! can speak it (`nc` included), mirroring the paper's "programming-
//! language agnostic" REST surface without pulling in an HTTP stack.
//!
//! ```text
//! → {"op":"record_run","dataset_id":"iris","meta_features":{...},"run":{...}}
//! ← {"status":"recorded","datasets":1,"runs":1}
//! → {"op":"recommend","meta_features":{...}}
//! ← {"status":"recommendation","recommendation":{...}}
//! ```

use serde::{Deserialize, Serialize};
use smartml_kb::{AlgorithmRun, QueryOptions, Recommendation};
use smartml_metafeatures::{Landmarkers, MetaFeatures};

/// Hard cap on one frame (request or response line), both directions.
/// A peer that streams more than this without a newline gets one
/// [`Response::Error`] and the connection is closed — the stream cannot
/// be resynchronised once a frame is abandoned mid-line.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// The error message sent before closing an over-limit connection.
/// One exact string, shared by both server backends, so the
/// byte-identity tests cover the failure path too.
pub fn oversized_frame_message() -> String {
    format!("frame exceeds {MAX_FRAME_BYTES} byte limit")
}

/// Cap on the raw WAL bytes carried by one [`Response::SyncChunk`].
/// Conservative against [`MAX_FRAME_BYTES`]: the chunk travels inside a
/// JSON string, and escaping can roughly double it in the worst case.
pub const SYNC_CHUNK_BYTES: usize = 1 << 20;

/// One query inside a [`Request::RecommendBatch`] — the same fields as
/// [`Request::Recommend`] minus the op tag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchQuery {
    /// The query dataset's meta-features.
    pub meta_features: MetaFeatures,
    /// Optional landmarker accuracies (extended-similarity mode).
    #[serde(default)]
    pub landmarkers: Option<Landmarkers>,
    /// Query knobs; omit for server defaults.
    #[serde(default)]
    pub options: Option<QueryOptions>,
}

/// A client → server message.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum Request {
    /// Nominate algorithms for a dataset's meta-features (Phase 3).
    Recommend {
        /// The query dataset's meta-features.
        meta_features: MetaFeatures,
        /// Optional landmarker accuracies (extended-similarity mode).
        #[serde(default)]
        landmarkers: Option<Landmarkers>,
        /// Query knobs; omit for server defaults.
        #[serde(default)]
        options: Option<QueryOptions>,
    },
    /// N recommendations in one round-trip. Each query is answered
    /// exactly as the equivalent sequence of [`Request::Recommend`]s
    /// would be, in order — one `recommendations` response carries all
    /// answers, amortising the framing and syscall cost.
    RecommendBatch {
        /// The queries, answered in order.
        queries: Vec<BatchQuery>,
    },
    /// Record one `(algorithm, config) → accuracy` observation (Phase 5).
    RecordRun {
        /// Dataset identifier.
        dataset_id: String,
        /// The dataset's meta-features.
        meta_features: MetaFeatures,
        /// The observation.
        run: AlgorithmRun,
    },
    /// Attach landmarker accuracies to a dataset's entry.
    SetLandmarkers {
        /// Dataset identifier.
        dataset_id: String,
        /// The landmarker accuracies.
        landmarkers: Landmarkers,
    },
    /// Knowledge-base and WAL statistics.
    Stats,
    /// Fold the WAL into a snapshot and compact.
    Snapshot,
    /// Per-process service metrics: request counts and latency
    /// percentiles, bytes on the wire, WAL fsync/rotation counters.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Replication pull: "I hold everything up to byte `offset` of
    /// segment `segment`; send me what comes next." `segment` 0 means
    /// the replica has nothing. The primary answers with a
    /// [`Response::SyncSnapshot`] (position is behind the compaction
    /// floor, or bootstrap with a snapshot on disk) or a
    /// [`Response::SyncChunk`] of raw WAL frames.
    Sync {
        /// Segment the replica is positioned in (0 = nothing yet).
        segment: u64,
        /// Bytes of that segment the replica already holds.
        offset: u64,
    },
    /// Operator verb: turn a `--replica-of` replica into a primary —
    /// the tailer stops and writes are accepted from the next request
    /// on. Idempotent; a server that is already a primary answers
    /// `promoted` with `was_replica: false`.
    Promote,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// Store/WAL statistics reported by [`Response::Stats`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KbStats {
    /// Datasets known.
    pub datasets: usize,
    /// Total recorded runs.
    pub runs: usize,
    /// WAL segment files on disk.
    pub wal_segments: usize,
    /// Sequence number of the active segment.
    pub active_segment: u64,
    /// Sequence of the snapshot recovery started from, if any.
    pub snapshot_seq: Option<u64>,
    /// Records replayed from the WAL when the server opened its store.
    pub recovered_records: usize,
    /// True when recovery truncated a torn tail record.
    pub recovered_torn_tail: bool,
    /// Total WAL records ever applied in this store's lineage — the
    /// replication position. Defaults for responses from servers that
    /// predate replication.
    #[serde(default)]
    pub applied_seq: u64,
}

/// Live service metrics reported by [`Response::Metrics`]. All values are
/// process-lifetime totals since the server started (the server enables
/// the metrics registry when it binds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// Requests dispatched (all verbs, including malformed lines).
    pub requests: u64,
    /// Requests answered with an `error` response (bad JSON included).
    pub errors: u64,
    /// Request bytes read off sockets.
    pub bytes_in: u64,
    /// Response bytes written to sockets.
    pub bytes_out: u64,
    /// Median request latency, microseconds (power-of-two bucket upper
    /// bound — coarse by design).
    pub request_us_p50: u64,
    /// 99th-percentile request latency, microseconds.
    pub request_us_p99: u64,
    /// Worst request latency, microseconds.
    pub request_us_max: u64,
    /// Mean request latency, microseconds.
    pub request_us_mean: f64,
    /// WAL `sync_data` calls (durability fsyncs).
    pub wal_fsyncs: u64,
    /// WAL segment rotations.
    pub wal_rotations: u64,
    /// Total WAL records applied by this store's lineage (the
    /// replication position; see [`KbStats::applied_seq`]).
    #[serde(default)]
    pub applied_seq: u64,
    /// On a replica: primary applied sequence minus local applied
    /// sequence as of the last sync round. `None` on a primary.
    #[serde(default)]
    pub replication_lag: Option<u64>,
    /// Per-verb request counts, `(verb, count)` sorted by verb name.
    pub ops: Vec<(String, u64)>,
}

/// A server → client message.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum Response {
    /// Answer to [`Request::Recommend`].
    Recommendation {
        /// Nominations, best first.
        recommendation: Recommendation,
    },
    /// Answer to [`Request::RecommendBatch`]: one entry per query, in
    /// query order.
    Recommendations {
        /// The per-query answers.
        recommendations: Vec<Recommendation>,
    },
    /// Answer to [`Request::RecordRun`] / [`Request::SetLandmarkers`]:
    /// the mutation is on the WAL and visible to readers.
    Recorded {
        /// Datasets known after the write.
        datasets: usize,
        /// Total runs after the write.
        runs: usize,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The statistics.
        stats: KbStats,
    },
    /// Answer to [`Request::Snapshot`].
    Snapshotted {
        /// Sequence number of the snapshot file that was written.
        snapshot_seq: u64,
    },
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// The live service metrics.
        metrics: ServerMetrics,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Sync`] when the requested position is behind
    /// the primary's compaction floor (or the replica is bootstrapping
    /// and a snapshot exists): the full KB state to install, replacing
    /// everything the replica holds.
    SyncSnapshot {
        /// Sequence of the snapshot (the replica's new compaction floor).
        snapshot_seq: u64,
        /// Applied-record count as of this snapshot.
        applied_seq: u64,
        /// Segment the replica should request next, from offset 0.
        next_segment: u64,
        /// The snapshot body: serialised `KnowledgeBase` JSON.
        kb_json: String,
    },
    /// Answer to [`Request::Sync`]: raw WAL frames from the requested
    /// position, always cut on a frame boundary.
    SyncChunk {
        /// Segment these bytes belong to.
        segment: u64,
        /// Byte offset within `segment` where `data` starts.
        offset: u64,
        /// Whole WAL frames, verbatim from the primary's segment file.
        data: String,
        /// Segment to request next (> `segment` when this chunk finishes
        /// a sealed segment).
        next_segment: u64,
        /// Offset to request next within `next_segment`.
        next_offset: u64,
        /// True when the replica holds everything the primary has after
        /// applying this chunk.
        caught_up: bool,
        /// The primary's applied-record count (for lag accounting).
        applied_seq: u64,
    },
    /// Typed write rejection from a read-only replica: retry against the
    /// primary it names.
    NotPrimary {
        /// Address of the primary this replica tails.
        primary: String,
    },
    /// Answer to [`Request::Promote`]: this server now accepts writes.
    Promoted {
        /// True when the request actually flipped a replica; false when
        /// the server was already a primary (the call was a no-op).
        was_replica: bool,
    },
    /// Answer to [`Request::Shutdown`]; the server exits after sending it.
    ShuttingDown,
    /// Any failure; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartml_metafeatures::N_META_FEATURES;

    #[test]
    fn request_roundtrip_and_optional_fields() {
        let mf = MetaFeatures { values: vec![0.5; N_META_FEATURES] };
        let req = Request::Recommend { meta_features: mf, landmarkers: None, options: None };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        match back {
            Request::Recommend { meta_features, landmarkers, options } => {
                assert_eq!(meta_features.values.len(), N_META_FEATURES);
                assert!(landmarkers.is_none());
                assert!(options.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        // A hand-written minimal request parses: optional fields default.
        let minimal = format!(
            "{{\"op\":\"recommend\",\"meta_features\":{{\"values\":{:?}}}}}",
            vec![0.0; N_META_FEATURES]
        );
        assert!(matches!(
            serde_json::from_str::<Request>(&minimal).unwrap(),
            Request::Recommend { .. }
        ));
        // Unit ops are bare tags.
        assert!(matches!(
            serde_json::from_str::<Request>("{\"op\":\"ping\"}").unwrap(),
            Request::Ping
        ));
    }

    #[test]
    fn metrics_roundtrip() {
        // The METRICS verb is a bare tag like ping.
        assert!(matches!(
            serde_json::from_str::<Request>("{\"op\":\"metrics\"}").unwrap(),
            Request::Metrics
        ));
        let resp = Response::Metrics {
            metrics: ServerMetrics {
                requests: 10,
                errors: 1,
                bytes_in: 2048,
                bytes_out: 4096,
                request_us_p50: 255,
                request_us_p99: 1023,
                request_us_max: 900,
                request_us_mean: 301.5,
                wal_fsyncs: 7,
                wal_rotations: 2,
                applied_seq: 6,
                replication_lag: Some(1),
                ops: vec![("ping".to_string(), 3), ("record_run".to_string(), 6)],
            },
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"status\":\"metrics\""));
        match serde_json::from_str::<Response>(&json).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.requests, 10);
                assert_eq!(metrics.wal_fsyncs, 7);
                assert_eq!(metrics.ops.len(), 2);
                assert_eq!(metrics.ops[0], ("ping".to_string(), 3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_roundtrip() {
        let mf = MetaFeatures { values: vec![0.25; N_META_FEATURES] };
        let req = Request::RecommendBatch {
            queries: vec![
                BatchQuery { meta_features: mf.clone(), landmarkers: None, options: None },
                BatchQuery {
                    meta_features: mf,
                    landmarkers: None,
                    options: Some(QueryOptions { top_n: 1, ..Default::default() }),
                },
            ],
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"recommend_batch\""));
        match serde_json::from_str::<Request>(&json).unwrap() {
            Request::RecommendBatch { queries } => {
                assert_eq!(queries.len(), 2);
                assert!(queries[0].options.is_none());
                assert_eq!(queries[1].options.as_ref().unwrap().top_n, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let resp = Response::Recommendations {
            recommendations: vec![Recommendation { algorithms: vec![], neighbors: vec![] }],
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"status\":\"recommendations\""));
        assert!(matches!(
            serde_json::from_str::<Response>(&json).unwrap(),
            Response::Recommendations { recommendations } if recommendations.len() == 1
        ));
    }

    #[test]
    fn sync_and_not_primary_roundtrip() {
        // The SYNC verb and its two answers are ordinary tagged frames.
        let req: Request =
            serde_json::from_str("{\"op\":\"sync\",\"segment\":3,\"offset\":128}").unwrap();
        assert!(matches!(req, Request::Sync { segment: 3, offset: 128 }));
        let chunk = Response::SyncChunk {
            segment: 3,
            offset: 128,
            data: "00000001 00000000 x\n".into(),
            next_segment: 4,
            next_offset: 0,
            caught_up: false,
            applied_seq: 17,
        };
        let json = serde_json::to_string(&chunk).unwrap();
        assert!(json.contains("\"status\":\"sync_chunk\""));
        match serde_json::from_str::<Response>(&json).unwrap() {
            Response::SyncChunk { next_segment, caught_up, applied_seq, .. } => {
                assert_eq!(next_segment, 4);
                assert!(!caught_up);
                assert_eq!(applied_seq, 17);
            }
            other => panic!("unexpected {other:?}"),
        }
        let snap = Response::SyncSnapshot {
            snapshot_seq: 7,
            applied_seq: 40,
            next_segment: 8,
            kb_json: "{\"entries\":[]}".into(),
        };
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"status\":\"sync_snapshot\""));
        let redirect = Response::NotPrimary { primary: "127.0.0.1:7001".into() };
        let json = serde_json::to_string(&redirect).unwrap();
        assert!(json.contains("\"status\":\"not_primary\""));
        assert!(matches!(
            serde_json::from_str::<Response>(&json).unwrap(),
            Response::NotPrimary { primary } if primary == "127.0.0.1:7001"
        ));
    }

    #[test]
    fn promote_roundtrip() {
        // PROMOTE is a bare tag; its answer carries the was_replica flag.
        assert!(matches!(
            serde_json::from_str::<Request>("{\"op\":\"promote\"}").unwrap(),
            Request::Promote
        ));
        let json = serde_json::to_string(&Response::Promoted { was_replica: true }).unwrap();
        assert!(json.contains("\"status\":\"promoted\""));
        assert!(matches!(
            serde_json::from_str::<Response>(&json).unwrap(),
            Response::Promoted { was_replica: true }
        ));
    }

    #[test]
    fn stats_and_metrics_tolerate_pre_replication_peers() {
        // Responses recorded before applied_seq existed must still parse.
        let old = "{\"status\":\"stats\",\"stats\":{\"datasets\":1,\"runs\":2,\
                   \"wal_segments\":1,\"active_segment\":1,\"snapshot_seq\":null,\
                   \"recovered_records\":0,\"recovered_torn_tail\":false}}";
        match serde_json::from_str::<Response>(old).unwrap() {
            Response::Stats { stats } => {
                assert_eq!(stats.applied_seq, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::Stats {
            stats: KbStats {
                datasets: 3,
                runs: 9,
                wal_segments: 2,
                active_segment: 5,
                snapshot_seq: Some(3),
                recovered_records: 4,
                recovered_torn_tail: true,
                applied_seq: 9,
            },
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"status\":"));
        match serde_json::from_str::<Response>(&json).unwrap() {
            Response::Stats { stats } => {
                assert_eq!(stats.runs, 9);
                assert_eq!(stats.snapshot_seq, Some(3));
                assert!(stats.recovered_torn_tail);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
