//! Durable, concurrent serving for the SmartML knowledge base.
//!
//! The paper's framework "gets smarter by getting more experience": every
//! run appends `(meta-features, tuned configuration, accuracy)` records,
//! and every new dataset queries the accumulated experience for algorithm
//! nominations and SMAC warm starts. `smartml-kb` holds that experience
//! in memory with single-file JSON persistence — fine for one process,
//! useless for a deployment. This crate is the serving stack on top:
//!
//! | layer | type | what it adds |
//! |-------|------|--------------|
//! | durability | [`DurableOptions`] / [`RecoveryReport`] | the KB directory format: write-ahead log with checksummed frames, segment rotation, snapshot + compaction, torn-tail crash recovery |
//! | store | [`ShardedKb`] | the one store over that directory: entries split by meta-feature hash, reads scan one flat z-score matrix rebuilt in place when a feature row changes, answers byte-identical to the in-memory KB; in process it is the `wal:DIR` [`smartml_kb::KbBackend`] |
//! | serving | [`EventServer`] / [`KbClient`] | `smartmld`, a TCP JSON-lines server on epoll event loops with pipelining and a `recommend_batch` verb, plus a blocking client that is also a [`smartml_kb::KbBackend`] |
//! | replication | [`ReplicaTailer`] | read replicas that tail a primary's WAL over the `sync` verb |
//!
//! ```no_run
//! use smartml_kbd::{EventServer, EventServerOptions, KbClient};
//!
//! let server = EventServer::bind(EventServerOptions {
//!     dir: "my-kb".into(),
//!     ..EventServerOptions::default()
//! }).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run().unwrap());
//!
//! let client = KbClient::connect(addr.to_string());
//! client.ping().unwrap();
//! ```

mod client;
mod durable;
mod event_server;
mod protocol;
mod replica;
mod service;
mod sharded;
mod wal;

pub use client::{KbClient, RetryPolicy};
pub use durable::{DurableOptions, RecoveryReport};
pub use event_server::{EventServer, EventServerOptions, LoopStats};
pub use protocol::{
    oversized_frame_message, BatchQuery, KbStats, Request, Response, ServerMetrics,
    MAX_FRAME_BYTES, SYNC_CHUNK_BYTES,
};
pub use replica::{ReplicaHandle, ReplicaOptions, ReplicaTailer};
pub use service::{RoleCell, ServeRole};
pub use sharded::ShardedKb;
pub use wal::{
    encode_frame, encode_payload_frame, fnv1a, parse_segment_name, parse_snapshot_name,
    replay_segment, scan_frames, scan_payload_frames, segment_name, snapshot_name,
    FrameCorruption, PayloadScan, SegmentScan, WalRecord, WalWriter,
};
