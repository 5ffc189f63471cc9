//! The two knowledge-base service workloads: an in-process `EventServer`
//! (epoll, one loop, WAL fsync on) over a store of 10⁴ records, driven by
//! one `KbClient` in a closed loop.
//!
//! `kb_read_1e4` only reads, so the per-generation z-cache stays warm;
//! `kb_mixed_1e4` makes one op in ten a RECORD of a new dataset, each of
//! which fsyncs the WAL and invalidates that cache for the next read.

use smartml::KnowledgeBase;
use smartml_kb::{KbEntry, QueryOptions, Recommendation};
use smartml_kbd::{
    DurableOptions, EventServer, EventServerOptions, KbClient, Request, Response, ShardedKb,
    WalRecord, WalWriter,
};
use smartml_metafeatures::MetaFeatures;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::harness::{median, median_secs, repeat_setup, timed, Ledger, RunArgs, WorkDir};
use crate::inputs::KbInputs;
use crate::spans::Recorder;

pub struct Spec {
    /// Share of ops that are RECORDs of a new dataset.
    pub write_share: f64,
}

pub const KB_READ_1E4: Spec = Spec { write_share: 0.0 };
pub const KB_MIXED_1E4: Spec = Spec { write_share: 0.1 };

const RECORDS: usize = 10_000;
/// Ops per pass: a pass is the unit `suite_wall_s` times.
const OPS_PER_PASS: usize = 5_000;
/// One RECOMMEND reply in this many is kept for the replay check.
const SAMPLE_EVERY: usize = 100;

struct Served {
    inputs: KbInputs,
    entries: Vec<KbEntry>,
    dir: PathBuf,
    store: Arc<ShardedKb>,
    client: KbClient,
    thread: JoinHandle<()>,
}

impl Served {
    /// Stops the server; what is left is the seeded records and the
    /// directory they and every acknowledged RECORD live in.
    fn shut_down(self) -> (Vec<KbEntry>, PathBuf) {
        self.client
            .shutdown()
            .expect("server acknowledges shutdown");
        self.thread.join().expect("server thread");
        (self.entries, self.dir)
    }
}

fn one_shard(dir: &Path, fsync_writes: bool) -> ShardedKb {
    let options = DurableOptions {
        fsync_writes,
        ..DurableOptions::default()
    };
    ShardedKb::open_with(dir, options, 1).expect("store opens")
}

/// Generates the records, writes them through the store's own write path
/// (fsync off: 2·10⁴ fsyncs are not what this workload measures), folds
/// them into a snapshot, and starts the server over the directory.
fn set_up(seed: u64, records: usize, dir: PathBuf) -> Served {
    let mut inputs = KbInputs::new(seed);
    let entries: Vec<KbEntry> = (0..records).map(|i| inputs.record(i)).collect();
    {
        let store = one_shard(&dir, false);
        for e in &entries {
            for run in &e.runs {
                store
                    .record_run(&e.dataset_id, &e.meta_features, run.clone())
                    .expect("seed record");
            }
        }
        store.snapshot().expect("seed snapshot");
    }
    let server = EventServer::bind(EventServerOptions {
        dir: dir.clone(),
        n_loops: 1,
        request_timeout: None,
        ..EventServerOptions::default()
    })
    .expect("server binds");
    let addr = server.local_addr().expect("bound address").to_string();
    let store = Arc::clone(server.store());
    let thread = std::thread::spawn(move || server.run().expect("server runs"));
    let client = KbClient::connect(addr);
    client.ping().expect("server answers");
    Served {
        inputs,
        entries,
        dir,
        store,
        client,
        thread,
    }
}

/// What the client did, in order, for the replay against the in-memory
/// `KnowledgeBase`: every RECORD, and the sampled RECOMMENDs with the
/// reply the server gave.
enum Logged {
    Record(KbEntry),
    Recommend(MetaFeatures, Recommendation),
}

#[derive(Default)]
struct Samples {
    recommend_ms: Vec<f64>,
    record_ms: Vec<f64>,
    walls: Vec<f64>,
    top_hits: usize,
    log: Vec<Logged>,
    next_id: usize,
    ops: usize,
}

/// One pass of `ops` closed-loop requests.
fn run_pass(
    spec: &Spec,
    served: &mut Served,
    ops: usize,
    samples: &mut Samples,
    ledger: &mut Ledger,
    rec: &mut Recorder,
) {
    let options = QueryOptions::default();
    let root = rec.enter("pass", "harness", 0);
    let started = Instant::now();
    for _ in 0..ops {
        samples.ops += 1;
        let job = samples.ops as u32;
        if spec.write_share > 0.0 && served.inputs.coin(spec.write_share) {
            let mut entry = served.inputs.record(RECORDS + samples.next_id);
            samples.next_id += 1;
            entry.runs.truncate(1);
            let span = rec.enter("kbd.record", "kbd_kb_netio", job);
            let t = Instant::now();
            let reply = served.client.record_run(
                &entry.dataset_id,
                &entry.meta_features,
                entry.runs[0].clone(),
            );
            samples.record_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rec.exit(span);
            ledger.check(reply.is_ok(), || {
                format!("RECORD failed: {:?}", reply.as_ref().err())
            });
            if reply.is_ok() {
                samples.log.push(Logged::Record(entry));
            }
        } else {
            let (query, source) = served.inputs.query();
            let span = rec.enter("kbd.recommend", "kbd_kb_netio", job);
            let t = Instant::now();
            let reply = served.client.recommend(&query, None, &options);
            samples.recommend_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rec.exit(span);
            match reply {
                Ok(r) if !r.algorithms.is_empty() => {
                    ledger.passed(1);
                    if r.algorithms[0].algorithm == KbInputs::best_algorithm(source) {
                        samples.top_hits += 1;
                    }
                    if samples.recommend_ms.len().is_multiple_of(SAMPLE_EVERY) {
                        samples.log.push(Logged::Recommend(query, r));
                    }
                }
                other => ledger.check(false, || {
                    format!("RECOMMEND failed or came back empty: {other:?}")
                }),
            }
        }
    }
    samples.walls.push(started.elapsed().as_secs_f64());
    rec.exit(root);
}

/// Replays the logged ops against the in-memory `KnowledgeBase` — the
/// semantic reference — and returns the KB the store must now equal.
fn replay(entries: Vec<KbEntry>, log: &[Logged], ledger: &mut Ledger) -> KnowledgeBase {
    let mut kb = KnowledgeBase::from_entries(entries);
    let options = QueryOptions::default();
    for op in log {
        match op {
            Logged::Record(e) => kb.record_run(&e.dataset_id, &e.meta_features, e.runs[0].clone()),
            Logged::Recommend(query, reply) => {
                ledger.check(&kb.recommend(query, &options) == reply, || {
                    "a sampled RECOMMEND reply differs from the in-memory KnowledgeBase".to_string()
                });
            }
        }
    }
    kb
}

/// Loses the tail of the newest non-empty WAL segment, as a crash
/// between `write` and `fsync` of an acknowledged RECORD would.
fn tear_wal_tail(dir: &Path) {
    let newest = std::fs::read_dir(dir)
        .expect("store directory")
        .filter_map(|e| {
            let path = e.ok()?.path();
            let seq = smartml_kbd::parse_segment_name(path.file_name()?.to_str()?)?;
            (path.metadata().ok()?.len() > 0).then_some((seq, path))
        })
        .max()
        .expect("a RECORD was logged")
        .1;
    let len = newest.metadata().expect("segment metadata").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .expect("open segment");
    file.set_len(len - 7).expect("truncate segment");
}

pub fn run(args: &RunArgs, spec: &Spec, ledger: &mut Ledger, rec: &mut Recorder) {
    let work = WorkDir::create(&args.out, &args.workload);

    // Set-up, three times: generate, seed, snapshot, serve.
    let records = if args.smoke { RECORDS / 10 } else { RECORDS };
    let (setups, mut served) = repeat_setup(
        args.setup_reps(3),
        6.0,
        |rep| set_up(args.seed, records, work.sub(&format!("store-{rep}"))),
        |previous| drop(previous.shut_down()),
    );
    ledger.note("records", served.store.len());
    ledger.check(served.store.len() == records, || {
        "seeded store has the wrong size".to_string()
    });

    // Warm-up: fills the z-cache and the connection's buffers.
    let mut off = Recorder::new(false, rec.epoch(), 0);
    let mut warm = Samples::default();
    run_pass(&KB_READ_1E4, &mut served, 300, &mut warm, ledger, &mut off);

    let ops = if args.smoke { 300 } else { OPS_PER_PASS };
    let mut samples = Samples::default();
    smartml_obs::reset_metrics();
    if args.trace {
        run_pass(spec, &mut served, ops, &mut samples, ledger, rec);
    } else {
        let started = Instant::now();
        while args.keep_measuring(started, samples.walls.len()) {
            run_pass(spec, &mut served, ops, &mut samples, ledger, &mut off);
        }
    }

    let reads = samples.recommend_ms.len();
    if !samples.record_ms.is_empty() {
        ledger.put(
            "kbd.record_p50_us",
            "us",
            median(&samples.record_ms) * 1e3,
            samples.record_ms.len(),
        );
    }
    ledger.put(
        "kbd.recommend_p50_us",
        "us",
        median(&samples.recommend_ms) * 1e3,
        reads,
    );
    let retries = served.client.health_warnings().len();
    ledger.put("kbd.client_retries", "count", retries as f64, samples.ops);
    if args.trace {
        // The probes' own acknowledged writes join the log the store is
        // checked against.
        samples
            .log
            .extend(live_probes(&served, ledger).into_iter().map(Logged::Record));
    }

    // Shut down, then check what the server said against the reference
    // and what it kept against what it acknowledged.
    let (entries, dir) = served.shut_down();
    let expected = replay(entries, &samples.log, ledger);
    if args.inject.as_deref() == Some("drop-ack") {
        tear_wal_tail(&dir);
    }
    let (recover_s, reopened) = timed(|| one_shard(&dir, true));
    let kept = serde_json::to_string(&reopened.to_monolithic()).expect("kb encodes");
    ledger.check(
        kept == serde_json::to_string(&expected).expect("kb encodes"),
        || {
            "the reopened store does not hold exactly the seeded and acknowledged records"
                .to_string()
        },
    );
    let quality = samples.top_hits as f64 / reads as f64;
    ledger.put_end_to_end(
        &setups,
        &samples.walls,
        &samples.recommend_ms,
        quality,
        reads,
    );
    if args.trace {
        ledger.put("kbd.recover_s", "s", recover_s, 1);
        ledger.put(
            "kbd.snapshot_s",
            "s",
            timed(|| reopened.snapshot().expect("snapshot")).0,
            1,
        );
        wal_probes(&work.sub("probe-wal"), &expected.entries()[0], ledger);
        ledger.put("harness.traced_wall_s", "s", samples.walls[0], 1);
    }
}

/// Probes against the live server and, in process, the store it serves.
fn live_probes(served: &Served, ledger: &mut Ledger) -> Vec<KbEntry> {
    let metrics = served.client.metrics().expect("METRICS answers");
    ledger.put(
        "kbd.dispatch_p50_us",
        "us",
        metrics.request_us_p50 as f64,
        metrics.requests as usize,
    );
    ledger.put(
        "kbd.dispatch_p99_us",
        "us",
        metrics.request_us_p99 as f64,
        metrics.requests as usize,
    );

    let secs = median_secs(2000, || served.client.ping().expect("PING answers"));
    ledger.put("netio.ping_rtt_us", "us", secs * 1e6, 2000);

    let mut inputs = KbInputs::new(2);
    let options = QueryOptions::default();
    let request = Request::Recommend {
        meta_features: inputs.query().0,
        landmarkers: None,
        options: Some(options.clone()),
    };
    let line = serde_json::to_string(&request).expect("request encodes");
    let secs = median_secs(2000, || {
        black_box(serde_json::from_str::<Request>(&line).expect("request parses"));
    });
    ledger.put("kbd.request_parse_us", "us", secs * 1e6, 2000);
    let reply = Response::Recommendation {
        recommendation: served.store.recommend(&inputs.query().0, None, &options),
    };
    let secs = median_secs(2000, || {
        black_box(serde_json::to_string(&reply).expect("response encodes"));
    });
    ledger.put("kbd.response_encode_us", "us", secs * 1e6, 2000);

    // The store without the wire: steady reads, fsynced writes, and the
    // first read after each write, which rebuilds the z-cache.
    let steady = median_secs(300, || {
        black_box(served.store.recommend(&inputs.query().0, None, &options));
    });
    ledger.put("kbd.sharded_recommend_us", "us", steady * 1e6, 300);
    let (mut writes, mut first_reads, mut written) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..30 {
        let e = inputs.record(5_000_000 + i);
        let (secs, ack) = timed(|| {
            served
                .store
                .record_run(&e.dataset_id, &e.meta_features, e.runs[0].clone())
        });
        ack.expect("store records");
        writes.push(secs);
        first_reads
            .push(timed(|| black_box(served.store.recommend(&e.meta_features, None, &options))).0);
        written.push(e);
    }
    ledger.put(
        "kbd.sharded_record_us",
        "us",
        median(&writes) * 1e6,
        writes.len(),
    );
    ledger.put(
        "kbd.zcache_rebuild_us",
        "us",
        (median(&first_reads) - steady).max(0.0) * 1e6,
        first_reads.len(),
    );
    written
}

/// The WAL alone: append without fsync, then the fsync.
fn wal_probes(dir: &Path, entry: &KbEntry, ledger: &mut Ledger) {
    std::fs::create_dir_all(dir).expect("probe directory");
    let mut wal = WalWriter::open(dir, 1, u64::MAX, false).expect("probe WAL opens");
    let record = WalRecord::Run {
        dataset_id: entry.dataset_id.clone(),
        meta_features: entry.meta_features.clone(),
        run: entry.runs[0].clone(),
    };
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        appends.push(timed(|| wal.append(&record).expect("append")).0);
        syncs.push(timed(|| wal.sync().expect("fsync")).0);
    }
    ledger.put(
        "kbd.wal_append_us",
        "us",
        median(&appends) * 1e6,
        appends.len(),
    );
    ledger.put("kbd.wal_fsync_us", "us", median(&syncs) * 1e6, syncs.len());
    ledger.put(
        "kbd.wal_bytes_per_record",
        "B",
        wal.len() as f64 / appends.len() as f64,
        appends.len(),
    );
}
