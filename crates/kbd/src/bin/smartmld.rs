//! `smartmld` — the SmartML knowledge-base daemon.
//!
//! ```text
//! smartmld --dir KB_DIR [--addr HOST:PORT] [--shards N]
//!          [--segment-bytes N] [--timeout-ms N]
//!          [--max-connections N] [--no-fsync]
//!          [--replica-of HOST:PORT]
//! ```
//!
//! Serves `recommend` / `recommend_batch` / `record_run` /
//! `set_landmarkers` / `stats` / `snapshot` / `sync` / `ping` /
//! `shutdown` as JSON lines over TCP (see `smartml_kbd::protocol`) from
//! epoll event loops over a sharded store — pipelined, non-blocking,
//! scales to many connections. `--shards N` sets both the loop and the
//! shard count (default: the available cores).
//!
//! With `--replica-of PRIMARY` the process becomes a read replica: a
//! background tailer pulls the primary's WAL over the `sync` verb into
//! `--dir`, while the serving loops answer reads and reject writes with
//! a `not_primary` redirect.
//!
//! `--addr` defaulting to port `0` picks an ephemeral port; the chosen
//! address is printed on the `listening on` line so scripts can scrape
//! it.

use smartml_kbd::{
    DurableOptions, EventServer, EventServerOptions, ReplicaOptions, ReplicaTailer, ServeRole,
    ShardedKb,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: smartmld --dir KB_DIR [--addr HOST:PORT] [--shards N] \
             [--segment-bytes N] [--timeout-ms N] [--max-connections N] \
             [--no-fsync] [--replica-of HOST:PORT]"
        );
        return ExitCode::from(2);
    }
    match serve(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("smartmld: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Config {
    dir: String,
    addr: String,
    durable: DurableOptions,
    request_timeout: Option<Duration>,
    max_connections: usize,
    shards: usize,
}

fn parse(args: &[String]) -> Result<Config, String> {
    let dir = flag_value(args, "--dir").ok_or("--dir KB_DIR is required")?.to_string();
    let mut durable = DurableOptions::default();
    if let Some(n) = flag_value(args, "--segment-bytes") {
        durable.segment_bytes = n.parse().map_err(|_| "--segment-bytes expects a number")?;
    }
    if args.iter().any(|a| a == "--no-fsync") {
        durable.fsync_writes = false;
    }
    let mut request_timeout = Some(Duration::from_secs(10));
    if let Some(ms) = flag_value(args, "--timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--timeout-ms expects a number")?;
        request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    let max_connections = match flag_value(args, "--max-connections") {
        Some(n) => n.parse().map_err(|_| "--max-connections expects a number")?,
        None => 0,
    };
    let shards = match flag_value(args, "--shards") {
        Some(n) => n.parse().map_err(|_| "--shards expects a number")?,
        None => 0,
    };
    Ok(Config {
        dir,
        addr: flag_value(args, "--addr").unwrap_or("127.0.0.1:0").to_string(),
        durable,
        request_timeout,
        max_connections,
        shards,
    })
}

fn report_recovery(recovery: &smartml_kbd::RecoveryReport, datasets: usize, runs: usize) {
    println!(
        "smartmld: recovered {datasets} datasets / {runs} runs \
         (snapshot {:?}, {} wal records replayed{})",
        recovery.snapshot_seq,
        recovery.records_replayed,
        if recovery.truncated_tail { ", torn tail truncated" } else { "" }
    );
}

fn serve(args: &[String]) -> Result<(), String> {
    let cfg = parse(args)?;
    let replica_of = flag_value(args, "--replica-of").map(str::to_string);
    let role = match &replica_of {
        Some(primary) => ServeRole::Replica { primary: primary.clone() },
        None => ServeRole::Primary,
    };
    let shards = if cfg.shards == 0 {
        smartml_runtime::available_parallelism()
    } else {
        cfg.shards
    };
    let store = Arc::new(
        ShardedKb::open_with(std::path::Path::new(&cfg.dir), cfg.durable.clone(), shards)
            .map_err(|e| e.to_string())?,
    );
    let tailer = replica_of.as_ref().map(|primary| {
        Arc::new(ReplicaTailer::spawn(
            ReplicaOptions {
                primary: primary.clone(),
                durable: cfg.durable.clone(),
                ..ReplicaOptions::default()
            },
            Arc::clone(&store),
        ))
    });
    let server = EventServer::bind_with_store(
        EventServerOptions {
            dir: cfg.dir.into(),
            addr: cfg.addr,
            n_loops: shards,
            max_connections: cfg.max_connections,
            request_timeout: cfg.request_timeout,
            durable: cfg.durable,
            role,
        },
        store,
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(handle) = &tailer {
        // A PROMOTE request flips the role cell and runs this hook: the
        // tailer is told to stop (without the serving thread blocking on
        // its current pull) and the server starts accepting writes on the
        // next request.
        let handle = Arc::clone(handle);
        server.role_cell().set_promote_hook(move || handle.request_stop());
    }
    let (datasets, runs) = (server.store().len(), server.store().n_runs());
    report_recovery(server.recovery(), datasets, runs);
    println!(
        "smartmld: epoll backend, {} event loop(s) / shard(s)",
        server.store().n_shards()
    );
    if let Some(primary) = &replica_of {
        println!("smartmld: read replica of {primary}");
    }
    // Scraped by scripts/verify.sh and tests: keep the format stable.
    println!("smartmld: listening on {addr}");
    server.run().map_err(|e| e.to_string())?;
    // The role cell (and any clone the promote hook captured) died with
    // the serve loops, so this is the final handle: dropping it stops and
    // joins the tailer thread.
    drop(tailer);
    println!("smartmld: shut down cleanly");
    Ok(())
}
