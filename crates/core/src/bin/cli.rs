//! `smartml-cli` — the command-line face of SmartML (the package/API
//! access path of the paper; the Shiny UI is substituted by text output).
//!
//! ```text
//! smartml-cli run <data.csv|data.arff> [--target COL] [--budget N]
//!                 [--kb SPEC] [--ensemble] [--interpret] [--top-n N]
//!                 [--preprocess op1,op2] [--seed N] [--markdown] [--json]
//!                 [--trial-timeout SECS] [--breaker-threshold K]
//!                 [--optimizer smac|grid|random|tpe|halving|hyperband|asha]
//!                 [--halving-eta N] [--trace-out FILE] [--metrics]
//! smartml-cli metafeatures <data.csv|data.arff>
//! smartml-cli describe <data.csv|data.arff>
//! smartml-cli algorithms
//! smartml-cli bootstrap --kb PATH [--fast]
//! smartml-cli api < request.json
//! smartml-cli kb serve --dir DIR [--addr HOST:PORT] [--shards N] [--no-fsync]
//! smartml-cli kb stats|snapshot|metrics --kb SPEC
//! smartml-cli kb query <data> --kb SPEC [--top-n N]
//! smartml-cli kb query --batch FILE --kb SPEC [--top-n N]
//! smartml-cli kb record <data> --kb SPEC --algorithm NAME --accuracy X
//! smartml-cli synth <family> [--rows N] [--seed N] [--out FILE] [--spec JSON]
//! ```
//!
//! `--trace-out FILE` records structured spans for the run, writes them
//! as a Chrome-trace JSON file (open in `chrome://tracing` or Perfetto),
//! and adds a "Where the time went" section to the report. `--metrics`
//! enables the process metrics registry and dumps it to stderr after the
//! run.
//!
//! `--kb SPEC` accepts a plain JSON path, `wal:DIR` for the durable
//! write-ahead-logged store, or `tcp:HOST:PORT` for a running `smartmld`.

use smartml::bootstrap::{bootstrap_kb, BootstrapProfile};
use smartml::{api, Budget, KbSource, KnowledgeBase, Op, OptimizerChoice, SmartML, SmartMlOptions};
use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::io::{parse_arff, parse_csv, write_csv};
use smartml_data::synth::SynthSpec;
use smartml_data::Dataset;
use smartml_kb::{AlgorithmRun, KbBackend, QueryOptions};
use smartml_kbd::{
    BatchQuery, DurableOptions, EventServer, EventServerOptions, KbClient, ShardedKb,
};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("metafeatures") => cmd_metafeatures(&args[1..]),
        Some("describe") => cmd_describe(&args[1..]),
        Some("algorithms") => cmd_algorithms(),
        Some("bootstrap") => cmd_bootstrap(&args[1..]),
        Some("api") => cmd_api(&args[1..]),
        Some("kb") => cmd_kb(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        _ => {
            eprintln!(
                "usage: smartml-cli <run|metafeatures|describe|algorithms|bootstrap|api|kb|synth> ..."
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn load_dataset(path: &str, target: Option<&str>) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    if path.ends_with(".arff") {
        parse_arff(&name, &text).map_err(|e| e.to_string())
    } else {
        parse_csv(&name, &text, target).map_err(|e| e.to_string())
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("run: missing dataset path")?;
    let data = load_dataset(path, flag_value(args, "--target"))?;
    let mut options = SmartMlOptions::default();
    if let Some(budget) = flag_value(args, "--budget") {
        let trials: usize = budget.parse().map_err(|_| "--budget expects a number")?;
        options.budget = Budget::Trials(trials.max(3));
    }
    if let Some(secs) = flag_value(args, "--budget-seconds") {
        let s: f64 = secs.parse().map_err(|_| "--budget-seconds expects a number")?;
        if !s.is_finite() {
            return Err("--budget-seconds expects a finite number".into());
        }
        options.budget = Budget::Time(std::time::Duration::from_secs_f64(s.max(0.1)));
    }
    if let Some(secs) = flag_value(args, "--trial-timeout") {
        let s: f64 = secs.parse().map_err(|_| "--trial-timeout expects a number")?;
        if !s.is_finite() || s <= 0.0 {
            return Err("--trial-timeout expects a positive finite number of seconds".into());
        }
        options.trial_timeout = Some(std::time::Duration::from_secs_f64(s));
    }
    if let Some(k) = flag_value(args, "--breaker-threshold") {
        options.breaker_threshold =
            k.parse().map_err(|_| "--breaker-threshold expects a number (0 disables)")?;
    }
    if let Some(name) = flag_value(args, "--optimizer") {
        options.optimizer = OptimizerChoice::parse(name)?;
    }
    if let Some(eta) = flag_value(args, "--halving-eta") {
        options.halving_eta =
            eta.parse().map_err(|_| "--halving-eta expects a number >= 2")?;
        if options.halving_eta < 2 {
            return Err(format!(
                "--halving-eta must be at least 2, got {}",
                options.halving_eta
            ));
        }
    }
    if let Some(n) = flag_value(args, "--top-n") {
        options.top_n_algorithms = n.parse().map_err(|_| "--top-n expects a number")?;
    }
    if let Some(seed) = flag_value(args, "--seed") {
        options.seed = seed.parse().map_err(|_| "--seed expects a number")?;
    }
    if let Some(ops) = flag_value(args, "--preprocess") {
        let mut parsed = Vec::new();
        for name in ops.split(',') {
            parsed.push(Op::parse(name).ok_or_else(|| format!("unknown op '{name}'"))?);
        }
        options.preprocessing = parsed;
    }
    options.ensembling = has_flag(args, "--ensemble");
    options.interpretability = has_flag(args, "--interpret");
    options.trace = flag_value(args, "--trace-out").is_some() || has_flag(args, "--trace");
    if has_flag(args, "--metrics") {
        smartml_obs::enable_metrics();
    }

    let kb_spec = flag_value(args, "--kb").map(KbSource::parse).transpose()?;
    match kb_spec {
        None => {
            run_engine(KnowledgeBase::new(), options, &data, args)?;
        }
        Some(KbSource::File(p)) => {
            let kb = KnowledgeBase::load(&p).map_err(|e| e.to_string())?;
            let kb = run_engine(kb, options, &data, args)?;
            kb.save(&p).map_err(|e| e.to_string())?;
            println!("knowledge base saved to {}", p.display());
        }
        Some(KbSource::Wal(d)) => {
            let kb = ShardedKb::open_with(&d, DurableOptions::default(), 1)
                .map_err(|e| e.to_string())?;
            let kb = run_engine(kb, options, &data, args)?;
            println!(
                "knowledge base WAL at {} (active segment {})",
                kb.dir().display(),
                kb.active_segment()
            );
        }
        Some(KbSource::Remote(addr)) => {
            let client = KbClient::connect(addr);
            client.ping().map_err(|e| e.to_string())?;
            run_engine(client, options, &data, args)?;
        }
    }
    Ok(())
}

/// Runs the pipeline against any KB backend and prints the report.
fn run_engine<B: KbBackend>(
    kb: B,
    options: SmartMlOptions,
    data: &Dataset,
    args: &[String],
) -> Result<B, String> {
    println!(
        "knowledge base: {} ({} datasets / {} runs)",
        kb.kb_describe(),
        kb.kb_len(),
        kb.kb_n_runs()
    );
    let mut engine = SmartML::with_backend(kb, options);
    let outcome = engine.run(data).map_err(|e| e.to_string())?;
    if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome.report).map_err(|e| e.to_string())?
        );
    } else if has_flag(args, "--markdown") {
        print!("{}", outcome.report.render_markdown());
    } else {
        print!("{}", outcome.report.render());
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        let trace = outcome
            .trace
            .as_ref()
            .ok_or("--trace-out: run produced no trace (tracing was not enabled)")?;
        std::fs::write(path, trace.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "trace: {} spans written to {path} (open in chrome://tracing){}",
            trace.spans.len(),
            if trace.dropped > 0 {
                format!("; {} spans dropped to the ring-buffer cap", trace.dropped)
            } else {
                String::new()
            }
        );
    }
    if has_flag(args, "--metrics") {
        eprint!("{}", smartml_obs::snapshot().render_text());
    }
    Ok(engine.into_kb())
}

fn cmd_metafeatures(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("metafeatures: missing dataset path")?;
    let data = load_dataset(path, flag_value(args, "--target"))?;
    let mf = smartml_metafeatures::extract(&data, &data.all_rows());
    for (name, value) in mf.named() {
        println!("{name:<32} {value:.6}");
    }
    Ok(())
}

fn cmd_describe(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("describe: missing dataset path")?;
    let data = load_dataset(path, flag_value(args, "--target"))?;
    print!("{}", data.describe());
    Ok(())
}

fn cmd_algorithms() -> Result<(), String> {
    println!("{:<14} {:>11} {:>9}  R package (paper)", "Algorithm", "categorical", "numeric");
    for alg in Algorithm::ALL {
        let spec = alg.spec();
        println!(
            "{:<14} {:>11} {:>9}  {}",
            alg.paper_name(),
            spec.n_categorical,
            spec.n_numeric,
            alg.paper_package()
        );
    }
    Ok(())
}

fn cmd_bootstrap(args: &[String]) -> Result<(), String> {
    let kb_path = flag_value(args, "--kb").ok_or("bootstrap: --kb PATH required")?;
    let profile = if has_flag(args, "--fast") {
        BootstrapProfile::fast()
    } else {
        BootstrapProfile::default()
    };
    println!(
        "bootstrapping knowledge base over the 50-dataset corpus ({} algorithms x {} configs)…",
        profile.algorithms.len(),
        profile.configs_per_algorithm
    );
    let kb = bootstrap_kb(&profile);
    println!("bootstrapped: {} datasets / {} runs", kb.len(), kb.n_runs());
    kb.save(Path::new(kb_path)).map_err(|e| e.to_string())?;
    println!("saved to {kb_path}");
    Ok(())
}

fn cmd_kb(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("serve") => kb_serve(&args[1..]),
        Some("stats") => kb_stats(&args[1..]),
        Some("query") => kb_query(&args[1..]),
        Some("record") => kb_record(&args[1..]),
        Some("snapshot") => kb_snapshot(&args[1..]),
        Some("metrics") => kb_metrics(&args[1..]),
        Some("promote") => kb_promote(&args[1..]),
        _ => {
            Err("usage: smartml-cli kb <serve|stats|query|record|snapshot|metrics|promote> ..."
                .into())
        }
    }
}

fn parse_kb_spec(args: &[String]) -> Result<KbSource, String> {
    KbSource::parse(flag_value(args, "--kb").ok_or("--kb SPEC required")?)
}

/// `kb serve`: host a durable KB over TCP (same engine as `smartmld`):
/// epoll event loops over a sharded store, `--shards N` of each.
fn kb_serve(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag_value(args, "--dir").ok_or("kb serve: --dir DIR required")?);
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7878").to_string();
    let mut durable = DurableOptions::default();
    if has_flag(args, "--no-fsync") {
        durable.fsync_writes = false;
    }
    let report = |r: &smartml_kbd::RecoveryReport, datasets: usize, runs: usize| {
        println!(
            "recovered {datasets} datasets / {runs} runs (snapshot {:?}, {} WAL records replayed{})",
            r.snapshot_seq,
            r.records_replayed,
            if r.truncated_tail { ", torn tail truncated" } else { "" }
        );
    };
    let shards = match flag_value(args, "--shards") {
        Some(n) => n.parse().map_err(|_| "--shards expects a number")?,
        None => 0,
    };
    let server = EventServer::bind(EventServerOptions {
        dir,
        addr,
        durable,
        n_loops: shards,
        ..EventServerOptions::default()
    })
    .map_err(|e| e.to_string())?;
    report(server.recovery(), server.store().len(), server.store().n_runs());
    println!(
        "smartmld: epoll backend, {} event loop(s) / shard(s)",
        server.store().n_shards()
    );
    println!(
        "smartmld: listening on {}",
        server.local_addr().map_err(|e| e.to_string())?
    );
    server.run().map_err(|e| e.to_string())
}

fn kb_stats(args: &[String]) -> Result<(), String> {
    match parse_kb_spec(args)? {
        KbSource::File(p) => {
            let kb = KnowledgeBase::load(&p).map_err(|e| e.to_string())?;
            println!("{}: {} datasets / {} runs", p.display(), kb.len(), kb.n_runs());
        }
        KbSource::Wal(d) => {
            let kb = ShardedKb::open_with(&d, DurableOptions::default(), 1)
                .map_err(|e| e.to_string())?;
            let r = kb.recovery();
            println!(
                "wal:{}: {} datasets / {} runs (snapshot {:?}, active segment {}, \
                 applied seq {}, {} records replayed{})",
                d.display(),
                kb.len(),
                kb.n_runs(),
                r.snapshot_seq,
                kb.active_segment(),
                kb.applied_seq(),
                r.records_replayed,
                if r.truncated_tail { ", torn tail truncated" } else { "" }
            );
        }
        KbSource::Remote(addr) => {
            let stats = KbClient::connect(&*addr).stats().map_err(|e| e.to_string())?;
            println!(
                "tcp:{addr}: {} datasets / {} runs ({} WAL segments, active {}, \
                 snapshot {:?}, applied seq {})",
                stats.datasets,
                stats.runs,
                stats.wal_segments,
                stats.active_segment,
                stats.snapshot_seq,
                stats.applied_seq
            );
        }
    }
    Ok(())
}

/// `kb query`: extract meta-features from a dataset (or, with `--batch
/// FILE`, from every dataset listed in FILE) and ask the KB for
/// algorithm nominations without running the pipeline. Against a live
/// `tcp:` server, a batch goes out as one `recommend_batch` round trip.
fn kb_query(args: &[String]) -> Result<(), String> {
    let mut options = QueryOptions::default();
    if let Some(n) = flag_value(args, "--top-n") {
        options.top_n = n.parse().map_err(|_| "--top-n expects a number")?;
    }
    if let Some(n) = flag_value(args, "--neighbors") {
        options.n_neighbors = n.parse().map_err(|_| "--neighbors expects a number")?;
    }

    // Collect the datasets to query: one positional path, or a --batch
    // manifest with one dataset path per line (# comments allowed).
    let paths: Vec<String> = match flag_value(args, "--batch") {
        Some(manifest) => std::fs::read_to_string(manifest)
            .map_err(|e| format!("kb query: cannot read batch file {manifest}: {e}"))?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect(),
        None => vec![args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("kb query: missing dataset path (or --batch FILE)")?
            .clone()],
    };
    if paths.is_empty() {
        return Err("kb query: batch file lists no datasets".into());
    }
    let target = flag_value(args, "--target");
    let queries: Vec<(String, smartml_metafeatures::MetaFeatures)> = paths
        .iter()
        .map(|p| {
            let data = load_dataset(p, target)?;
            let mf = smartml_metafeatures::extract(&data, &data.all_rows());
            Ok((p.clone(), mf))
        })
        .collect::<Result<_, String>>()?;

    let recs = match parse_kb_spec(args)? {
        KbSource::File(p) => {
            let kb = KnowledgeBase::load(&p).map_err(|e| e.to_string())?;
            queries
                .iter()
                .map(|(_, mf)| kb.kb_recommend(mf, None, &options))
                .collect::<Result<Vec<_>, _>>()
        }
        KbSource::Wal(d) => {
            let kb = ShardedKb::open_with(&d, DurableOptions::default(), 1)
                .map_err(|e| e.to_string())?;
            queries
                .iter()
                .map(|(_, mf)| kb.kb_recommend(mf, None, &options))
                .collect::<Result<Vec<_>, _>>()
        }
        KbSource::Remote(addr) => {
            let client = KbClient::connect(addr);
            if queries.len() == 1 {
                client.recommend(&queries[0].1, None, &options).map(|r| vec![r])
            } else {
                // The point of the batch verb: all answers, one round trip.
                client.recommend_batch(
                    queries
                        .iter()
                        .map(|(_, mf)| BatchQuery {
                            meta_features: mf.clone(),
                            landmarkers: None,
                            options: Some(options.clone()),
                        })
                        .collect(),
                )
            }
        }
    }
    .map_err(|e| e.to_string())?;

    for (i, ((path, _), rec)) in queries.iter().zip(&recs).enumerate() {
        if queries.len() > 1 {
            if i > 0 {
                println!();
            }
            println!("== {path}");
        }
        if rec.algorithms.is_empty() {
            println!("knowledge base has no experience yet — no nominations");
            continue;
        }
        println!("{:<14} {:>8}  warm starts", "Algorithm", "score");
        for a in &rec.algorithms {
            println!(
                "{:<14} {:>8.4}  {}",
                a.algorithm.paper_name(),
                a.score,
                a.warm_starts.len()
            );
        }
        println!("nearest datasets:");
        for (id, d) in &rec.neighbors {
            println!("  {id} (distance {d:.4})");
        }
    }
    Ok(())
}

/// `kb record`: append one observed run to the KB.
fn kb_record(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("kb record: missing dataset path")?;
    let data = load_dataset(path, flag_value(args, "--target"))?;
    let mf = smartml_metafeatures::extract(&data, &data.all_rows());
    let name = flag_value(args, "--algorithm").ok_or("kb record: --algorithm NAME required")?;
    let algorithm = Algorithm::parse(name).ok_or_else(|| format!("unknown algorithm '{name}'"))?;
    let accuracy: f64 = flag_value(args, "--accuracy")
        .ok_or("kb record: --accuracy X required")?
        .parse()
        .map_err(|_| "--accuracy expects a number")?;
    let run = AlgorithmRun { algorithm, config: ParamConfig::default(), accuracy };
    match parse_kb_spec(args)? {
        KbSource::File(p) => {
            let mut kb = match KnowledgeBase::load(&p) {
                Ok(kb) => kb,
                Err(_) if !p.exists() => KnowledgeBase::new(),
                Err(e) => return Err(e.to_string()),
            };
            kb.record_run(&data.name, &mf, run);
            kb.save(&p).map_err(|e| e.to_string())?;
            println!("recorded; {}: {} datasets / {} runs", p.display(), kb.len(), kb.n_runs());
        }
        KbSource::Wal(d) => {
            let kb = ShardedKb::open_with(&d, DurableOptions::default(), 1)
                .map_err(|e| e.to_string())?;
            kb.record_run(&data.name, &mf, run).map_err(|e| e.to_string())?;
            println!("recorded; wal:{}: {} datasets / {} runs", d.display(), kb.len(), kb.n_runs());
        }
        KbSource::Remote(addr) => {
            let (datasets, runs) = KbClient::connect(&*addr)
                .record_run(&data.name, &mf, run)
                .map_err(|e| e.to_string())?;
            println!("recorded; tcp:{addr}: {datasets} datasets / {runs} runs");
        }
    }
    Ok(())
}

/// `kb metrics`: fetch a live server's request/latency/WAL metrics over
/// the `metrics` protocol verb.
fn kb_metrics(args: &[String]) -> Result<(), String> {
    let KbSource::Remote(addr) = parse_kb_spec(args)? else {
        return Err("kb metrics applies to tcp: knowledge bases (a live smartmld)".into());
    };
    let m = KbClient::connect(&*addr).metrics().map_err(|e| e.to_string())?;
    println!("smartmld at {addr}:");
    println!("  requests        {}", m.requests);
    println!("  errors          {}", m.errors);
    println!("  bytes in/out    {} / {}", m.bytes_in, m.bytes_out);
    println!(
        "  latency (us)    p50 {} / p99 {} / max {} / mean {:.1}",
        m.request_us_p50, m.request_us_p99, m.request_us_max, m.request_us_mean
    );
    println!("  wal fsyncs      {}", m.wal_fsyncs);
    println!("  wal rotations   {}", m.wal_rotations);
    println!("  applied seq     {}", m.applied_seq);
    if let Some(lag) = m.replication_lag {
        println!("  replica lag     {lag} record(s)");
    }
    println!("  by verb:");
    for (op, count) in &m.ops {
        println!("    {op:<16} {count}");
    }
    Ok(())
}

/// `kb snapshot`: compact a durable KB (local WAL dir or live server).
fn kb_snapshot(args: &[String]) -> Result<(), String> {
    match parse_kb_spec(args)? {
        KbSource::File(_) => {
            Err("kb snapshot applies to wal: and tcp: knowledge bases only".into())
        }
        KbSource::Wal(d) => {
            let kb = ShardedKb::open_with(&d, DurableOptions::default(), 1)
                .map_err(|e| e.to_string())?;
            let seq = kb.snapshot().map_err(|e| e.to_string())?;
            println!("snapshotted wal:{} at segment {seq}", d.display());
            Ok(())
        }
        KbSource::Remote(addr) => {
            let seq = KbClient::connect(&*addr).snapshot().map_err(|e| e.to_string())?;
            println!("snapshotted tcp:{addr} at segment {seq}");
            Ok(())
        }
    }
}

fn kb_promote(args: &[String]) -> Result<(), String> {
    let KbSource::Remote(addr) = parse_kb_spec(args)? else {
        return Err("kb promote applies to tcp: knowledge bases (a live smartmld)".into());
    };
    let was_replica = KbClient::connect(&*addr).promote().map_err(|e| e.to_string())?;
    if was_replica {
        println!("promoted tcp:{addr} from replica to primary");
    } else {
        println!("tcp:{addr} was already a primary (no-op)");
    }
    Ok(())
}

fn cmd_api(args: &[String]) -> Result<(), String> {
    let mut request = String::new();
    std::io::stdin()
        .read_to_string(&mut request)
        .map_err(|e| e.to_string())?;
    let kb_path = flag_value(args, "--kb").map(PathBuf::from);
    let mut kb = match &kb_path {
        Some(p) => KnowledgeBase::load(p).map_err(|e| e.to_string())?,
        None => KnowledgeBase::new(),
    };
    println!("{}", api::handle_json(&mut kb, &request));
    if let Some(p) = kb_path {
        kb.save(&p).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Default parameter choices for `synth <family>` — the same generator
/// space the KB bootstrap corpus draws from, at paper-scale defaults.
/// `--rows` rescales any family up to the 10^5-row range.
fn synth_family(family: &str) -> Option<SynthSpec> {
    Some(match family {
        "blobs" => SynthSpec::Blobs { n: 600, d: 8, k: 3, spread: 1.0 },
        "xor_parity" => SynthSpec::XorParity { n: 600, informative: 3, noise: 12, flip: 0.02 },
        "prototype_noise" => SynthSpec::PrototypeNoise { n: 600, d: 24, k: 4, snr: 1.0 },
        "sparse_counts" => SynthSpec::SparseCounts { n: 600, d: 40, k: 3, doc_len: 60 },
        "kinematics" => SynthSpec::Kinematics { n: 600, d: 8, noise: 0.05 },
        "imbalanced_mixture" => {
            SynthSpec::ImbalancedMixture { n: 600, d: 8, k: 4, overlap: 1.0 }
        }
        "sensor_drift" => SynthSpec::SensorDrift { n: 600, d: 6, drift: 0.3 },
        "two_spirals" => SynthSpec::TwoSpirals { n: 600, noise: 0.05 },
        "categorical_mixture" => {
            SynthSpec::CategoricalMixture { n: 600, d_cat: 4, d_num: 4, k: 3, cardinality: 4 }
        }
        _ => return None,
    })
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let spec = if let Some(json) = flag_value(args, "--spec") {
        serde_json::from_str::<SynthSpec>(json).map_err(|e| format!("--spec: {e}"))?
    } else {
        let family = args
            .iter()
            .find(|a| !a.starts_with("--"))
            .ok_or("synth: name a generator family or pass --spec JSON")?;
        synth_family(family).ok_or_else(|| {
            format!(
                "synth: unknown family {family:?} (try blobs, xor_parity, prototype_noise, \
                 sparse_counts, kinematics, imbalanced_mixture, sensor_drift, two_spirals, \
                 categorical_mixture, or pass --spec JSON)"
            )
        })?
    };
    let spec = match flag_value(args, "--rows") {
        Some(r) => {
            let rows: usize = r.parse().map_err(|_| "--rows expects a number")?;
            if rows == 0 {
                return Err("--rows expects a positive number".into());
            }
            spec.with_rows(rows)
        }
        None => spec,
    };
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => s.parse().map_err(|_| "--seed expects a number")?,
        None => 0,
    };
    let name = flag_value(args, "--name").unwrap_or("synth");
    let data = spec.generate(name, seed);
    let csv = write_csv(&data);
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {} rows x {} features to {path}",
                data.n_rows(),
                data.n_features()
            );
        }
        None => print!("{csv}"),
    }
    Ok(())
}
