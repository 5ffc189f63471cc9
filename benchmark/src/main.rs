//! The repo's benchmark. Five workloads, each in a process of its own;
//! every layer is measured from outside, by timing calls into public
//! functions. See `benchmark/README.md`.
//!
//! ```text
//! smartml-benchmark run     --spec BENCHMARK.json --out DIR --workload NAME
//!                           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! smartml-benchmark all     --spec BENCHMARK.json --out DIR
//!                           [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--runs N]
//! smartml-benchmark compare --spec BENCHMARK.json A.json B.json
//! ```

mod compare;
mod harness;
mod inputs;
mod jobs;
mod kbserve;
mod pipeline;
mod probes;
mod spans;

use harness::{Ledger, RunArgs, WorkDir, WIDTH};
use serde_json::{json, Value};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The metric names, units and bounds `BENCHMARK.json` declares: the one
/// place they are written down.
pub struct Declared {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    /// `(name, unit, better, bound)`; per-layer metrics have no bound.
    pub end_to_end: Vec<(String, String, String, f64)>,
    pub per_layer: Vec<(String, String, String, f64)>,
}

impl Declared {
    pub fn load(path: &Path) -> Result<Declared, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Vec<(String, String, String, f64)> {
            v[key]
                .as_array()
                .map(|a| {
                    a.iter()
                        .map(|m| {
                            let field = |k: &str| m[k].as_str().unwrap_or("").to_string();
                            (
                                field("name"),
                                field("unit"),
                                field("better"),
                                m["bound"].as_f64().unwrap_or(0.0),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let workloads = v["workloads"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|w| w["name"].as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        Ok(Declared {
            workloads,
            run_seconds: v["run_seconds"].as_f64().unwrap_or(10.0),
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        })
    }
}

struct Cli {
    mode: String,
    spec: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    inject: Option<String>,
    files: Vec<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("missing mode: run, all or compare")?;
    let mut cli = Cli {
        mode,
        spec: PathBuf::from("BENCHMARK.json"),
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        inject: None,
        files: Vec::new(),
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--spec" => cli.spec = PathBuf::from(value("--spec")?),
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => cli.trace = value("--trace")? != "0",
            "--runs" => {
                cli.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--inject-fault" => cli.inject = Some(value("--inject-fault")?),
            "--smoke" => cli.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            file => cli.files.push(file.to_string()),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process and returns its ledger.
fn run_workload(args: &RunArgs) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    let mut rec = Recorder::new(args.trace, Instant::now(), 0);
    match args.workload.as_str() {
        "table4_warm" => pipeline::run(args, &pipeline::TABLE4_WARM, &mut ledger, &mut rec),
        "rows1e5_ingest" => pipeline::run(args, &pipeline::ROWS1E5_INGEST, &mut ledger, &mut rec),
        "kb_read_1e4" => kbserve::run(args, &kbserve::KB_READ_1E4, &mut ledger, &mut rec),
        "kb_mixed_1e4" => kbserve::run(args, &kbserve::KB_MIXED_1E4, &mut ledger, &mut rec),
        "jobd_tenants" => jobs::run(args, &mut ledger, &mut rec),
        other => return Err(format!("unknown workload {other}")),
    }
    if args.trace {
        let work = WorkDir::create(&args.out, &format!("{}-probes", args.workload));
        probes::fixed(&mut ledger, work.path());

        let (layers, coverage) = rec.self_times();
        for (layer, secs) in &layers {
            ledger.put(format!("trace.self_s.{layer}"), "s", *secs, rec.spans.len());
        }
        ledger.put(
            "harness.self_time_coverage",
            "ratio",
            coverage,
            rec.spans.len(),
        );
        ledger.check((coverage - 1.0).abs() <= 0.05, || {
            format!("layer self times add up to {coverage:.3} of the traced wall-clock")
        });
        let path = args.out.join(format!("trace-{}.json", args.workload));
        rec.write_chrome(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ledger)
}

/// The result object of one run: the contract's last line, plus (under
/// `detail`) everything else that was measured.
fn result_json(
    declared: &Declared,
    args: &RunArgs,
    ledger: &Ledger,
) -> Result<(Value, Value), String> {
    let wanted = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    let known = |name: &str| {
        declared
            .end_to_end
            .iter()
            .chain(&declared.per_layer)
            .any(|(n, ..)| n == name)
    };
    if let Some(stray) = ledger.metrics.iter().find(|m| !known(&m.name)) {
        return Err(format!(
            "metric {} is not declared in BENCHMARK.json",
            stray.name
        ));
    }
    let mut metrics = Vec::new();
    for (name, unit, ..) in wanted {
        let measured = ledger.metrics.iter().find(|m| &m.name == name);
        if let Some(m) = measured.filter(|m| m.unit != unit) {
            return Err(format!(
                "metric {name} is measured in {} but declared in {unit}",
                m.unit
            ));
        }
        // A layer that does not run on this workload reads 0.
        let value = match measured {
            Some(m) => m.value,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push((name.clone(), json!({"value": value, "unit": unit})));
    }
    let line = json!({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": Value::Object(metrics)
    });
    let all: Vec<(String, Value)> = ledger
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                json!({"value": m.value, "unit": m.unit, "n": m.n}),
            )
        })
        .collect();
    let detail = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_ratio": ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "failures": ledger.failures,
        "metrics": Value::Object(all),
        "notes": Value::Object(ledger.notes.clone()),
        "environment": harness::environment(&args.out)
    });
    Ok((line, detail))
}

fn print_metrics(detail: &Value) {
    let workload = detail["workload"].as_str().unwrap_or("?");
    for (name, m) in detail["metrics"].as_object().into_iter().flatten() {
        println!(
            "{workload} {name} {} {} n={}",
            m["unit"].as_str().unwrap_or(""),
            m["value"],
            m["n"]
        );
    }
    println!(
        "{workload} fail_ratio fraction {} n={}",
        detail["fail_ratio"], detail["attempted"]
    );
    for failure in detail["failures"].as_array().into_iter().flatten() {
        println!("{workload} FAILED {}", failure.as_str().unwrap_or(""));
    }
}

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!(
        "result-{workload}{}.json",
        if trace { "-trace" } else { "" }
    ))
}

/// `run`: one workload, in this process. The last line printed is the
/// result object.
fn mode_run(cli: &Cli, declared: &Declared) -> Result<bool, String> {
    let workload = cli.workload.clone().ok_or("run needs --workload")?;
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(declared.run_seconds),
        trace: cli.trace,
        smoke: cli.smoke,
        out: cli.out.clone(),
        inject: cli.inject.clone(),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let ledger = run_workload(&args)?;
    let (line, detail) = result_json(declared, &args, &ledger)?;
    let path = detail_path(&args.out, &args.workload, args.trace);
    std::fs::write(&path, format!("{detail:#}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print_metrics(&detail);
    println!("{line}");
    Ok(ledger.failed == 0)
}

/// `all`: every workload (or the one named), each in a child process so
/// that its peak memory is its own; merges their results into
/// `results.json`.
fn mode_all(cli: &Cli, declared: &Declared) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workloads: Vec<String> = match &cli.workload {
        Some(w) => vec![w.clone()],
        None => declared.workloads.clone(),
    };
    let mut ok = true;
    let mut merged = Vec::new();
    for workload in &workloads {
        let mut runs = Vec::new();
        for _ in 0..cli.runs {
            let mut child = std::process::Command::new(&exe);
            child
                .arg("run")
                .arg("--spec")
                .arg(&cli.spec)
                .arg("--out")
                .arg(&cli.out);
            child.args(["--workload", workload, "--seed", &cli.seed.to_string()]);
            child.args(["--trace", if cli.trace { "1" } else { "0" }]);
            if let Some(s) = cli.seconds {
                child.args(["--seconds", &s.to_string()]);
            }
            if cli.smoke {
                child.arg("--smoke");
            }
            if let Some(fault) = &cli.inject {
                child.args(["--inject-fault", fault]);
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            ok &= status.success();
            let path = detail_path(&cli.out, workload, cli.trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(
                serde_json::from_str::<Value>(&text)
                    .map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
        merged.push((workload.clone(), Value::Array(runs)));
    }
    let results = json!({
        "seed": cli.seed,
        "trace": cli.trace,
        "smoke": cli.smoke,
        "runs": cli.runs,
        "environment": harness::environment(&cli.out),
        "workloads": Value::Object(merged)
    });
    let path = cli.out.join("results.json");
    std::fs::write(&path, format!("{results:#}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_cli().and_then(|cli| {
        let declared = Declared::load(&cli.spec)?;
        if cli.mode != "compare" && smartml_runtime::available_parallelism() < WIDTH {
            // Width-2 numbers from one core are not measurements.
            return Err(format!(
                "this benchmark needs {WIDTH} cores; the host offers fewer"
            ));
        }
        match cli.mode.as_str() {
            "run" => mode_run(&cli, &declared),
            "all" => mode_all(&cli, &declared),
            "compare" => compare::run(&declared, &cli.files),
            other => Err(format!("unknown mode {other}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("smartml-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
