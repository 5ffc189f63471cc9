//! `jobd_tenants`: an in-process `JobServer` with two workers and three
//! tenant clients, each holding one job outstanding. Tenants `a` and `c`
//! submit the ten Table-4 analogues as `Synth` specs, `b` submits the same
//! datasets as inline CSV. Jobs cost 0.3–1.5 s, so the distance to direct
//! execution is what the service itself adds: wire, scheduler, journal,
//! CSV materialise and ship.

use smartml::api::ExperimentOptions;
use smartml::RunReport;
use smartml_data::io::parse_csv;
use smartml_jobd::{
    materialize, run_job, Job, JobClient, JobDataset, JobResponse, JobServer, JobServerOptions,
    JobState, JobdConfig, Journal, JournalRecord, Submitted,
};
use smartml_runtime::Pool;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::harness::{mean, median, repeat_setup, timed, Ledger, RunArgs, WorkDir, WIDTH};
use crate::inputs::{self, JobInput};
use crate::pipeline::{canonical, FIXED_SMARTML_SEED};
use crate::probes;
use crate::spans::Recorder;

const TENANTS: [&str; 3] = ["a", "b", "c"];
const TRIALS: usize = 15;

fn options() -> ExperimentOptions {
    ExperimentOptions {
        budget_trials: Some(TRIALS),
        seed: Some(FIXED_SMARTML_SEED),
        n_threads: Some(1),
        ..ExperimentOptions::default()
    }
}

/// What tenant `t` submits for `input`: the spec, or for `b` the bytes.
fn dataset_for(tenant: &str, input: &JobInput) -> JobDataset {
    if tenant == "b" {
        JobDataset::Csv {
            content: input.csv.clone(),
            target: None,
        }
    } else {
        JobDataset::Synth {
            spec: input.spec.clone(),
            seed: input.data_seed,
            rows: None,
        }
    }
}

struct Running {
    addr: String,
    thread: JoinHandle<()>,
}

fn start_server(dir: PathBuf) -> Running {
    let server = JobServer::bind(JobServerOptions {
        config: JobdConfig {
            dir,
            workers: WIDTH,
            ..JobdConfig::default()
        },
        ..JobServerOptions::default()
    })
    .expect("job server binds");
    let addr = server.local_addr().expect("bound address").to_string();
    let thread = std::thread::spawn(move || server.run().expect("job server runs"));
    JobClient::connect(addr.clone())
        .ping()
        .expect("job server answers");
    Running { addr, thread }
}

fn stop_server(running: Running) {
    JobClient::connect(running.addr)
        .shutdown()
        .expect("job server acknowledges shutdown");
    running.thread.join().expect("job server thread");
}

/// The same job run directly, without the service.
fn direct(tenant: &str, input: &JobInput) -> RunReport {
    let job = Job {
        id: 0,
        tenant: tenant.to_string(),
        name: input.name.clone(),
        dataset: dataset_for(tenant, input),
        options: options(),
        state: JobState::Running,
        clamped: false,
        cost: TRIALS as u64,
        error: None,
        started_at: None,
    };
    let json = run_job(&job).expect("generated job runs");
    serde_json::from_str(&json).expect("report parses")
}

/// One finished job as its tenant saw it.
struct Seen {
    job: usize,
    ack_ms: f64,
    queue_wait_ms: f64,
    turnaround_ms: f64,
    fetch_ms: f64,
    /// The canonical report, or why there is none.
    report: Result<String, String>,
}

/// One tenant: submit, watch until finished, fetch, for each job in turn.
fn tenant_loop(tenant: &str, addr: &str, jobs: &[JobInput], rec: &mut Recorder) -> Vec<Seen> {
    let client = JobClient::connect(addr.to_string());
    let root = rec.enter(&format!("tenant {tenant}"), "harness", 0);
    let mut seen = Vec::new();
    for (i, input) in jobs.iter().enumerate() {
        let dataset = dataset_for(tenant, input);
        let job = i as u32 + 1;
        let submitted_at = Instant::now();
        let span = rec.enter("jobd.submit", "jobd", job);
        let submitted = client.submit(tenant, &input.name, dataset, options());
        rec.exit(span);
        let ack_ms = submitted_at.elapsed().as_secs_f64() * 1e3;
        let mut one = Seen {
            job: i,
            ack_ms,
            queue_wait_ms: 0.0,
            turnaround_ms: 0.0,
            fetch_ms: 0.0,
            report: Err(String::new()),
        };
        let id = match submitted {
            Ok(Submitted::Accepted { id, clamped: false }) => id,
            other => {
                one.report = Err(format!("submission not accepted in full: {other:?}"));
                seen.push(one);
                continue;
            }
        };
        let acked_at = Instant::now();
        let mut left_queue: Option<Instant> = None;
        let span = rec.enter("jobd.watch", "jobd_core", job);
        let finished = client.watch(id, |line| {
            if let JobResponse::Watch { state, .. } = line {
                if left_queue.is_none() && *state != JobState::Queued {
                    left_queue = Some(Instant::now());
                }
            }
        });
        rec.exit(span);
        one.turnaround_ms = submitted_at.elapsed().as_secs_f64() * 1e3;
        one.queue_wait_ms =
            left_queue.map_or(0.0, |t| t.duration_since(acked_at).as_secs_f64() * 1e3);
        let span = rec.enter("jobd.result", "jobd", job);
        let (fetch_s, report) = timed(|| client.result(id));
        rec.exit(span);
        one.fetch_ms = fetch_s * 1e3;
        one.report = match (finished, report) {
            (Ok(JobState::Done), Ok(report)) => Ok(canonical(&report)),
            (state, report) => Err(format!("job ended {state:?}, result {:?}", report.err())),
        };
        seen.push(one);
    }
    rec.exit(root);
    seen
}

/// One pass: the three tenants side by side against one server.
fn run_pass(addr: &str, jobs: &[JobInput], rec: &mut Recorder) -> (f64, Vec<(usize, Vec<Seen>)>) {
    let (enabled, epoch) = (rec.enabled(), rec.epoch());
    let (wall_s, per_tenant) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = TENANTS
                .iter()
                .enumerate()
                .map(|(t, tenant)| {
                    scope.spawn(move || {
                        let mut own = Recorder::new(enabled, epoch, t as u32 + 1);
                        let seen = tenant_loop(tenant, addr, jobs, &mut own);
                        (seen, own)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread"))
                .collect::<Vec<_>>()
        })
    });
    let mut out = Vec::new();
    for (t, (seen, own)) in per_tenant.into_iter().enumerate() {
        rec.merge(own);
        out.push((t, seen));
    }
    (wall_s, out)
}

pub fn run(args: &RunArgs, ledger: &mut Ledger, rec: &mut Recorder) {
    let work = WorkDir::create(&args.out, &args.workload);

    // Set-up, nine times (it takes milliseconds): generate the datasets,
    // start the server.
    let (setups, (jobs, mut running)) = repeat_setup(
        args.setup_reps(9),
        6.0,
        |rep| {
            let mut jobs = inputs::table4_jobs(args.seed);
            if args.smoke {
                jobs.truncate(3);
            }
            (jobs, start_server(work.sub(&format!("jobd-{rep}"))))
        },
        |(_, running)| stop_server(running),
    );

    // Reference and warm-up in one: the jobs run directly on two threads.
    // A traced run executes all thirty so that the ratio to the service
    // compares like with like; otherwise the ten distinct ones suffice
    // (tenant c repeats a; b's bytes are a's spec materialised).
    let tenants_direct: &[&str] = if args.trace { &TENANTS } else { &TENANTS[..1] };
    let todo: Vec<(&str, &JobInput)> = jobs
        .iter()
        .flat_map(|j| tenants_direct.iter().map(move |t| (*t, j)))
        .collect();
    let (exec_direct_s, reports) = timed(|| {
        Pool::new(WIDTH).map_indexed(todo, |_, (tenant, input)| (tenant, direct(tenant, input)))
    });
    let reference: Vec<String> = reports
        .iter()
        .filter(|(t, _)| *t == "a")
        .map(|(_, r)| canonical(r))
        .collect();
    for (i, (tenant, report)) in reports.iter().enumerate() {
        let expected = &reference[i / tenants_direct.len()];
        ledger.check(&canonical(report) == expected, || {
            format!(
                "direct run of '{}' for tenant {tenant} differs from tenant a's",
                report.dataset
            )
        });
    }
    let accuracies: Vec<f64> = reports
        .iter()
        .filter(|(t, _)| *t == "a")
        .map(|(_, r)| r.best.validation_accuracy)
        .collect();
    let quality = mean(&accuracies);

    // Passes: thirty jobs each, a fresh server and directory per pass.
    let mut off = Recorder::new(false, rec.epoch(), 0);
    let (mut walls, mut all) = (Vec::new(), Vec::<(usize, Seen)>::new());
    let started = Instant::now();
    loop {
        let recorder = if args.trace { &mut *rec } else { &mut off };
        let (wall_s, per_tenant) = run_pass(&running.addr, &jobs, recorder);
        walls.push(wall_s);
        all.extend(
            per_tenant
                .into_iter()
                .flat_map(|(t, seen)| seen.into_iter().map(move |s| (t, s))),
        );
        if args.trace || !args.keep_measuring(started, walls.len()) {
            break;
        }
        stop_server(running);
        running = start_server(work.sub(&format!("jobd-pass-{}", walls.len())));
    }
    stop_server(running);

    let mut rejected = 0usize;
    for (t, seen) in &all {
        let tenant = TENANTS[*t];
        match &seen.report {
            Ok(report) => ledger.check(report == &reference[seen.job], || {
                format!(
                    "RESULT of '{}' for tenant {tenant} differs from the direct run",
                    jobs[seen.job].name
                )
            }),
            Err(why) => {
                rejected += usize::from(why.starts_with("submission"));
                ledger.check(false, || {
                    format!("'{}' for tenant {tenant}: {why}", jobs[seen.job].name)
                });
            }
        }
    }
    let column = |f: fn(&Seen) -> f64, keep: fn(usize) -> bool| -> Vec<f64> {
        all.iter()
            .filter(|(t, s)| keep(*t) && s.report.is_ok())
            .map(|(_, s)| f(s))
            .collect()
    };
    let turnaround = column(|s| s.turnaround_ms, |_| true);
    ledger.put_end_to_end(&setups, &walls, &turnaround, quality, reference.len());

    let spec_acks = column(|s| s.ack_ms, |t| t != 1);
    let csv_acks = column(|s| s.ack_ms, |t| t == 1);
    let waits = column(|s| s.queue_wait_ms, |_| true);
    let fetches = column(|s| s.fetch_ms, |_| true);
    ledger.put(
        "jobd.submit_ack_ms",
        "ms",
        median(&spec_acks),
        spec_acks.len(),
    );
    ledger.put(
        "jobd.inline_csv_ship_ms",
        "ms",
        median(&csv_acks),
        csv_acks.len(),
    );
    ledger.put("jobd.queue_wait_p50_ms", "ms", median(&waits), waits.len());
    ledger.put(
        "jobd.result_fetch_ms",
        "ms",
        median(&fetches),
        fetches.len(),
    );
    ledger.put("jobd.rejected", "count", rejected as f64, all.len());
    if args.trace {
        ledger.put("jobd.exec_direct_s", "s", exec_direct_s, reports.len());
        ledger.put(
            "jobd.service_overhead_ratio",
            "ratio",
            walls[0] / exec_direct_s,
            1,
        );
        ledger.put("harness.traced_wall_s", "s", walls[0], 1);
        offline_probes(&jobs, &work.sub("probe-journal"), ledger);
    }
}

/// The service's own steps without the service, on this workload's jobs.
fn offline_probes(jobs: &[JobInput], dir: &Path, ledger: &mut Ledger) {
    let materialize_s: f64 = jobs
        .iter()
        .map(|j| timed(|| std::hint::black_box(materialize(&dataset_for("a", j), &j.name))).0)
        .sum();
    ledger.put("jobd.materialize_s", "s", materialize_s, jobs.len());

    // Admission's journal write: one fsynced `submitted` record.
    let (mut journal, _) = Journal::open(dir, true).expect("probe journal opens");
    let appends: Vec<f64> = (0..100)
        .map(|id| {
            let record = JournalRecord::Submitted {
                id,
                tenant: "a".into(),
                name: jobs[0].name.clone(),
                dataset: dataset_for("a", &jobs[0]),
                options: options(),
                clamped: false,
                cost: TRIALS as u64,
                charged_trials: TRIALS,
                charged_secs: 0.0,
            };
            timed(|| journal.append(&record, true).expect("journal append")).0
        })
        .collect();
    ledger.put(
        "jobd.journal_append_us",
        "us",
        median(&appends) * 1e6,
        appends.len(),
    );

    // What the workers parse, and the phase-2 steps on it.
    let (parse_s, datasets) = timed(|| {
        jobs.iter()
            .map(|j| parse_csv(&j.name, &j.csv, None).expect("generated CSV parses"))
            .collect::<Vec<_>>()
    });
    let csv_mb = jobs.iter().map(|j| j.csv.len()).sum::<usize>() as f64 / 1e6;
    ledger.put("data.parse_csv_s", "s", parse_s, jobs.len());
    ledger.put(
        "data.parse_csv_mb_per_s",
        "MB/s",
        csv_mb / parse_s,
        jobs.len(),
    );
    probes::dataset_layers(ledger, &datasets.iter().collect::<Vec<_>>());
}
