//! What every workload shares: the metric and check ledgers, order
//! statistics, the process's peak memory, the work directory and the
//! environment stamp.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Busy threads a workload may use (ISSUE ground rule): pipeline width,
/// or server loop + client, or two jobd workers.
pub const WIDTH: usize = 2;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    pub trace: bool,
    /// One short pass, no steadiness: proves the harness still runs.
    pub smoke: bool,
    /// Directory for results, traces and the work directory.
    pub out: PathBuf,
    /// Fault injected into the workload's own checks, to prove they bite.
    pub inject: Option<String>,
}

impl RunArgs {
    /// How often to set up: once in a smoke or traced run, which do not
    /// report `setup_s`, else `full` times.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            full
        }
    }

    /// Whether the timed part, `started` ago with `passes` done, goes on:
    /// at least one pass, then until `seconds` have gone by.
    pub fn keep_measuring(&self, started: Instant, passes: usize) -> bool {
        passes == 0 || (!self.smoke && started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

/// Metrics and correctness checks of one run.
#[derive(Default)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the operator.
    pub failures: Vec<String>,
    /// Free-form facts for the results file (thread counts, sizes).
    pub notes: Vec<(String, Value)>,
}

impl Ledger {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            n,
        });
    }

    /// Records one checked operation; a false `ok` counts in `failed`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// The end-to-end metrics every workload reports: set-up and pass
    /// medians, the pooled latencies of the workload's operation in ms,
    /// its quality figure over `quality_n` operations, and peak memory.
    pub fn put_end_to_end(
        &mut self,
        setups: &[f64],
        walls: &[f64],
        op_ms: &[f64],
        quality: f64,
        quality_n: usize,
    ) {
        let (tail_ms, tail_p) = tail(op_ms);
        self.put("setup_s", "s", median(setups), setups.len());
        self.put("suite_wall_s", "s", median(walls), walls.len());
        self.put("op_p50_ms", "ms", median(op_ms), op_ms.len());
        self.put("op_tail_ms", "ms", tail_ms, op_ms.len());
        self.put("selection_quality", "fraction", quality, quality_n);
        self.put("peak_rss_mb", "MB", peak_rss_mb(), 1);
        self.note("op_tail_percentile", tail_p);
        self.note("pass_walls_s", serde_json::to_value(walls));
    }

    /// Counts `n` operations that completed and were verified elsewhere.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.notes.push((key.to_string(), value.into()));
    }
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean that does not depend on the order of the samples (they are summed
/// smallest first), so that a count-like mean repeats to the last digit.
pub fn mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Nearest-rank percentile of unsorted samples, `p` in `[0, 1]`. With
/// fewer than `1 / (1 - p)` samples this is the largest sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of a latency distribution: the highest percentile, up to the
/// 99th, that still has ten samples beyond it (never below the median).
/// Returns the value and the percentile used.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let p = ((n - 10.0) / n).min(0.99);
    if p <= 0.5 {
        (median(samples), 0.5)
    } else {
        (percentile(samples, p), p)
    }
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median seconds per call of `f` over `reps` calls after one warm-up.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).0).collect();
    median(&samples)
}

/// Sets up repeatedly, so that `setup_s` is a median: up to `max` times,
/// stopping once the set-ups so far have used `budget_s` seconds. A
/// product that is replaced goes to `tear_down`; the last one is returned
/// with the seconds each set-up took.
pub fn repeat_setup<T>(
    max: usize,
    budget_s: f64,
    mut set_up: impl FnMut(usize) -> T,
    mut tear_down: impl FnMut(T),
) -> (Vec<f64>, T) {
    let (first, mut product) = timed(|| set_up(0));
    let mut secs = vec![first];
    while secs.len() < max && secs.iter().sum::<f64>() < budget_s {
        tear_down(product);
        let (again, next) = timed(|| set_up(secs.len()));
        secs.push(again);
        product = next;
    }
    (secs, product)
}

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh directory under `out/work`, removed on drop. Inside the
/// checkout on purpose: WAL fsyncs hit the filesystem the results are
/// stamped with, and nothing is written outside the checkout.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(out: &Path, tag: &str) -> WorkDir {
        let dir = out
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A sub-directory that does not exist yet (servers create theirs).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
fn fs_type_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: (usize, String) = (0, "unknown".into());
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = left.split(' ').nth(4) else {
            continue;
        };
        let fs = right.split(' ').next().unwrap_or("unknown");
        if path.starts_with(mount_point) && mount_point.len() >= best.0 {
            best = (mount_point.len(), fs.to_string());
        }
    }
    best.1
}

/// The host facts a reader needs to judge whether a number transfers —
/// the fields of `scripts/bench_env.sh` plus what this harness fixes.
pub fn environment(work: &Path) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| format!("Linux {}", s.trim()));
    json!({
        "nproc": smartml_runtime::available_parallelism(),
        "affinity": proc_status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into()),
        "cpu": cpu,
        "kernel": kernel,
        "git_commit": std::env::var("SMARTML_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        "fsync_policy": "kbd WAL fsync per write, jobd journal fsync on submit/finish",
        "work_dir_fs": fs_type_of(work),
        "threads": {
            "pipeline_n_threads": WIDTH,
            "kbd_event_loops": 1,
            "kbd_clients": 1,
            "jobd_workers": WIDTH,
            "jobd_job_n_threads": 1,
            "jobd_tenant_clients": 3
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&[7.0, 9.0], 0.99), 9.0);
        assert_eq!(tail(&hundred[..30]), (20.0, 20.0 / 30.0));
        assert_eq!(tail(&hundred[..8]).1, 0.5);
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many), (4950.0, 0.99));
    }
}
