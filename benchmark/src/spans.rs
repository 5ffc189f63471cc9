//! Harness spans: recorded from outside, around calls into public
//! functions, kept in memory and written as one Chrome trace per workload.
//!
//! A span's layer is the crate that owns the call. Self time is a span's
//! duration minus the part of it its child spans cover, so the self times
//! of one thread's spans add up to that thread's root spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    /// The job (or op batch) the span belongs to; spans of one request
    /// share it.
    pub job: u32,
    pub tid: u32,
    /// False for spans copied from the program's own trace for display
    /// only (worker-thread trials and folds overlap their phase span).
    pub accounted: bool,
}

/// Handle of an open span; `Recorder::exit` closes it.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder of one thread. Disabled, every call is a branch.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            enabled,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn enter(&mut self, name: &str, layer: &'static str, job: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            job,
            tid: self.tid,
            accounted: true,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_us = self.now_us();
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Copies the program's own trace of one `SmartML::run` under the
    /// harness span `run_span` that timed the call. The program's root
    /// `run` span and its phase spans were recorded on the calling
    /// thread, back to back, so they are accounted as children; trials,
    /// folds and fits run on pool threads and are kept for display.
    pub fn import_run(&mut self, run_span: Open, trace: &smartml_obs::Trace) {
        let Open(Some(parent)) = run_span else { return };
        let Some(root) = trace.spans.iter().find(|s| s.name == "run") else {
            return;
        };
        let offset = self.spans[parent].start_us as i64 - root.start_us as i64;
        let job = self.spans[parent].job;
        for s in &trace.spans {
            if s.name == "run" {
                continue;
            }
            let is_phase =
                s.tid == root.tid && s.name.starts_with("phase") && s.name != "phase4.tune";
            let start_us = (s.start_us as i64 + offset).max(0) as u64;
            self.spans.push(Span {
                name: if s.args.is_empty() {
                    s.name.to_string()
                } else {
                    format!("{} {}", s.name, s.args)
                },
                layer: layer_of_program_span(s.name),
                start_us,
                end_us: start_us + s.dur_us,
                parent: is_phase.then_some(parent),
                job,
                // Program thread numbers start at 1; keep them apart from
                // harness threads.
                tid: if is_phase {
                    self.tid
                } else {
                    100 + s.tid as u32
                },
                accounted: is_phase,
            });
        }
    }

    /// Appends another thread's spans (their parents stay within them).
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self seconds per layer over the accounted spans, and the share of
    /// the root spans' time those self times add up to (1.0 when every
    /// microsecond of a root is attributed exactly once).
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in self.spans.iter().filter(|s| s.accounted) {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut self_total, mut root_total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.accounted) {
            let dur = s.end_us - s.start_us;
            let mut covered = 0u64;
            let mut reach = s.start_us;
            children[i].sort_unstable();
            for &(a, b) in &children[i] {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = dur - covered;
            *by_layer.entry(s.layer).or_default() += own as f64 / 1e6;
            self_total += own;
            if s.parent.is_none() {
                root_total += dur;
            }
        }
        let coverage = if root_total == 0 {
            1.0
        } else {
            self_total as f64 / root_total as f64
        };
        (by_layer, coverage)
    }

    /// Total seconds and count of the accounted spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let hits = self.spans.iter().filter(|s| s.accounted && s.name == name);
        hits.fold((0.0, 0), |(t, n), s| {
            (t + (s.end_us - s.start_us) as f64 / 1e6, n + 1)
        })
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"job\":{}}}}}",
                serde_json::to_string(&s.name).expect("string encodes"),
                s.layer,
                s.tid,
                s.start_us,
                s.end_us - s.start_us,
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.job
            ));
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

fn layer_of_program_span(name: &str) -> &'static str {
    match name {
        "phase2.preprocess" => "preprocess_metafeatures",
        "phase3.select" => "kb",
        "phase4.tune_all" | "phase4.tune" => "smac_classifiers",
        "phase5.output" => "core",
        "clf.fit" => "classifiers",
        n if n.starts_with("smac.") => "smac",
        n if n.starts_with("runtime.") => "runtime",
        _ => "core",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_roots() {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        let root = rec.enter("pass", "harness", 0);
        let a = rec.enter("a", "data", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(a);
        let b = rec.enter("b", "core", 1);
        let c = rec.enter("c", "kb", 1);
        rec.exit(c);
        rec.exit(b);
        rec.exit(root);
        let (layers, coverage) = rec.self_times();
        assert!((coverage - 1.0).abs() < 1e-9, "coverage {coverage}");
        assert!(layers["data"] >= 0.002);
        assert_eq!(rec.total("a").1, 1);
    }
}
