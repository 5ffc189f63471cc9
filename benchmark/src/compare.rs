//! `--compare A.json B.json`: applies the bounds of `BENCHMARK.json` to two
//! results files (A the baseline, B the candidate) and prints one row per
//! workload and metric. It is how "two sets of runs of the same commit
//! agree" is checked, and how a later change shows it regressed nothing.

use serde_json::Value;
use std::collections::BTreeMap;

use crate::harness::median;
use crate::Declared;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the acceptance
/// procedure uses.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 with one run.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// `workload -> metric -> one value per run`, from a `results.json`.
fn load(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (workload, runs) in v["workloads"]
        .as_object()
        .ok_or(format!("{path}: no workloads"))?
    {
        for run in runs.as_array().into_iter().flatten() {
            for (name, m) in run["metrics"].as_object().into_iter().flatten() {
                if let Some(value) = m["value"].as_f64() {
                    out.entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(out)
}

pub fn run(declared: &Declared, files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare needs exactly two results files".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<28} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    for (workload, metrics) in &a {
        // End-to-end metrics against their bounds; counts the program makes
        // must repeat exactly.
        let counts = declared
            .per_layer
            .iter()
            .filter(|(_, unit, ..)| unit == "count");
        for (name, _, better, bound) in declared.end_to_end.iter().chain(counts) {
            let (Some(va), Some(vb)) =
                (metrics.get(name), b.get(workload).and_then(|m| m.get(name)))
            else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = match (ma == 0.0, better.as_str()) {
                (true, _) => (mb - ma).abs(),
                (false, "lower") => (mb - ma) / ma,
                (false, _) => (ma - mb) / ma,
            };
            let widest = spread(va).max(spread(vb));
            let verdict = if worse > *bound {
                regressed = true;
                "regressed"
            } else if widest > *bound {
                "unresolved"
            } else {
                "ok"
            };
            println!("{workload:<16} {name:<28} {ma:>12.5} {mb:>12.5} {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}", worse * 100.0, widest * 100.0, bound * 100.0);
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
