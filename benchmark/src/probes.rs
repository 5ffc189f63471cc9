//! Stand-alone probes of single layers: each times one public function of
//! one crate. `dataset_layers` runs on a workload's own datasets; `fixed`
//! runs on inputs of its own and reads the same on every workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::io::write_csv;
use smartml_data::synth::gaussian_blobs;
use smartml_data::{stratified_kfold, train_valid_split, Dataset};
use smartml_kb::{KnowledgeBase, QueryOptions};
use smartml_linalg::{covariance_matrix, kernels, Matrix};
use smartml_metafeatures::{extract, landmarkers};
use smartml_preprocess::{pipeline_from_ops, Op};
use smartml_runtime::Pool;
use smartml_smac::{OptOptions, Optimizer, RandomForestSurrogate, Smac, StaticObjective};
use std::hint::black_box;
use std::path::Path;

use crate::harness::{median, median_secs, timed, Ledger, WIDTH};
use crate::inputs::KbInputs;

/// `data`, `preprocess` and `metafeatures` on the datasets a workload
/// parsed, each step as the pipeline's phase 2 calls it; seconds summed
/// over the datasets.
pub fn dataset_layers(ledger: &mut Ledger, datasets: &[&Dataset]) {
    let mut sums = [0.0f64; 7];
    for data in datasets {
        sums[0] += timed(|| black_box(write_csv(data))).0;
        let (secs, (train, _valid)) = timed(|| train_valid_split(data, 0.25, 1));
        sums[1] += secs;
        sums[2] += timed(|| black_box(stratified_kfold(data, &train, 3, 1))).0;
        let (secs, fitted) = timed(|| pipeline_from_ops(&[Op::Zv]).fit(data, &train));
        sums[3] += secs;
        let fitted = fitted.expect("zero-variance filter fits");
        let (secs, applied) = timed(|| fitted.apply(data));
        sums[4] += secs;
        sums[5] += timed(|| black_box(extract(&applied, &train))).0;
        sums[6] += timed(|| black_box(landmarkers(&applied, &train))).0;
    }
    let names = [
        "data.write_csv_s",
        "data.split_s",
        "data.kfold_s",
        "preprocess.fit_s",
        "preprocess.apply_s",
        "metafeatures.extract_s",
        "metafeatures.landmarkers_s",
    ];
    for (name, secs) in names.iter().zip(sums) {
        ledger.put(*name, "s", secs, datasets.len());
    }
}

/// A knowledge base of `n` generated records (no linear-scan inserts).
fn generated_kb(inputs: &mut KbInputs, n: usize) -> KnowledgeBase {
    KnowledgeBase::from_entries((0..n).map(|i| inputs.record(i)).collect())
}

fn kb_probes(ledger: &mut Ledger, work: &Path) {
    let mut inputs = KbInputs::new(1);
    let options = QueryOptions::default();
    for (tag, n, reps) in [
        ("n1e3", 1_000, 200),
        ("n1e4", 10_000, 50),
        ("n1e5", 100_000, 10),
    ] {
        let mut kb = generated_kb(&mut inputs, n);
        let queries: Vec<_> = (0..reps).map(|_| inputs.query().0).collect();
        let mut next = queries.iter().cycle();
        let secs = median_secs(reps, || {
            black_box(kb.recommend(next.next().expect("cycle"), &options));
        });
        ledger.put(format!("kb.recommend_us.{tag}"), "us", secs * 1e6, reps);
        if n != 10_000 {
            continue;
        }
        // New ids: every insert scans all entries before appending.
        let fresh: Vec<_> = (0..51).map(|i| inputs.record(n + i)).collect();
        let mut next = fresh.iter();
        let secs = median_secs(50, || {
            let e = next.next().expect("51 records for 51 calls");
            kb.record_run(&e.dataset_id, &e.meta_features, e.runs[0].clone());
        });
        ledger.put("kb.record_run_us.n1e4", "us", secs * 1e6, 50);
        let path = work.join("probe-kb.json");
        ledger.put(
            "kb.save_s.n1e4",
            "s",
            median_secs(3, || kb.save(&path).expect("kb saves")),
            3,
        );
        let bytes = std::fs::metadata(&path).expect("saved kb").len();
        ledger.put(
            "kb.json_bytes_per_entry",
            "B",
            bytes as f64 / kb.len() as f64,
            kb.len(),
        );
        let secs = median_secs(3, || {
            black_box(KnowledgeBase::load(&path).expect("kb loads"));
        });
        ledger.put("kb.load_s.n1e4", "s", secs, 3);
    }
}

fn smac_probes(ledger: &mut Ledger) {
    let mut rng = StdRng::seed_from_u64(3);
    let xs: Vec<Vec<f64>> = (0..50)
        .map(|_| (0..6).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>() / 6.0).collect();
    let trees = Smac::default().n_surrogate_trees;
    let secs = median_secs(20, || {
        black_box(RandomForestSurrogate::fit(&xs, &ys, trees, 5));
    });
    ledger.put("smac.surrogate_fit_ms.n50", "ms", secs * 1e3, 20);
    let surrogate = RandomForestSurrogate::fit(&xs, &ys, trees, 5);
    let secs = median_secs(20, || {
        for x in &xs {
            black_box(surrogate.expected_improvement(x, 0.6, 0.01));
        }
    });
    ledger.put(
        "smac.ei_us",
        "us",
        secs * 1e6 / xs.len() as f64,
        20 * xs.len(),
    );

    // The tuner's own cost per trial: an objective that costs nothing.
    let space = Algorithm::RandomForest.param_space();
    let objective = StaticObjective {
        folds: 3,
        f: |config: &ParamConfig, fold| {
            (config.summary().len() % 17) as f64 / 17.0 + fold as f64 * 1e-3
        },
    };
    let trials = 60;
    let secs = median_secs(5, || {
        let options = OptOptions {
            max_trials: trials,
            seed: 9,
            ..OptOptions::default()
        };
        black_box(Smac::default().optimize(&space, &objective, &options));
    });
    ledger.put(
        "smac.overhead_per_trial_us",
        "us",
        secs * 1e6 / trials as f64,
        5 * trials,
    );
}

fn classifier_probes(ledger: &mut Ledger) {
    let data = gaussian_blobs("probe-600x24x4", 600, 24, 4, 1.5, 7);
    let rows = data.all_rows();
    for algorithm in Algorithm::ALL {
        let classifier = algorithm.build(&algorithm.param_space().default_config());
        let mut fits = Vec::new();
        let mut model = None;
        for _ in 0..3 {
            let (secs, fitted) = timed(|| classifier.fit(&data, &rows));
            fits.push(secs);
            model = Some(fitted.expect("default configuration fits the probe dataset"));
        }
        let model = model.expect("three fits");
        let name = algorithm.paper_name();
        ledger.put(
            format!("classifiers.fit_ms.{name}"),
            "ms",
            median(&fits) * 1e3,
            3,
        );
        let secs = median_secs(3, || {
            black_box(model.predict(&data, &rows));
        });
        ledger.put(
            format!("classifiers.predict_ms.{name}"),
            "ms",
            secs * 1e3,
            3,
        );
    }
}

fn linalg_probes(ledger: &mut Ledger) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut random = |rows: usize, cols: usize| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    };
    let (a, b) = (random(256, 256), random(256, 256));
    let secs = median_secs(9, || {
        black_box(a.matmul(&b));
    });
    ledger.put("linalg.matmul_ms.n256", "ms", secs * 1e3, 9);
    let x = random(2000, 64);
    let secs = median_secs(9, || {
        black_box(covariance_matrix(&x));
    });
    ledger.put("linalg.covariance_ms", "ms", secs * 1e3, 9);
    let pairs = 2000 * 50;
    let secs = median_secs(9, || {
        for i in 0..2000 {
            for j in 0..50 {
                black_box(kernels::squared_distance(x.row(i), x.row(j)));
            }
        }
    });
    ledger.put(
        "linalg.sqdist_ns.d64",
        "ns",
        secs * 1e9 / pairs as f64,
        9 * pairs,
    );
}

fn runtime_probes(ledger: &mut Ledger) {
    let tasks = 20_000;
    let secs = median_secs(9, || {
        black_box(Pool::new(WIDTH).map_range(tasks, |i| i.wrapping_mul(31)));
    });
    ledger.put(
        "runtime.map_overhead_us_per_task",
        "us",
        secs * 1e6 / tasks as f64,
        9 * tasks,
    );
}

/// The probes that run on inputs of their own.
pub fn fixed(ledger: &mut Ledger, work: &Path) {
    kb_probes(ledger, work);
    smac_probes(ledger);
    classifier_probes(ledger);
    linalg_probes(ledger);
    runtime_probes(ledger);
}
