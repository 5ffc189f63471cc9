//! Criterion micro-benchmarks for SmartML's hot paths: meta-feature
//! extraction, KB similarity queries, SMAC iterations on a synthetic
//! objective, and representative classifier fits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smartml::bootstrap::{bootstrap_dataset, BootstrapProfile};
use smartml::KnowledgeBase;
use smartml_classifiers::{Algorithm, ParamConfig};
use smartml_data::synth::{gaussian_blobs, SynthSpec};
use smartml_kb::QueryOptions;
use smartml_metafeatures::extract;
use smartml_runtime::Pool;
use smartml_smac::{
    ClassifierObjective, Objective, OptOptions, Optimizer, RandomForestSurrogate, RandomSearch,
    Smac, StaticObjective, Tpe,
};

fn bench_metafeatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("metafeatures");
    for &(n, d) in &[(200usize, 8usize), (500, 16), (500, 48)] {
        let data = gaussian_blobs("mf", n, d, 4, 1.0, 1);
        let rows = data.all_rows();
        group.bench_with_input(BenchmarkId::new("extract", format!("{n}x{d}")), &(), |b, _| {
            b.iter(|| extract(&data, &rows))
        });
    }
    group.finish();
}

fn bench_kb_query(c: &mut Criterion) {
    let mut kb = KnowledgeBase::new();
    let profile = BootstrapProfile::fast();
    for i in 0..50u64 {
        let data = SynthSpec::Blobs { n: 80, d: 4, k: 2, spread: 1.0 }
            .generate(&format!("kb{i}"), i);
        bootstrap_dataset(&mut kb, &data, &profile);
    }
    let query = extract(
        &gaussian_blobs("q", 100, 4, 2, 1.0, 99),
        &(0..100).collect::<Vec<_>>(),
    );
    c.bench_function("kb/recommend_50_datasets", |b| {
        b.iter(|| kb.recommend(&query, &QueryOptions::default()))
    });
}

fn bench_optimizers(c: &mut Criterion) {
    let space = Algorithm::Svm.param_space();
    let objective = StaticObjective {
        folds: 3,
        f: |cfg: &ParamConfig, fold| {
            // Cheap smooth surrogate of a tuning landscape.
            let cost = cfg.f64_or("cost", 1.0).ln();
            let gamma = cfg.f64_or("gamma", 0.1).ln();
            1.0 / (1.0 + (cost - 1.5).powi(2) * 0.1 + (gamma + 2.0).powi(2) * 0.1)
                + fold as f64 * 1e-3
        },
    };
    let options = OptOptions { max_trials: 30, ..Default::default() };
    let mut group = c.benchmark_group("optimizer/30_trials_svm_space");
    group.bench_function("smac", |b| {
        b.iter(|| Smac::default().optimize(&space, &objective, &options))
    });
    group.bench_function("tpe", |b| {
        b.iter(|| Tpe::default().optimize(&space, &objective, &options))
    });
    group.bench_function("random", |b| {
        b.iter(|| RandomSearch.optimize(&space, &objective, &options))
    });
    group.finish();
}

fn bench_classifier_fits(c: &mut Criterion) {
    let data = gaussian_blobs("fit", 300, 8, 3, 1.0, 5);
    let rows = data.all_rows();
    let mut group = c.benchmark_group("classifier/fit_300x8");
    for alg in [
        Algorithm::Knn,
        Algorithm::NaiveBayes,
        Algorithm::Rpart,
        Algorithm::J48,
        Algorithm::RandomForest,
        Algorithm::Lda,
        Algorithm::Svm,
    ] {
        let config = alg.param_space().default_config();
        group.bench_function(alg.paper_name(), |b| {
            b.iter(|| alg.build(&config).fit(&data, &rows).unwrap())
        });
    }
    group.finish();
}

fn bench_predictions(c: &mut Criterion) {
    let data = gaussian_blobs("pred", 400, 8, 3, 1.0, 6);
    let (train, test): (Vec<usize>, Vec<usize>) = (0..400).partition(|i| i % 2 == 0);
    let model = Algorithm::RandomForest
        .build(&Algorithm::RandomForest.param_space().default_config())
        .fit(&data, &train)
        .unwrap();
    c.bench_function("classifier/predict_forest_200rows", |b| {
        b.iter(|| model.predict(&data, &test))
    });
}

fn bench_pool_overhead(c: &mut Criterion) {
    // Dispatch cost of the scoped pool on trivially small tasks — the
    // fixed price every parallel path pays per map call.
    let items: Vec<u64> = (0..64).collect();
    let mut group = c.benchmark_group("runtime/map_64_trivial_tasks");
    for (name, pool) in [("serial", Pool::serial()), ("4_threads", Pool::new(4))] {
        group.bench_function(name, |b| {
            b.iter(|| pool.map_indexed(items.clone(), |_, x| x.wrapping_mul(0x9e37_79b9)))
        });
    }
    group.finish();
}

fn bench_surrogate_fit(c: &mut Criterion) {
    // RF surrogate growth: per-tree work is independent, so this is the
    // cleanest parallel speedup in the tuner.
    let xs: Vec<Vec<f64>> = (0..120)
        .map(|i| (0..6).map(|j| ((i * 7 + j * 13) % 100) as f64 / 100.0).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>() / 6.0).collect();
    let mut group = c.benchmark_group("surrogate/fit_120x6_40_trees");
    for (name, pool) in [("serial", Pool::serial()), ("4_threads", Pool::new(4))] {
        group.bench_function(name, |b| {
            b.iter(|| RandomForestSurrogate::fit_with(&xs, &ys, 40, 5, &pool))
        });
    }
    group.finish();
}

fn bench_parallel_folds(c: &mut Criterion) {
    // Full 4-fold CV evaluation of one configuration: the unit of work the
    // intensification race speculates on. A fresh objective per iteration
    // keeps the fold memo cache cold.
    let data = gaussian_blobs("folds", 400, 8, 3, 1.0, 4);
    let rows = data.all_rows();
    let config = Algorithm::RandomForest.param_space().default_config();
    let mut group = c.benchmark_group("objective/4_fold_forest_eval");
    for (name, pool) in [("serial", Pool::serial()), ("4_threads", Pool::new(4))] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let obj = ClassifierObjective::new(Algorithm::RandomForest, &data, &rows, 4, 7);
                obj.evaluate_full_with(&config, &pool)
            })
        });
    }
    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    // Instrumentation cost with observability off — the price every hot
    // path pays unconditionally. The standalone `obs_overhead` bin gates
    // the disabled counter path at 5 ns/op; this group tracks the same
    // paths under criterion. Batches of 1000 ops per iteration keep the
    // per-op cost above timer resolution.
    use smartml_obs::{span, Counter, Histogram};
    static C_OFF: Counter = Counter::new("bench.micro.counter");
    static H_OFF: Histogram = Histogram::new("bench.micro.histogram");
    smartml_obs::disable_metrics();
    smartml_obs::disable_tracing();
    let mut group = c.benchmark_group("obs/disabled_1000_ops");
    group.bench_function("counter_inc", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                std::hint::black_box(&C_OFF).inc();
            }
        })
    });
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                std::hint::black_box(&H_OFF).record(i);
            }
        })
    });
    group.bench_function("span_enter_drop", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                let g = span!("bench.micro.span", i = i);
                std::hint::black_box(&g);
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_metafeatures, bench_kb_query, bench_optimizers,
              bench_classifier_fits, bench_predictions, bench_pool_overhead,
              bench_surrogate_fit, bench_parallel_folds, bench_obs_overhead
}
criterion_main!(benches);
