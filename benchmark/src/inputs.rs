//! Everything a workload feeds the program, generated from `--seed`: the
//! same seed gives the same datasets, knowledge base, store records,
//! query stream and op interleaving. The program sees only these.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartml::bootstrap::{bootstrap_kb_with, BootstrapProfile};
use smartml::KnowledgeBase;
use smartml_classifiers::Algorithm;
use smartml_data::io::write_csv;
use smartml_data::synth::{benchmark_suite, kb_bootstrap_corpus, SynthSpec};
use smartml_kb::{AlgorithmRun, KbEntry};
use smartml_metafeatures::{extract, MetaFeatures};
use smartml_runtime::Pool;

use crate::harness::WIDTH;

/// An independent sub-seed for one use (SplitMix64 of seed and salt).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pipeline job: a named dataset as the CSV text a user uploads, and
/// the spec it came from (jobd tenants submit the spec instead).
pub struct JobInput {
    pub name: String,
    pub csv: String,
    pub spec: SynthSpec,
    pub data_seed: u64,
}

/// The seed the paper-table binaries generate the Table-4 analogues with.
const TABLE4_DATA_SEED: u64 = 2019;

/// The ten Table-4 analogues as CSV text, in suite order starting from a
/// dataset drawn from `seed`.
///
/// The datasets themselves are fixed (AutoMLBench's protocol: fixed
/// datasets, fixed budget). A tuner's trajectory, and with it the amount
/// of work in a pass, follows the data: over ten dataset seeds a pass took
/// 5.7 to 8.2 s, which no bound below 25 % could tell from a regression.
/// The order is only rotated, not shuffled, because the job service's
/// turnaround percentiles depend on which jobs queue behind which.
pub fn table4_jobs(seed: u64) -> Vec<JobInput> {
    let mut jobs: Vec<JobInput> = benchmark_suite()
        .into_iter()
        .map(|b| JobInput {
            name: b.paper_name.to_string(),
            csv: write_csv(&b.generate(TABLE4_DATA_SEED)),
            spec: b.spec,
            data_seed: TABLE4_DATA_SEED,
        })
        .collect();
    let first = (derive(seed, 1) % jobs.len() as u64) as usize;
    jobs.rotate_left(first);
    jobs
}

/// One 8-feature, 3-class dataset of `rows` rows: 16 MB of CSV at 10⁵.
pub fn rows1e5_job(seed: u64, rows: usize) -> JobInput {
    let spec = SynthSpec::Blobs {
        n: rows,
        d: 8,
        k: 3,
        spread: 1.0,
    };
    let data_seed = derive(seed, 2);
    JobInput {
        name: "rows1e5".to_string(),
        csv: write_csv(&spec.generate("rows1e5", data_seed)),
        spec,
        data_seed,
    }
}

/// The knowledge base the paper starts from: the 50-dataset corpus at the
/// quick profile (two configurations per algorithm), on two threads. The
/// same for every seed: it decides which algorithms a job tunes. A smoke
/// run makes do with the four-algorithm test profile.
pub fn bootstrapped_kb(smoke: bool) -> KnowledgeBase {
    let profile = if smoke {
        BootstrapProfile::fast()
    } else {
        BootstrapProfile {
            configs_per_algorithm: 2,
            ..BootstrapProfile::default()
        }
    };
    bootstrap_kb_with(&profile, Pool::new(WIDTH))
}

/// Generator of knowledge-base records and queries around the 50 corpus
/// datasets' meta-features. Record `i` and every query are a corpus
/// vector moved by up to a tenth of each feature's spread over the
/// corpus, so a query's neighbourhood is the records of its own source.
pub struct KbInputs {
    sources: Vec<MetaFeatures>,
    spread: Vec<f64>,
    rng: StdRng,
}

impl KbInputs {
    pub fn new(seed: u64) -> KbInputs {
        let data_seed = derive(seed, 4);
        let sources: Vec<MetaFeatures> = kb_bootstrap_corpus()
            .iter()
            .enumerate()
            .map(|(i, (name, spec))| {
                let data = spec.generate(name, data_seed ^ i as u64);
                extract(&data, &data.all_rows())
            })
            .collect();
        let d = sources[0].values.len();
        let spread = (0..d)
            .map(|j| {
                let col: Vec<f64> = sources.iter().map(|s| s.values[j]).collect();
                let mean = col.iter().sum::<f64>() / col.len() as f64;
                (col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / col.len() as f64).sqrt()
            })
            .collect();
        KbInputs {
            sources,
            spread,
            rng: StdRng::seed_from_u64(derive(seed, 5)),
        }
    }

    fn jittered(&mut self, source: usize) -> MetaFeatures {
        let values = self.sources[source]
            .values
            .iter()
            .zip(&self.spread)
            .map(|(v, s)| v + 0.1 * s * self.rng.gen_range(-1.0..1.0))
            .collect();
        MetaFeatures { values }
    }

    /// The algorithm records of `source` rate best: what a query from
    /// that source should be told first.
    pub fn best_algorithm(source: usize) -> Algorithm {
        Algorithm::ALL[source % Algorithm::ALL.len()]
    }

    /// Record number `i`: two runs, the source's best algorithm and a
    /// runner-up, each with its default configuration as the warm start.
    pub fn record(&mut self, i: usize) -> KbEntry {
        let source = i % self.sources.len();
        let best = KbInputs::best_algorithm(source);
        let other = Algorithm::ALL[(source + 5) % Algorithm::ALL.len()];
        let run = |algorithm: Algorithm, accuracy: f64| AlgorithmRun {
            algorithm,
            config: algorithm.param_space().default_config(),
            accuracy,
        };
        let lift = self.rng.gen_range(0.0..0.05);
        KbEntry {
            dataset_id: format!("ds-{i:06}"),
            meta_features: self.jittered(source),
            landmarkers: None,
            runs: vec![run(best, 0.90 + lift), run(other, 0.60 + lift)],
        }
    }

    /// A fresh query vector and the source it was drawn around.
    pub fn query(&mut self) -> (MetaFeatures, usize) {
        let source = self.rng.gen_range(0..self.sources.len());
        (self.jittered(source), source)
    }

    /// True with probability `p` (op interleaving).
    pub fn coin(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }
}
