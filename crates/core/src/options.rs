//! Run options — the knobs of the paper's input-definition screen
//! (Figure 2): preprocessing, feature selection, ensembling,
//! interpretability, time budget, validation split.

use smartml_preprocess::Op;
use std::path::PathBuf;
use std::time::Duration;

/// Where a knowledge base lives, parsed from a CLI/user spec string:
///
/// - `path/to/kb.json` — single-file JSON store (the default),
/// - `wal:DIR` — durable write-ahead-logged store in `DIR`,
/// - `tcp:HOST:PORT[,HOST:PORT...]` — remote `smartmld` server, with
///   optional read replicas after the primary for client failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbSource {
    /// Single-file JSON persistence (`KnowledgeBase::load`/`save`).
    File(PathBuf),
    /// WAL-backed durable store directory (`smartml-kbd::ShardedKb`).
    Wal(PathBuf),
    /// Remote `smartmld` endpoints — primary first, then read replicas —
    /// as one comma-separated string (`smartml-kbd::KbClient` syntax).
    Remote(String),
}

impl KbSource {
    /// Parses a spec string. `wal:` and `tcp:` prefixes select the
    /// durable and remote backends; anything else is a plain file path.
    /// A `tcp:` spec may list several comma-separated `HOST:PORT`
    /// endpoints; each is validated, the first is the write primary.
    pub fn parse(spec: &str) -> Result<KbSource, String> {
        if let Some(dir) = spec.strip_prefix("wal:") {
            if dir.is_empty() {
                return Err("wal: spec needs a directory, e.g. wal:kb-dir".into());
            }
            return Ok(KbSource::Wal(PathBuf::from(dir)));
        }
        if let Some(addrs) = spec.strip_prefix("tcp:") {
            let endpoints: Vec<&str> =
                addrs.split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
            if endpoints.is_empty() {
                return Err(
                    "tcp: spec needs HOST:PORT[,HOST:PORT...], e.g. tcp:127.0.0.1:7878".into()
                );
            }
            for addr in &endpoints {
                if addr.rsplit_once(':').map_or(true, |(h, p)| {
                    h.is_empty() || p.parse::<u16>().is_err()
                }) {
                    return Err(format!(
                        "tcp: spec needs HOST:PORT per endpoint, got {addr:?} \
                         (e.g. tcp:127.0.0.1:7878 or tcp:primary:7878,replica:7879)"
                    ));
                }
            }
            return Ok(KbSource::Remote(endpoints.join(",")));
        }
        if spec.is_empty() {
            return Err("empty knowledge-base spec".into());
        }
        Ok(KbSource::File(PathBuf::from(spec)))
    }
}

impl std::fmt::Display for KbSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KbSource::File(p) => write!(f, "{}", p.display()),
            KbSource::Wal(d) => write!(f, "wal:{}", d.display()),
            KbSource::Remote(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Tuning budget: the paper uses wall-clock ("the time budget constraint
/// specified by the end user"); a trial budget gives deterministic tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Total configuration evaluations across all algorithms.
    Trials(usize),
    /// Total wall-clock time across all algorithms.
    Time(Duration),
}

impl Budget {
    /// A per-algorithm share of this budget given its weight fraction.
    pub(crate) fn share(&self, fraction: f64) -> Budget {
        let fraction = if fraction.is_finite() { fraction.clamp(0.0, 1.0) } else { 0.0 };
        match *self {
            Budget::Trials(t) => {
                Budget::Trials(((t as f64 * fraction).round() as usize).max(3))
            }
            Budget::Time(d) => Budget::Time(Duration::from_secs_f64(
                (d.as_secs_f64() * fraction).max(0.05),
            )),
        }
    }

    /// The trial count, for trial budgets.
    pub fn trials(&self) -> Option<usize> {
        match *self {
            Budget::Trials(t) => Some(t),
            Budget::Time(_) => None,
        }
    }

    /// The wall-clock allowance, for time budgets.
    pub fn duration(&self) -> Option<Duration> {
        match *self {
            Budget::Trials(_) => None,
            Budget::Time(d) => Some(d),
        }
    }
}

/// Which hyperparameter optimiser Phase 4 runs for every nominated
/// algorithm. All choices share the `Optimizer` interface, the fault
/// breakers, and the fold-evaluation budget currency, so they are drop-in
/// swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerChoice {
    /// SMAC (the paper's tuner): RF surrogate + expected improvement +
    /// intensification racing.
    #[default]
    Smac,
    /// Exhaustive grid over each dimension.
    Grid,
    /// Pure random search.
    Random,
    /// Tree-structured Parzen estimator.
    Tpe,
    /// Synchronous successive halving: one cohort raced through rungs of
    /// η-increasing fidelity.
    Halving,
    /// Hyperband: a sweep of successive-halving brackets at staggered
    /// starting fidelities.
    Hyperband,
    /// Asynchronous successive halving: barrier-free rung promotion, every
    /// worker busy until the budget is spent.
    Asha,
}

impl OptimizerChoice {
    /// Parses a CLI/JSON name (case-insensitive).
    pub fn parse(name: &str) -> Result<OptimizerChoice, String> {
        match name.to_ascii_lowercase().as_str() {
            "smac" => Ok(OptimizerChoice::Smac),
            "grid" => Ok(OptimizerChoice::Grid),
            "random" => Ok(OptimizerChoice::Random),
            "tpe" => Ok(OptimizerChoice::Tpe),
            "halving" => Ok(OptimizerChoice::Halving),
            "hyperband" => Ok(OptimizerChoice::Hyperband),
            "asha" => Ok(OptimizerChoice::Asha),
            other => Err(format!(
                "unknown optimizer {other:?} \
                 (expected smac, grid, random, tpe, halving, hyperband or asha)"
            )),
        }
    }

    /// The canonical lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerChoice::Smac => "smac",
            OptimizerChoice::Grid => "grid",
            OptimizerChoice::Random => "random",
            OptimizerChoice::Tpe => "tpe",
            OptimizerChoice::Halving => "halving",
            OptimizerChoice::Hyperband => "hyperband",
            OptimizerChoice::Asha => "asha",
        }
    }
}

impl std::fmt::Display for OptimizerChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Options for a SmartML run.
#[derive(Debug, Clone)]
pub struct SmartMlOptions {
    /// Preprocessing operations applied before modelling (paper Table 2).
    pub preprocessing: Vec<Op>,
    /// Keep only the top-k features by mutual information (None = keep all).
    pub feature_selection: Option<usize>,
    /// Fraction of rows held out for validation.
    pub valid_fraction: f64,
    /// Number of algorithms the KB nominates.
    pub top_n_algorithms: usize,
    /// Neighbour datasets consulted during selection.
    pub n_neighbors: usize,
    /// Total tuning budget, divided among nominated algorithms
    /// proportionally to their hyperparameter counts.
    pub budget: Budget,
    /// Inner cross-validation folds used by the tuner.
    pub cv_folds: usize,
    /// Build a validation-weighted ensemble of the finalists.
    pub ensembling: bool,
    /// Compute permutation feature importance for the winner.
    pub interpretability: bool,
    /// Extend KB similarity with landmarker accuracies (extension over the
    /// paper; see the `ablation_similarity` bench).
    pub use_landmarkers: bool,
    /// Record results back into the knowledge base.
    pub update_kb: bool,
    /// Master seed (splits, tuner, ensemble).
    pub seed: u64,
    /// Worker threads for tuning, CV folds, the surrogate and
    /// interpretability (`0` = all available cores, `1` = serial). Every
    /// parallel path is deterministic: results are identical for any
    /// thread count at a fixed seed.
    pub n_threads: usize,
    /// Per-trial watchdog deadline: a single configuration evaluation that
    /// runs longer is marked `TimedOut` and abandoned cooperatively
    /// (`None` = no per-trial limit).
    pub trial_timeout: Option<Duration>,
    /// Circuit breaker: after this many *consecutive* faulted trials
    /// (panic / timeout / non-finite score) an algorithm is tripped and
    /// its remaining budget is reallocated to the survivors (`0` =
    /// breakers disabled).
    pub breaker_threshold: usize,
    /// Record structured spans for the run and attach a "Where the time
    /// went" timeline to the report. Off by default: the disabled path is
    /// a single atomic load per instrumentation site and the report is
    /// byte-identical to a build without observability.
    pub trace: bool,
    /// Hyperparameter optimiser used in Phase 4 (default: SMAC, the
    /// paper's choice).
    pub optimizer: OptimizerChoice,
    /// Reduction factor η for the multi-fidelity optimisers (halving,
    /// Hyperband, ASHA): each rung keeps the top `1/η` of its cohort.
    /// Must be ≥ 2; ignored by the other optimisers.
    pub halving_eta: usize,
    /// Capacity of the span-ring trace buffer while `trace` is on.
    /// `None` falls back to the `SMARTML_TRACE_RING` environment
    /// variable, then to the obs default (262 144 spans). Long-running
    /// resident sessions (the job service) raise this so a whole job's
    /// spans fit; the overwrite-oldest + dropped-counter semantics are
    /// unchanged at any capacity.
    pub trace_ring_capacity: Option<usize>,
}

impl Default for SmartMlOptions {
    fn default() -> Self {
        SmartMlOptions {
            preprocessing: vec![Op::Zv],
            feature_selection: None,
            valid_fraction: 0.25,
            top_n_algorithms: 3,
            n_neighbors: 5,
            budget: Budget::Trials(30),
            cv_folds: 3,
            ensembling: false,
            interpretability: false,
            use_landmarkers: false,
            update_kb: true,
            seed: 42,
            n_threads: 0,
            trial_timeout: None,
            breaker_threshold: 5,
            trace: false,
            optimizer: OptimizerChoice::Smac,
            halving_eta: 2,
            trace_ring_capacity: None,
        }
    }
}

impl SmartMlOptions {
    /// Sets the tuning budget (builder style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the preprocessing pipeline.
    pub fn with_preprocessing(mut self, ops: Vec<Op>) -> Self {
        self.preprocessing = ops;
        self
    }

    /// Enables ensembling.
    pub fn with_ensembling(mut self, on: bool) -> Self {
        self.ensembling = on;
        self
    }

    /// Enables interpretability output.
    pub fn with_interpretability(mut self, on: bool) -> Self {
        self.interpretability = on;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many algorithms are nominated.
    pub fn with_top_n(mut self, n: usize) -> Self {
        self.top_n_algorithms = n.max(1);
        self
    }

    /// Sets the worker-thread count (`0` = all cores, `1` = serial).
    pub fn with_n_threads(mut self, n: usize) -> Self {
        self.n_threads = n;
        self
    }

    /// Sets the per-trial watchdog deadline.
    pub fn with_trial_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.trial_timeout = timeout;
        self
    }

    /// Sets the circuit-breaker threshold (`0` = disabled).
    pub fn with_breaker_threshold(mut self, k: usize) -> Self {
        self.breaker_threshold = k;
        self
    }

    /// Enables span tracing and timeline attribution for the run.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Selects the Phase-4 hyperparameter optimiser.
    pub fn with_optimizer(mut self, optimizer: OptimizerChoice) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets the multi-fidelity reduction factor η (validated ≥ 2).
    pub fn with_halving_eta(mut self, eta: usize) -> Self {
        self.halving_eta = eta;
        self
    }

    /// Sets the span-ring capacity used while tracing (`None` = env /
    /// obs default).
    pub fn with_trace_ring_capacity(mut self, capacity: Option<usize>) -> Self {
        self.trace_ring_capacity = capacity;
        self
    }

    /// The span-ring capacity a run should trace with: the explicit
    /// option wins, then a parseable `SMARTML_TRACE_RING` environment
    /// variable, then `None` (the obs default).
    pub fn resolved_trace_ring_capacity(&self) -> Option<usize> {
        self.trace_ring_capacity.or_else(|| {
            std::env::var("SMARTML_TRACE_RING").ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
        })
    }

    /// Checks the options for values that would make a run meaningless or
    /// crash mid-pipeline. Called by `SmartML::run` before any work, so a
    /// malformed request surfaces as an error instead of an abort.
    pub fn validate(&self) -> Result<(), String> {
        if !self.valid_fraction.is_finite() || !(0.0..1.0).contains(&self.valid_fraction) {
            return Err(format!(
                "valid_fraction must be in [0, 1), got {}",
                self.valid_fraction
            ));
        }
        if self.cv_folds < 2 {
            return Err(format!("cv_folds must be at least 2, got {}", self.cv_folds));
        }
        if self.top_n_algorithms == 0 {
            return Err("top_n_algorithms must be at least 1".into());
        }
        match self.budget {
            Budget::Trials(0) => return Err("trial budget must be non-zero".into()),
            Budget::Time(d) if d.is_zero() => {
                return Err("time budget must be non-zero".into());
            }
            _ => {}
        }
        if let Some(t) = self.trial_timeout {
            if t.is_zero() {
                return Err("trial_timeout must be non-zero when set".into());
            }
        }
        if self.halving_eta < 2 {
            return Err(format!(
                "halving_eta must be at least 2, got {}",
                self.halving_eta
            ));
        }
        if self.trace_ring_capacity == Some(0) {
            return Err("trace_ring_capacity must be non-zero when set".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let opts = SmartMlOptions::default()
            .with_budget(Budget::Trials(99))
            .with_ensembling(true)
            .with_top_n(5)
            .with_seed(7)
            .with_n_threads(2);
        assert_eq!(opts.budget, Budget::Trials(99));
        assert!(opts.ensembling);
        assert_eq!(opts.top_n_algorithms, 5);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.n_threads, 2);
    }

    #[test]
    fn trace_ring_capacity_resolution_order() {
        // Explicit option wins over the environment.
        std::env::set_var("SMARTML_TRACE_RING", "1024");
        let explicit = SmartMlOptions::default().with_trace_ring_capacity(Some(64));
        assert_eq!(explicit.resolved_trace_ring_capacity(), Some(64));
        // Without the option the env value is used.
        let from_env = SmartMlOptions::default();
        assert_eq!(from_env.resolved_trace_ring_capacity(), Some(1024));
        // Garbage and zero env values fall through to the obs default.
        std::env::set_var("SMARTML_TRACE_RING", "not-a-number");
        assert_eq!(from_env.resolved_trace_ring_capacity(), None);
        std::env::set_var("SMARTML_TRACE_RING", "0");
        assert_eq!(from_env.resolved_trace_ring_capacity(), None);
        std::env::remove_var("SMARTML_TRACE_RING");
        assert_eq!(from_env.resolved_trace_ring_capacity(), None);
        // A zero capacity is rejected at validation, not at trace time.
        let zero = SmartMlOptions::default().with_trace_ring_capacity(Some(0));
        assert!(zero.validate().is_err());
    }

    #[test]
    fn kb_source_parses_all_schemes() {
        assert_eq!(
            KbSource::parse("kb.json").unwrap(),
            KbSource::File(PathBuf::from("kb.json"))
        );
        assert_eq!(
            KbSource::parse("wal:my-kb").unwrap(),
            KbSource::Wal(PathBuf::from("my-kb"))
        );
        assert_eq!(
            KbSource::parse("tcp:127.0.0.1:7878").unwrap(),
            KbSource::Remote("127.0.0.1:7878".into())
        );
        assert!(KbSource::parse("wal:").is_err());
        assert!(KbSource::parse("tcp:nohost").is_err());
        assert!(KbSource::parse("tcp::99").is_err());
        assert!(KbSource::parse("").is_err());
        assert_eq!(KbSource::parse("wal:d").unwrap().to_string(), "wal:d");
        assert_eq!(
            KbSource::parse("tcp:localhost:1234").unwrap().to_string(),
            "tcp:localhost:1234"
        );
    }

    #[test]
    fn kb_source_parses_replica_sets() {
        assert_eq!(
            KbSource::parse("tcp:primary:7878,replica:7879, replica2:7880").unwrap(),
            KbSource::Remote("primary:7878,replica:7879,replica2:7880".into())
        );
        assert_eq!(
            KbSource::parse("tcp:a:1,b:2").unwrap().to_string(),
            "tcp:a:1,b:2",
            "round-trips through Display"
        );
        // Every endpoint is validated, not just the first.
        assert!(KbSource::parse("tcp:a:1,nohost").is_err());
        assert!(KbSource::parse("tcp:a:1,:9").is_err());
        assert!(KbSource::parse("tcp:,").is_err());
    }

    #[test]
    fn budget_share_floors() {
        assert_eq!(Budget::Trials(100).share(0.5), Budget::Trials(50));
        assert_eq!(Budget::Trials(10).share(0.01), Budget::Trials(3));
        let d = Budget::Time(Duration::from_secs(10))
            .share(0.25)
            .duration()
            .expect("time budgets share into time budgets");
        assert!((d.as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn budget_share_survives_degenerate_fractions() {
        // A NaN or out-of-range fraction collapses to the floor share
        // instead of panicking inside Duration::from_secs_f64.
        assert_eq!(Budget::Trials(100).share(f64::NAN), Budget::Trials(3));
        assert_eq!(Budget::Trials(100).share(-1.0), Budget::Trials(3));
        let d = Budget::Time(Duration::from_secs(10))
            .share(f64::INFINITY)
            .duration()
            .unwrap();
        assert!((d.as_secs_f64() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn budget_accessors() {
        assert_eq!(Budget::Trials(7).trials(), Some(7));
        assert_eq!(Budget::Trials(7).duration(), None);
        assert_eq!(Budget::Time(Duration::from_secs(3)).trials(), None);
        assert_eq!(
            Budget::Time(Duration::from_secs(3)).duration(),
            Some(Duration::from_secs(3))
        );
    }

    #[test]
    fn validate_rejects_malformed_options() {
        assert!(SmartMlOptions::default().validate().is_ok());
        let mut o = SmartMlOptions::default();
        o.valid_fraction = f64::NAN;
        assert!(o.validate().is_err());
        o.valid_fraction = 1.0;
        assert!(o.validate().is_err());
        let mut o = SmartMlOptions::default();
        o.cv_folds = 1;
        assert!(o.validate().is_err());
        let mut o = SmartMlOptions::default();
        o.budget = Budget::Trials(0);
        assert!(o.validate().is_err());
        let mut o = SmartMlOptions::default();
        o.budget = Budget::Time(Duration::ZERO);
        assert!(o.validate().is_err());
        let mut o = SmartMlOptions::default();
        o.trial_timeout = Some(Duration::ZERO);
        assert!(o.validate().is_err());
        let mut o = SmartMlOptions::default();
        o.top_n_algorithms = 0;
        assert!(o.validate().is_err());
        let mut o = SmartMlOptions::default();
        o.halving_eta = 1;
        assert!(o.validate().is_err());
        o.halving_eta = 3;
        assert!(o.validate().is_ok());
    }

    #[test]
    fn optimizer_choice_parses_all_names() {
        for (name, choice) in [
            ("smac", OptimizerChoice::Smac),
            ("grid", OptimizerChoice::Grid),
            ("random", OptimizerChoice::Random),
            ("tpe", OptimizerChoice::Tpe),
            ("halving", OptimizerChoice::Halving),
            ("Hyperband", OptimizerChoice::Hyperband),
            ("ASHA", OptimizerChoice::Asha),
        ] {
            assert_eq!(OptimizerChoice::parse(name).unwrap(), choice);
        }
        assert!(OptimizerChoice::parse("bayesopt").is_err());
        assert_eq!(OptimizerChoice::Asha.to_string(), "asha");
        assert_eq!(
            OptimizerChoice::parse(OptimizerChoice::Hyperband.name()).unwrap(),
            OptimizerChoice::Hyperband
        );
    }

    #[test]
    fn optimizer_builders_chain() {
        let opts = SmartMlOptions::default()
            .with_optimizer(OptimizerChoice::Asha)
            .with_halving_eta(3);
        assert_eq!(opts.optimizer, OptimizerChoice::Asha);
        assert_eq!(opts.halving_eta, 3);
    }
}
