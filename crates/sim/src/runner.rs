//! Convenience runners: one workload × one configuration → one summary.

use crate::machine::Machine;
use ifence_stats::RunSummary;
use ifence_types::{BoxedSource, EmptySource, EngineKind, MachineConfig, ProgramSource};
use ifence_workloads::{LitmusTest, Workload};

/// Parameters of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Instructions per core (the paper samples 10–30 s of execution; this
    /// reproduction uses trace length as the budget knob). Traces stream
    /// through a bounded replay window, so memory does not bound this —
    /// only simulation time does.
    pub instructions_per_core: usize,
    /// Workload-generation seed.
    pub seed: u64,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Use the full 16-core paper machine (`true`) or the reduced 4-core test
    /// machine (`false`).
    pub full_machine: bool,
    /// Worker threads used when a grid of experiments is swept through
    /// [`crate::sweep`] (the result is identical at any value; only the
    /// wall-clock time changes). Defaults to the number of available cores;
    /// override with the `IFENCE_JOBS` environment variable.
    pub parallelism: usize,
    /// Force the dense (poll-every-cycle) oracle kernel instead of the
    /// default one; results are identical, only slower. Settable with
    /// `IFENCE_DENSE=1`.
    pub dense_kernel: bool,
    /// Override the shared-L2 capacity in bytes (`None` keeps the machine's
    /// default; `Some(0)` selects the unbounded sentinel). This is how the
    /// L2-capacity sensitivity sweep varies the cache while sharing every
    /// other parameter — and since [`ExperimentParams::config_for`] folds it
    /// into the `MachineConfig`, each capacity gets its own store cache key.
    pub l2_size_override: Option<usize>,
}

/// The number of hardware threads available to this process (at least 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// An environment lookup: maps a variable name to its value, if set. The
/// process environment is [`process_env`]; tests inject closures over fixed
/// maps instead of mutating the process-global environment (which races with
/// the parallel test harness).
pub type EnvLookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The real process environment, as an [`EnvLookup`].
pub fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Parses a variable from `lookup`, warning on stderr (and keeping
/// `default`) when the value is present but unparseable — a silent fallback
/// would make a typo in e.g. `IFENCE_SEED=0x7` regenerate every figure with
/// the wrong seed and no indication why.
fn env_parse<T: std::str::FromStr>(lookup: EnvLookup<'_>, name: &str, default: T) -> T {
    match lookup(name) {
        Some(raw) => match raw.trim().parse::<T>() {
            Ok(value) => value,
            Err(_) => {
                eprintln!(
                    "warning: ignoring unparseable {name}={raw:?} (expected an unsigned integer); \
                     using the default"
                );
                default
            }
        },
        None => default,
    }
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            // Streaming trace delivery holds only the replay window in
            // memory, so the default budget is set by how long a run should
            // take, not by how much memory 16 materialized traces would eat.
            instructions_per_core: 100_000,
            seed: 0x1F3C_E5EE,
            max_cycles: 2_000_000_000,
            full_machine: true,
            parallelism: available_jobs(),
            dense_kernel: false,
            l2_size_override: None,
        }
    }
}

impl ExperimentParams {
    /// Parameters for the benchmark harness: the paper-scale machine, with
    /// the trace length, seed and sweep parallelism overridable through the
    /// `IFENCE_INSTRS`, `IFENCE_SEED` and `IFENCE_JOBS` environment
    /// variables. Unparseable values warn on stderr and keep the default.
    pub fn from_env() -> Self {
        Self::from_env_with(&process_env)
    }

    /// Like [`ExperimentParams::from_env`], but reading variables through an
    /// injected lookup (testable without process-global mutation).
    pub fn from_env_with(lookup: EnvLookup<'_>) -> Self {
        let mut params = ExperimentParams::default();
        params.instructions_per_core =
            env_parse(lookup, "IFENCE_INSTRS", params.instructions_per_core).max(1);
        params.seed = env_parse(lookup, "IFENCE_SEED", params.seed);
        params.parallelism = env_parse(lookup, "IFENCE_JOBS", params.parallelism).max(1);
        params.dense_kernel = match lookup("IFENCE_DENSE") {
            Some(raw) => crate::machine::parse_dense_flag(&raw).unwrap_or_else(|| {
                eprintln!(
                    "warning: ignoring unparseable IFENCE_DENSE={raw:?} (expected 0/1); \
                     using the default"
                );
                false
            }),
            None => false,
        };
        params
    }

    /// Small parameters for unit/integration tests (4-core machine, short
    /// traces).
    pub fn quick_test() -> Self {
        ExperimentParams {
            instructions_per_core: 1_200,
            seed: 7,
            max_cycles: 20_000_000,
            full_machine: false,
            parallelism: available_jobs(),
            dense_kernel: false,
            l2_size_override: None,
        }
    }

    /// The complete machine configuration one cell of an experiment runs
    /// under — also the basis of the experiment store's cache key, which is
    /// why it is public: key derivation and machine construction must agree
    /// on every derived field (store buffer, speculation policy, seed).
    pub fn config_for(&self, engine: EngineKind) -> MachineConfig {
        let mut cfg = if self.full_machine {
            MachineConfig::with_engine(engine)
        } else {
            MachineConfig::small_test(engine)
        };
        cfg.seed = self.seed;
        cfg.dense_kernel = self.dense_kernel;
        if let Some(size) = self.l2_size_override {
            cfg.l2.size_bytes = size;
        }
        cfg
    }
}

/// Runs `workload` under the given ordering engine and returns the summary.
///
/// Traces are streamed through per-core [`ifence_types::InstructionSource`]s
/// (generation overlapped with simulation, O(replay window) memory per
/// core), never materialized.
///
/// # Panics
/// Panics if the machine cannot be constructed from the derived configuration
/// (which would indicate an internal configuration bug, not user error), or
/// if the workload fails validation.
pub fn run_experiment(
    engine: EngineKind,
    workload: &Workload,
    params: &ExperimentParams,
) -> RunSummary {
    let cfg = params.config_for(engine);
    let sources = workload.sources(cfg.cores, params.instructions_per_core, params.seed);
    let machine = Machine::from_sources(cfg, sources).expect("derived configuration is valid");
    let result = machine.into_result(params.max_cycles);
    result.summary(workload.name())
}

/// Runs a litmus test under the given engine and returns the number of
/// forbidden outcomes observed (0 means the consistency model was enforced).
///
/// # Panics
/// Panics if the test uses more cores than the reduced test machine has, or
/// if the run deadlocks or hits the cycle limit.
pub fn run_litmus(engine: EngineKind, test: &LitmusTest, max_cycles: u64) -> usize {
    let mut cfg = MachineConfig::small_test(engine);
    // Litmus tests use two to four active cores; pad the rest with the
    // zero-allocation empty source.
    let mut sources: Vec<BoxedSource> = test
        .programs()
        .iter()
        .map(|program| Box::new(ProgramSource::new(program.clone())) as BoxedSource)
        .collect();
    assert!(sources.len() <= cfg.cores, "litmus test needs more cores than the machine has");
    while sources.len() < cfg.cores {
        sources.push(Box::new(EmptySource));
    }
    cfg.seed = 1;
    let machine = Machine::from_sources(cfg, sources).expect("litmus configuration is valid");
    let result = machine.into_result(max_cycles);
    assert!(!result.deadlocked, "litmus run deadlocked: {:?}", result.deadlock_diagnostic);
    assert!(result.finished, "litmus run hit the cycle limit");
    test.count_forbidden(&result.load_results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::ConsistencyModel;
    use ifence_workloads::presets;

    #[test]
    fn default_params_use_paper_machine() {
        let p = ExperimentParams::default();
        assert!(p.full_machine);
        assert!(p.instructions_per_core >= 100_000, "streaming raised the default budget");
    }

    #[test]
    fn quick_params_run_a_real_experiment() {
        let params = ExperimentParams::quick_test();
        let summary = run_experiment(
            EngineKind::Conventional(ConsistencyModel::Tso),
            &presets::barnes().into(),
            &params,
        );
        assert_eq!(summary.config, "tso");
        assert_eq!(summary.workload, "Barnes");
        assert!(summary.cycles > 0);
        assert!(summary.counters.instructions_retired > 0);
    }

    #[test]
    fn env_override_parses_through_injected_lookup() {
        // The lookup is injected, so nothing touches the process-global
        // environment (set_var would race with the parallel test harness).
        let env = |name: &str| match name {
            "IFENCE_INSTRS" => Some("123".to_string()),
            "IFENCE_SEED" => Some("garbage".to_string()),
            _ => None,
        };
        let p = ExperimentParams::from_env_with(&env);
        assert_eq!(p.instructions_per_core, 123);
        assert_eq!(p.seed, ExperimentParams::default().seed);
        assert!(!p.dense_kernel);
    }

    #[test]
    fn env_lookup_covers_jobs_and_dense_flags() {
        let env = |name: &str| match name {
            "IFENCE_JOBS" => Some("3".to_string()),
            "IFENCE_DENSE" => Some("yes".to_string()),
            _ => None,
        };
        let p = ExperimentParams::from_env_with(&env);
        assert_eq!(p.parallelism, 3);
        assert!(p.dense_kernel);
        let unset = ExperimentParams::from_env_with(&|_| None);
        assert_eq!(unset, ExperimentParams::default());
        assert!(!unset.dense_kernel, "the default kernel is the default");
        let zero = |name: &str| (name == "IFENCE_JOBS").then(|| "0".to_string());
        assert_eq!(ExperimentParams::from_env_with(&zero).parallelism, 1, "zero jobs clamp to 1");
    }

    #[test]
    fn unparseable_dense_flag_falls_back() {
        let env = |name: &str| (name == "IFENCE_DENSE").then(|| "maybe".to_string());
        assert!(!ExperimentParams::from_env_with(&env).dense_kernel);
    }

    #[test]
    fn litmus_under_conventional_sc_has_no_forbidden_outcomes() {
        let test = ifence_workloads::LitmusTest::store_buffering(20, false);
        let forbidden =
            run_litmus(EngineKind::Conventional(ConsistencyModel::Sc), &test, 10_000_000);
        assert_eq!(forbidden, 0);
    }
}
