//! Shared plumbing for the benchmark harness.
//!
//! Every table and figure of the paper has a `cargo bench` target in
//! `benches/` (they are plain binaries, not Criterion timing loops, because
//! what they produce is the figure's *data*). The experiment size is taken
//! from the `IFENCE_INSTRS` / `IFENCE_SEED` environment variables,
//! defaulting to 100 000 instructions per core on the 16-core paper machine
//! (traces stream through bounded replay windows, so the budget is
//! simulation time, not memory). Experiment grids run through the parallel
//! sweep engine in [`ifence_sim::sweep`] on `IFENCE_JOBS` worker threads
//! (default: available cores) — the emitted tables are byte-identical at any
//! job count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ifence_sim::runner::{process_env, EnvLookup};
use ifence_sim::ExperimentParams;
use ifence_stats::{Phase, PhaseProfile, ProfileSnapshot};
use ifence_store::Json;
use ifence_workloads::{presets, Workload};
use std::path::PathBuf;
use std::time::Instant;

pub use ifence_sim::sweep;

/// Experiment parameters for figure regeneration (paper machine, environment
/// overridable).
pub fn paper_params() -> ExperimentParams {
    ExperimentParams::from_env()
}

/// The runnable workload suite: the seven Figure 7 presets plus the phased
/// `ServerSwings` scenario, or a subset selected with the `IFENCE_WORKLOADS`
/// environment variable (comma-separated names).
pub fn workload_suite() -> Vec<Workload> {
    workload_suite_from(&process_env)
}

/// Like [`workload_suite`], but reading `IFENCE_WORKLOADS` through an
/// injected lookup (testable without process-global environment mutation).
pub fn workload_suite_from(lookup: EnvLookup<'_>) -> Vec<Workload> {
    match lookup("IFENCE_WORKLOADS") {
        Some(names) => {
            let selected: Vec<Workload> =
                names.split(',').filter_map(|n| presets::workload_by_name(n.trim())).collect();
            if selected.is_empty() {
                presets::all_workloads()
            } else {
                selected
            }
        }
        None => presets::all_workloads(),
    }
}

/// Prints the standard header for a figure-regeneration bench target and
/// starts its wall-clock record.
///
/// Takes the caller's already-built params rather than re-reading the
/// environment, so an unparseable `IFENCE_*` value warns exactly once.
///
/// The returned [`BenchRun`] guard must be bound for the duration of the
/// bench (`let _run = print_header(...)`); when it drops, the run's wall
/// clock is appended to `BENCH_results.json` so the perf trajectory
/// accumulates across invocations (see [`BenchRun`] for the file format and
/// the `IFENCE_BENCH_RESULTS` override).
#[must_use = "bind the guard (`let _run = print_header(...)`) so the run is timed and recorded"]
pub fn print_header(figure: &str, description: &str, params: &ExperimentParams) -> BenchRun {
    println!("================================================================================");
    println!("{figure}: {description}");
    // The sweep worker count is deliberately not printed: output must be
    // byte-identical for a fixed seed at any IFENCE_JOBS value.
    println!(
        "machine: 16-core paper baseline; {} instructions/core, seed {} (override with IFENCE_INSTRS / IFENCE_SEED / IFENCE_WORKLOADS / IFENCE_JOBS)",
        params.instructions_per_core, params.seed
    );
    println!("================================================================================");
    BenchRun::begin(figure, description, params, bench_results_path(&process_env))
}

/// Where bench records accumulate: `IFENCE_BENCH_RESULTS` (an empty value or
/// `off` disables recording), defaulting to `BENCH_results.json` at the
/// workspace root — anchored via this crate's manifest directory because
/// `cargo bench` runs each target with the *package* directory as its
/// working directory, which would otherwise scatter trajectories.
fn bench_results_path(lookup: EnvLookup<'_>) -> Option<PathBuf> {
    match lookup("IFENCE_BENCH_RESULTS") {
        Some(value) => {
            let trimmed = value.trim();
            if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("off") {
                None
            } else {
                Some(PathBuf::from(trimmed))
            }
        }
        None => Some(default_results_path()),
    }
}

/// Hardware threads the host exposes to this process, recorded with every
/// trajectory row so wall clocks from differently sized hosts are never
/// compared as equals.
fn host_threads() -> u64 {
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1)
}

/// `<workspace root>/BENCH_results.json`.
fn default_results_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join("BENCH_results.json")
}

/// A running bench target's wall-clock record. On drop it appends one entry
/// to the trajectory file (a JSON array of objects):
///
/// ```json
/// {"bench":"Figure 8","detail":"…","instructions_per_core":100000,
///  "seed":523429358,"jobs":16,"host_threads":16,"wall_clock_ms":1234.5,
///  "unix_time_secs":…}
/// ```
///
/// `host_threads` is the hardware parallelism the host exposed to the run
/// (`std::thread::available_parallelism`) — wall clocks from differently
/// sized hosts are not comparable, and the trajectory should say so.
///
/// The file is rewritten atomically (tmp file + rename); an unreadable or
/// corrupt trajectory is restarted with a warning rather than failing the
/// bench — recording is best-effort by design.
///
/// When the kernel phase profiler is accumulating (`IFENCE_PROFILE=1` or
/// [`PhaseProfile::set_enabled`]), the record also carries the per-phase
/// wall clock this run accumulated, as `profile_<phase>_ms` fields, plus a
/// `profile_other_ms` residual — the wall clock no phase claimed (machine
/// construction, result finalisation, table formatting) — so the attributed
/// phases can be read honestly against the whole wall clock.
///
/// Benches that sweep a structured parameter attach it with
/// [`BenchRun::with_u64`] (e.g. `store_buffer_entries`), so trajectory consumers
/// can filter rows numerically instead of parsing the detail string.
pub struct BenchRun {
    bench: String,
    detail: String,
    instructions_per_core: u64,
    seed: u64,
    jobs: u64,
    extra: Vec<(String, u64)>,
    start: Instant,
    profile_start: ProfileSnapshot,
    path: Option<PathBuf>,
}

impl BenchRun {
    /// Starts a standalone record for a bench target that does not print the
    /// standard figure header (the structure microbenchmarks).
    pub fn start(bench: &str, detail: &str, params: &ExperimentParams) -> BenchRun {
        Self::begin(bench, detail, params, bench_results_path(&process_env))
    }

    fn begin(
        bench: &str,
        detail: &str,
        params: &ExperimentParams,
        path: Option<PathBuf>,
    ) -> BenchRun {
        BenchRun {
            bench: bench.to_string(),
            detail: detail.to_string(),
            instructions_per_core: params.instructions_per_core as u64,
            seed: params.seed,
            jobs: params.parallelism as u64,
            extra: Vec::new(),
            start: Instant::now(),
            profile_start: PhaseProfile::global().snapshot(),
            path,
        }
    }

    /// Attaches a structured numeric field to this run's trajectory record
    /// (e.g. `store_buffer_entries`), alongside the human-readable detail string.
    #[must_use]
    pub fn with_u64(mut self, name: &str, value: u64) -> BenchRun {
        self.extra.push((name.to_string(), value));
        self
    }

    /// The record this run will append (without the wall clock, which is
    /// taken at drop).
    fn record(&self, wall_clock_ms: f64) -> Json {
        let unix_time_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut fields = vec![
            ("bench".to_string(), Json::Str(self.bench.clone())),
            ("detail".to_string(), Json::Str(self.detail.clone())),
            ("instructions_per_core".to_string(), Json::UInt(self.instructions_per_core)),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("jobs".to_string(), Json::UInt(self.jobs)),
            ("host_threads".to_string(), Json::UInt(host_threads())),
            ("wall_clock_ms".to_string(), Json::Float(wall_clock_ms)),
            ("unix_time_secs".to_string(), Json::UInt(unix_time_secs)),
        ];
        for (name, value) in &self.extra {
            fields.push((name.clone(), Json::UInt(*value)));
        }
        if PhaseProfile::global().enabled() {
            let delta = PhaseProfile::global().snapshot().delta(&self.profile_start);
            let mut attributed_ms = 0.0;
            for phase in Phase::ALL {
                attributed_ms += delta.millis(phase);
                fields.push((
                    format!("profile_{}_ms", phase.label()),
                    Json::Float(delta.millis(phase)),
                ));
            }
            // The wall clock no phase claimed: machine construction, result
            // finalisation, table formatting. Clamped at zero — timer
            // granularity can put the attributed sum a hair over the wall
            // clock on sub-millisecond runs.
            fields.push((
                "profile_other_ms".to_string(),
                Json::Float((wall_clock_ms - attributed_ms).max(0.0)),
            ));
        }
        Json::Object(fields)
    }

    fn append(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let wall_clock_ms = 1000.0 * self.start.elapsed().as_secs_f64();
        let mut entries = match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(Json::Array(entries)) => entries,
                Ok(_) | Err(_) => {
                    eprintln!(
                        "warning: {} is not a JSON array of bench records; starting fresh",
                        path.display()
                    );
                    Vec::new()
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        entries.push(self.record(wall_clock_ms));
        let mut text = Json::Array(entries).encode();
        text.push('\n');
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

impl Drop for BenchRun {
    fn drop(&mut self) {
        if let Err(e) = self.append() {
            eprintln!("warning: could not record bench trajectory: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_defaults_to_all_workloads_including_phased() {
        let suite = workload_suite_from(&|_| None);
        assert_eq!(suite.len(), 8, "seven presets plus ServerSwings");
        assert_eq!(suite.last().unwrap().name(), "ServerSwings");
    }

    #[test]
    fn suite_can_be_narrowed_by_env() {
        let env = |name: &str| (name == "IFENCE_WORKLOADS").then(|| "Barnes, Ocean".to_string());
        let suite = workload_suite_from(&env);
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].name(), "Barnes");
    }

    #[test]
    fn phased_scenario_is_selectable_by_name() {
        let env = |name: &str| (name == "IFENCE_WORKLOADS").then(|| "ServerSwings".to_string());
        let suite = workload_suite_from(&env);
        assert_eq!(suite.len(), 1);
        assert!(matches!(suite[0], Workload::Phased(_)));
    }

    #[test]
    fn params_come_from_injected_environment() {
        let env = |name: &str| (name == "IFENCE_INSTRS").then(|| "777".to_string());
        let p = ExperimentParams::from_env_with(&env);
        assert_eq!(p.instructions_per_core, 777);
    }

    #[test]
    fn bench_records_accumulate_across_runs() {
        let path = std::env::temp_dir()
            .join(format!("ifence-bench-trajectory-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let params = ExperimentParams::quick_test();
        drop(BenchRun::begin("Figure 8", "first", &params, Some(path.clone())));
        drop(BenchRun::begin("Figure 8", "second", &params, Some(path.clone())));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let Json::Array(entries) = doc else {
            panic!("trajectory must be a JSON array, got {text}");
        };
        assert_eq!(entries.len(), 2, "records accumulate instead of overwriting");
        for entry in &entries {
            assert_eq!(entry.field("bench"), Some(&Json::Str("Figure 8".to_string())));
            assert!(entry.field("wall_clock_ms").and_then(Json::as_f64).is_some());
            assert_eq!(
                entry.field("seed").and_then(Json::as_u64),
                Some(params.seed),
                "record carries the run's parameters"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_carry_host_threads_and_structured_fields() {
        let params = ExperimentParams::quick_test();
        let run = BenchRun::begin("Ablation", "2 entries", &params, None)
            .with_u64("store_buffer_entries", 2);
        let record = run.record(1.0);
        assert!(
            record.field("host_threads").and_then(Json::as_u64).unwrap() >= 1,
            "every record must say how much hardware the host exposed"
        );
        assert_eq!(
            record.field("store_buffer_entries").and_then(Json::as_u64),
            Some(2),
            "structured fields ride alongside the detail string"
        );
    }

    #[test]
    fn profiled_records_carry_a_residual_bucket() {
        let params = ExperimentParams::quick_test();
        let run = BenchRun::begin("Ablation", "residual", &params, None);
        PhaseProfile::global().set_enabled(true);
        let record = run.record(10.0);
        PhaseProfile::global().set_enabled(false);
        let other = record
            .field("profile_other_ms")
            .and_then(Json::as_f64)
            .expect("profiled records carry the residual");
        assert!((0.0..=10.0).contains(&other), "residual {other} must fit the wall clock");
        let attributed: f64 = Phase::ALL
            .iter()
            .filter_map(|p| record.field(&format!("profile_{}_ms", p.label())))
            .filter_map(Json::as_f64)
            .sum();
        assert!(
            attributed + other <= 10.0 + 1e-9,
            "phases plus residual must not exceed the wall clock"
        );
    }

    #[test]
    fn trajectory_recording_can_be_disabled() {
        assert_eq!(bench_results_path(&|_| Some("off".to_string())), None);
        assert_eq!(bench_results_path(&|_| Some("  ".to_string())), None);
        assert_eq!(
            bench_results_path(&|_| Some("custom.json".to_string())),
            Some(PathBuf::from("custom.json"))
        );
        let default = bench_results_path(&|_| None).expect("recording is on by default");
        assert!(default.ends_with("BENCH_results.json"));
        assert!(
            default.parent().unwrap().join("Cargo.toml").exists(),
            "default trajectory sits at the workspace root: {}",
            default.display()
        );
    }

    #[test]
    fn corrupt_trajectory_restarts_instead_of_failing() {
        let path = std::env::temp_dir()
            .join(format!("ifence-bench-corrupt-test-{}.json", std::process::id()));
        std::fs::write(&path, "not json at all").unwrap();
        let params = ExperimentParams::quick_test();
        drop(BenchRun::begin("Ablation", "recovery", &params, Some(path.clone())));
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Array(entries) = doc else { panic!("restarted file must be an array") };
        assert_eq!(entries.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
