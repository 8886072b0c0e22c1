//! Self-tests of the benchmark: every workload through the real code path
//! at tiny sizes, the pinned-result check, and the metric declarations.

use crate::cells::{BenchWorkload, WORKLOADS};
use crate::measure::{self, cell_key, warmup_key, Outcome, Settings};
use crate::metrics::{self, Metric};
use crate::pinned::Expectations;
use std::sync::Mutex;

/// The phase profiler is process-global: tests that run passes take turns.
static PROFILER: Mutex<()> = Mutex::new(());

fn tiny(w: BenchWorkload) -> BenchWorkload {
    w.with_instrs(400, 100)
}

fn run(w: BenchWorkload, seed_offset: u64, traced: bool, pinned: &Expectations) -> Outcome {
    let _turn = PROFILER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let settings = Settings { seed_offset, seconds: 0.0, traced };
    measure::run(w, settings, pinned)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no metric {name}")).value
}

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    for w in WORKLOADS.map(tiny) {
        let pinned = measure::pin(&[w]).expect("tiny cells finish");
        for traced in [false, true] {
            let outcome = run(w, 0, traced, &pinned);
            assert_eq!(outcome.failures, Vec::<String>::new(), "{} traced={traced}", w.name);
            assert_eq!(outcome.passes.len(), 2, "at least two passes even at zero seconds");
            assert_eq!(outcome.attempted, 1 + 2 * w.pass_cells(0).len() as u64);
            if traced {
                let m = metrics::per_layer(&outcome);
                crate::check_declared("per_layer", &m).expect("per-layer names as declared");
                let phases: f64 = [
                    "cpu.core_step_ms.",
                    "coherence.fabric_step_ms",
                    "sim.delivery_routing_ms",
                    "sim.merge_ms",
                    "sim.other_ms",
                ]
                .iter()
                .flat_map(|prefix| m.iter().filter(move |x| x.name.starts_with(prefix)))
                .map(|x| x.value)
                .sum();
                let run_ms = value(&m, "sim.run_ms");
                assert!((phases - run_ms).abs() < 1e-6 * run_ms.max(1.0), "{phases} vs {run_ms}");
                assert!(value(&m, "cpu.instructions_retired") > 0.0);
            } else {
                let m = metrics::end_to_end(&outcome, 1.0);
                crate::check_declared("end_to_end", &m).expect("end-to-end names as declared");
                assert!(m.iter().all(|x| x.value > 0.0), "end-to-end metrics are never 0: {m:?}");
            }
        }
    }
}

#[test]
fn a_perturbed_expectation_fails_its_cell() {
    let w = tiny(WORKLOADS[0]);
    let mut pinned = measure::pin(&[w]).expect("tiny cells finish");
    let (engine, seed) = w.pass_cells(0)[1];
    let cell = cell_key(w.name, engine, seed);
    pinned.perturb(&cell);
    let outcome = run(w, 0, false, &pinned);
    assert_eq!(outcome.failures.len(), outcome.passes.len(), "{:?}", outcome.failures);
    assert!(outcome.failures.iter().all(|f| f.starts_with(&cell) && f.contains("differ")));

    pinned.perturb(&warmup_key(w.name));
    let outcome = run(w, 7, false, &pinned);
    assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
    assert!(outcome.failures[0].contains("warm-up"));
}

#[test]
fn a_held_out_seed_is_checked_for_agreement_not_pins() {
    let w = tiny(WORKLOADS[1]);
    let pinned = measure::pin(&[w]).expect("tiny cells finish");
    let outcome = run(w, 3, true, &pinned);
    assert_eq!(outcome.failures, Vec::<String>::new());
    // The same cells at the pinned seed differ from the held-out ones.
    let at_zero = run(w, 0, false, &pinned);
    let cycles = |o: &Outcome| o.passes[0].cells[0].outcome.as_ref().map(|s| s.cycles).ok();
    assert_ne!(cycles(&outcome), cycles(&at_zero));
}

#[test]
fn missing_pins_fail_every_cell() {
    let w = tiny(WORKLOADS[0]);
    let outcome = run(w, 0, false, &Expectations::default());
    assert_eq!(outcome.failures.len() as u64, outcome.attempted);
    assert!(outcome.failures.iter().all(|f| f.contains("no pinned result")));
}

#[test]
fn declared_workloads_are_the_benchmarks() {
    let doc = crate::json::parse(crate::DECLARATION).expect("BENCHMARK.json parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(crate::json::Json::as_array)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(crate::json::Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
}

#[test]
fn compiled_in_pins_cover_every_cell() {
    let pinned = Expectations::parse(crate::pinned::PINNED).expect("pinned.txt parses");
    for w in WORKLOADS {
        let cells = w.pass_cells(0).into_iter().map(|(e, seed)| cell_key(w.name, e, seed));
        for key in std::iter::once(warmup_key(w.name)).chain(cells) {
            assert!(
                pinned.check(&key, &Vec::new()).is_err_and(|e| !e.contains("no pinned")),
                "{key}"
            );
        }
    }
}

#[test]
fn arguments_parse_as_the_contract_passes_them() {
    let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let parsed = crate::parse_args(&args("--workload barnes16 --seed 12 --seconds 30 --trace 1"));
    let Ok(crate::Command::Run { workload, settings }) = parsed else { panic!("{parsed:?}") };
    assert_eq!(workload.name, "barnes16");
    assert_eq!((settings.seed_offset, settings.seconds, settings.traced), (12, 30.0, true));
    for bad in ["--workload ocean64", "--seed 1", "--workload apache16 --trace 2", "--workload"] {
        assert!(crate::parse_args(&args(bad)).is_err(), "{bad:?} should not parse");
    }
    assert!(matches!(crate::parse_args(&args("--pin")), Ok(crate::Command::Pin)));
}
