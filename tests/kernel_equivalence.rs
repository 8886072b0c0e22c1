//! Kernel equivalence: the default kernel skips cycles only when they are
//! provably no-ops (event skipping) and elides a stepped cycle's
//! maintenance stages only when they are provably dead (batching), so for
//! every ordering engine and workload it must produce a [`MachineResult`]
//! byte-identical to the dense oracle, which steps every core every cycle
//! through every stage — cycle counts, per-core counters, runtime
//! breakdowns and retired-load values alike.
//!
//! This is the safety net for the whole quiescence analysis and for the
//! batching gate: any wake hint that fires too late, any state change the
//! activity report misses, any mis-attributed skipped cycle, or any batched
//! cycle whose elided stages were not actually dead shows up here as a
//! field-level mismatch.

use ifence_sim::{Machine, MachineResult};
use invisifence_repro::prelude::*;

const MAX_CYCLES: u64 = 30_000_000;
const INSTRUCTIONS: usize = 900;

/// Every engine kind the simulator implements ([`EngineKind::all`]), so a
/// newly added kind is held to the equivalence guarantee automatically.
fn engines() -> Vec<EngineKind> {
    EngineKind::all().to_vec()
}

fn run_with_kernel(engine: EngineKind, workload: &WorkloadSpec, dense: bool) -> MachineResult {
    let mut cfg = MachineConfig::small_test(engine);
    cfg.dense_kernel = dense;
    let programs = workload.generate(cfg.cores, INSTRUCTIONS, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result(MAX_CYCLES)
}

/// Compares the default kernel against the dense oracle field by field, so
/// a mismatch names the offending part before the full structural equality
/// check.
fn assert_matches_oracle(
    dense: &MachineResult,
    default: &MachineResult,
    engine: EngineKind,
    workload: &str,
) {
    let label = engine.label();
    assert_eq!(dense.cycles, default.cycles, "{label} on {workload}: cycle count diverges");
    for (core, (d, o)) in dense.per_core.iter().zip(&default.per_core).enumerate() {
        assert_eq!(
            d.breakdown, o.breakdown,
            "{label} on {workload}: core {core} breakdown diverges"
        );
        assert_eq!(d.counters, o.counters, "{label} on {workload}: core {core} counters diverge");
    }
    assert_eq!(
        dense.load_results, default.load_results,
        "{label} on {workload}: retired-load values diverge"
    );
    // …then require full structural equality (finished, deadlocked, label).
    assert_eq!(dense, default, "{label} on {workload}: results diverge");
}

fn assert_equivalent(engine: EngineKind, workload: &WorkloadSpec) {
    let dense = run_with_kernel(engine, workload, true);
    assert!(dense.finished, "{} on {} did not finish", engine.label(), workload.name);
    let default = run_with_kernel(engine, workload, false);
    assert_matches_oracle(&dense, &default, engine, &workload.name);
}

#[test]
fn every_engine_is_equivalent_on_barnes() {
    let workload = presets::barnes();
    for engine in engines() {
        assert_equivalent(engine, &workload);
    }
}

#[test]
fn every_engine_is_equivalent_on_apache() {
    let workload = presets::apache();
    for engine in engines() {
        assert_equivalent(engine, &workload);
    }
}

#[test]
fn litmus_runs_are_equivalent_across_kernels() {
    // Litmus programs are adversarially contended, exercising deferral,
    // rollback and replay paths the statistical workloads rarely hit.
    for (name, test) in [
        ("store-buffering", LitmusTest::store_buffering(15, false)),
        ("message-passing", LitmusTest::message_passing(15, true)),
        ("iriw", LitmusTest::iriw(15, false)),
    ] {
        for engine in engines() {
            let run = |dense: bool| {
                let mut cfg = MachineConfig::small_test(engine);
                cfg.dense_kernel = dense;
                cfg.seed = 1;
                let mut programs = test.programs().to_vec();
                while programs.len() < cfg.cores {
                    programs.push(Program::new());
                }
                Machine::new(cfg, programs).expect("valid config").into_result(MAX_CYCLES)
            };
            let dense = run(true);
            assert!(dense.finished, "{} on {name} did not finish", engine.label());
            assert_matches_oracle(&dense, &run(false), engine, name);
        }
    }
}

#[test]
fn all_modes_are_distinct_configurations() {
    // Guard against the two schedules silently collapsing into one (e.g. a
    // refactor turning the dense oracle on by default), which would make
    // every check in this file dense-vs-dense.
    for engine in engines() {
        let config = |dense: bool| {
            let mut cfg = MachineConfig::small_test(engine);
            cfg.dense_kernel = dense;
            cfg
        };
        assert!(!MachineConfig::small_test(engine).dense_kernel, "the default kernel is not dense");
        assert_ne!(config(true), config(false), "{}: the modes collapse", engine.label());
        let cfg = config(true);
        let programs = presets::barnes().generate(cfg.cores, 10, cfg.seed);
        let machine = Machine::new(cfg, programs).expect("valid config");
        assert!(
            machine.dense_kernel(),
            "{}: the dense flag must reach the machine",
            engine.label()
        );
    }
}
