//! Ablation: wall-clock cost of the dense oracle (poll every core every
//! cycle through every stage) against the default kernel (event skipping
//! over provably quiescent cycles plus execution batching, which trims the
//! provably-dead stages out of each stepped cycle).
//!
//! The comparison targets the regime the default kernel was built for:
//! conventional SC on a lock-heavy commercial workload at paper-like
//! latencies spends most of its simulated cycles in SB-drain/SB-full stalls
//! (Figure 1) — exactly where per-cycle polling wastes the most work, and
//! where the cycles that must still be stepped rarely need the engine
//! maintenance and deferred-snoop stages batching elides. Simulated results
//! are byte-identical in both modes (asserted here and in
//! `tests/kernel_equivalence.rs`); only the wall-clock time differs.
//! `IFENCE_DENSE=1` forces both modes dense, flattening the ratio to ~1.
//!
//! Each mode appends its own `BENCH_results.json` row (detail "dense
//! kernel" / "default kernel"), so the perf trajectory tracks the modes
//! separately across invocations.

use ifence_bench::{paper_params, print_header, BenchRun};
use ifence_stats::ColumnTable;
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;
use std::time::Instant;

/// Repetitions per cell (minimum taken): wall-clock comparisons on a shared
/// machine need more than one sample per point.
fn reps() -> usize {
    std::env::var("IFENCE_BENCH_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3).max(1)
}

fn timed_run(
    engine: EngineKind,
    dense: bool,
    params: &ifence_sim::ExperimentParams,
    workload: &ifence_workloads::WorkloadSpec,
) -> (u64, f64) {
    let mut cycles = 0;
    let mut best = f64::INFINITY;
    for rep in 0..reps() {
        let mut cfg = MachineConfig::with_engine(engine);
        cfg.seed = params.seed;
        cfg.dense_kernel = dense;
        let programs = workload.generate(cfg.cores, params.instructions_per_core, params.seed);
        let machine = ifence_sim::Machine::new(cfg, programs).expect("valid config");
        let start = Instant::now();
        let result = machine.into_result(params.max_cycles);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert!(result.finished, "{}: run did not finish", engine.label());
        if rep == 0 {
            cycles = result.cycles;
        } else {
            assert_eq!(cycles, result.cycles, "{}: cycles differ across reps", engine.label());
        }
        best = best.min(elapsed);
    }
    (cycles, best)
}

fn main() {
    let params = paper_params();
    let _run = print_header(
        "Ablation",
        "simulation-kernel mode: dense oracle vs the default event-driven batched kernel",
        &params,
    );
    let workload = presets::apache();
    let engines = [
        EngineKind::Conventional(ConsistencyModel::Sc),
        EngineKind::Conventional(ConsistencyModel::Tso),
        EngineKind::Conventional(ConsistencyModel::Rmo),
        EngineKind::InvisiSelective(ConsistencyModel::Sc),
        EngineKind::InvisiContinuous { commit_on_violate: true },
    ];
    // (dense_kernel, trajectory detail) per mode.
    let modes = [(true, "dense kernel"), (false, "default kernel")];
    // Timed serially (never through the parallel sweep): concurrent cells
    // would contend for cores and corrupt the wall-clock comparison. Mode by
    // mode, so each mode's trajectory row times exactly its own runs.
    let mut measured = vec![Vec::new(); engines.len()];
    for (dense, detail) in modes {
        let _mode_run = BenchRun::start("ablation_kernel_mode", detail, &params);
        for (i, engine) in engines.iter().enumerate() {
            measured[i].push(timed_run(*engine, dense, &params, &workload));
        }
    }
    let mut table =
        ColumnTable::new(["engine", "cycles", "dense ms", "default ms", "default vs dense"]);
    for (engine, runs) in engines.iter().zip(&measured) {
        let [(dense_cycles, dense_ms), (default_cycles, default_ms)] = runs[..] else {
            unreachable!("two modes per engine");
        };
        assert_eq!(
            dense_cycles,
            default_cycles,
            "{}: the default kernel disagrees on simulated cycles",
            engine.label()
        );
        table.push_row([
            engine.label(),
            dense_cycles.to_string(),
            format!("{dense_ms:.1}"),
            format!("{default_ms:.1}"),
            format!("{:.2}x", dense_ms / default_ms.max(1e-9)),
        ]);
    }
    println!("{table}");
    println!(
        "(speedups are wall-clock ratios; simulated results are identical in both modes — the \
         default kernel sleeps quiescent cores, jumps time over machine-wide quiescence, and \
         runs each admitted core cycle without its provably-dead stages)"
    );
}
