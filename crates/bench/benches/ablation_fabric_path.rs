//! Ablation: wall-clock cost of the fabric hot path — timing-wheel event
//! queue, precomputed torus routing, persistent scratch buffers and indexed
//! wake dispatch — measured end to end on the default kernel, with the
//! kernel phase profiler force-enabled so the table shows
//! *where* the host time goes (core stepping vs fabric stepping vs delivery
//! routing), not just how much of it there is.
//!
//! Apache is the fabric-heavy regime: a lock-heavy sharing pattern drives
//! coherence traffic through the directory, so the event queue, the routing
//! lookups and the wake dispatch all sit on the measured path. The 16-core
//! cell is the paper machine; the 64-core cell (8×8 torus) scales the node
//! count so per-request routing and per-cycle core scans would dominate if
//! they were still O(n).
//!
//! Each scale appends its own `BENCH_results.json` row; with
//! the profiler on, the rows carry `profile_<phase>_ms` fields, so the
//! trajectory records the phase split across invocations.

use ifence_bench::{paper_params, print_header, BenchRun};
use ifence_stats::{ColumnTable, Phase, PhaseProfile, ProfileSnapshot};
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;
use std::time::Instant;

/// Repetitions per cell (minimum taken): wall-clock comparisons on a shared
/// machine need more than one sample per point.
fn reps() -> usize {
    std::env::var("IFENCE_BENCH_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3).max(1)
}

/// The paper baseline re-scaled to `cores` nodes on a square torus.
fn config_at(engine: EngineKind, cores: usize, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::with_engine(engine);
    cfg.seed = seed;
    if cores != cfg.cores {
        let side = (cores as f64).sqrt() as usize;
        assert_eq!(side * side, cores, "scales are square torus sizes");
        cfg.cores = cores;
        cfg.interconnect.mesh_width = side;
        cfg.interconnect.mesh_height = side;
    }
    cfg
}

/// One measured cell: minimum wall clock over the reps, plus the phase
/// profile of the fastest rep.
fn timed_run(
    engine: EngineKind,
    cores: usize,
    params: &ifence_sim::ExperimentParams,
    workload: &ifence_workloads::WorkloadSpec,
) -> (u64, f64, ProfileSnapshot) {
    let mut cycles = 0;
    let mut best = f64::INFINITY;
    let mut best_profile = ProfileSnapshot::default();
    for rep in 0..reps() {
        let cfg = config_at(engine, cores, params.seed);
        let programs = workload.generate(cfg.cores, params.instructions_per_core, params.seed);
        let machine = ifence_sim::Machine::new(cfg, programs).expect("valid config");
        let profile_start = PhaseProfile::global().snapshot();
        let start = Instant::now();
        let result = machine.into_result(params.max_cycles);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let profile = PhaseProfile::global().snapshot().delta(&profile_start);
        assert!(result.finished, "{} at {cores} cores: run did not finish", engine.label());
        if rep == 0 {
            cycles = result.cycles;
        } else {
            assert_eq!(cycles, result.cycles, "{}: cycles differ across reps", engine.label());
        }
        if elapsed < best {
            best = elapsed;
            best_profile = profile;
        }
    }
    (cycles, best, best_profile)
}

fn main() {
    let params = paper_params();
    let _run = print_header(
        "Ablation",
        "fabric hot path: per-phase host time of the default kernel",
        &params,
    );
    // Force the profiler on for every cell equally: the phase split *is* the
    // data here, and profiling affects no simulated result (the CI smoke in
    // examples/profile_smoke.rs asserts byte-identity with it on and off).
    PhaseProfile::global().set_enabled(true);
    let workload = presets::apache();
    let engine = EngineKind::Conventional(ConsistencyModel::Sc);
    let scales = [16usize, 64];
    // Timed serially (never through the parallel sweep): concurrent cells
    // would contend for cores and corrupt both the wall clocks and the
    // process-global phase accumulators.
    let mut table = ColumnTable::new([
        "cores",
        "cycles",
        "wall ms",
        "core_step ms",
        "fabric_step ms",
        "delivery ms",
    ]);
    for cores in scales {
        let _cell_run = BenchRun::start(
            "ablation_fabric_path",
            &format!("default kernel, {cores} cores"),
            &params,
        );
        let (cycles, ms, profile) = timed_run(engine, cores, &params, &workload);
        table.push_row([
            cores.to_string(),
            cycles.to_string(),
            format!("{ms:.1}"),
            format!("{:.1}", profile.millis(Phase::CoreStep)),
            format!("{:.1}", profile.millis(Phase::FabricStep)),
            format!("{:.1}", profile.millis(Phase::DeliveryRouting)),
        ]);
    }
    println!("{table}");
    println!(
        "(phase columns are the kernel profiler's wall-clock split of each cell's fastest rep; \
         the fabric path — wheel pops, routed deliveries, table-routed latencies — is the \
         fabric_step + delivery columns)"
    );
}
