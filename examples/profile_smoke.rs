//! Phase-profiler smoke: asserts that the kernel phase profiler
//!
//! 1. changes **no simulated result** — a run with profiling off and a run
//!    with profiling force-enabled produce byte-identical [`MachineResult`]s
//!    (the profiler observes host wall clock only);
//! 2. actually measures — with profiling on, every kernel phase (core
//!    stepping, fabric stepping, delivery routing) accumulates non-zero
//!    time, and the phase total stays within the measured section's wall
//!    clock (each phase is a disjoint slice of it).
//!
//! ```text
//! IFENCE_PROFILE=1 cargo run --release --example profile_smoke
//! ```
//!
//! The `IFENCE_PROFILE=1` in the invocation is the CI leg's point: the env
//! path and the programmatic path must agree. The example force-sets the
//! flag itself, so it also passes without the variable.

use ifence_sim::Machine;
use ifence_stats::{Phase, PhaseProfile};
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;
use std::time::Instant;

fn run_once() -> ifence_sim::MachineResult {
    let cfg = MachineConfig::with_engine(EngineKind::Conventional(ConsistencyModel::Sc));
    let instrs = std::env::var("IFENCE_INSTRS").ok().and_then(|v| v.parse().ok()).unwrap_or(3_000);
    let programs = presets::apache().generate(cfg.cores, instrs, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result(u64::MAX)
}

fn main() {
    let profile = PhaseProfile::global();

    // 1. Profiling must not change a single simulated result. (If CI runs
    // this with IFENCE_PROFILE=1 the "off" run needs an explicit disable —
    // which is exactly the cross-check the env path needs anyway.)
    profile.set_enabled(false);
    let off = run_once();
    profile.set_enabled(true);
    let start = profile.snapshot();
    let wall_start = Instant::now();
    let on = run_once();
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    let delta = profile.snapshot().delta(&start);
    assert_eq!(off, on, "profiling must be invisible to every simulated result");

    // 2. Every phase accumulated, and their sum does not exceed the
    // section's wall clock (phases are disjoint slices of it; machine
    // construction and finalisation sit outside every phase).
    for phase in Phase::ALL {
        assert!(delta.nanos(phase) > 0, "phase {} measured nothing", phase.label());
        assert!(delta.count(phase) > 0, "phase {} recorded no intervals", phase.label());
    }
    let total_ms = delta.total_nanos() as f64 / 1e6;
    assert!(
        total_ms <= wall_ms,
        "phase total {total_ms:.1}ms exceeds the section wall clock {wall_ms:.1}ms"
    );
    assert!(
        total_ms >= 0.05 * wall_ms,
        "phase total {total_ms:.1}ms is implausibly small next to {wall_ms:.1}ms of wall clock"
    );
    // The residual — wall clock no phase claimed (machine construction,
    // finalisation) — is what `profile_other_ms` records in bench
    // trajectories; it must be the non-negative remainder of the two
    // quantities asserted above.
    let other_ms = (wall_ms - total_ms).max(0.0);

    println!("{}", delta.report());
    println!(
        "profile smoke passed: byte-identical on/off, all phases non-zero, \
         phase total {total_ms:.1}ms within {wall_ms:.1}ms wall clock \
         ({other_ms:.1}ms residual outside every phase)"
    );
}
