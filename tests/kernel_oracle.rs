//! Kernel oracle: a property test that holds the default kernel (event
//! skipping plus execution batching) to byte-identity against the dense
//! oracle on *randomly parameterised* machines, not just the curated
//! presets.
//!
//! Each case draws a fresh workload shape (memory mix, contention, working
//! set, burstiness) and seed from a seeded generator, then runs the
//! identical machine twice — once under the dense oracle, which steps every
//! core every cycle through every stage, once under the default kernel —
//! and requires the two runs to agree on the entire traced
//! [`MachineResult`]: cycle counts, per-core counters and breakdowns,
//! retired-load values, histograms, and the full JSONL trace stream.
//! Engines rotate through every implemented kind, so both the conventional
//! engines (batched on every stepped cycle) and the speculative ones (whose
//! gate must refuse exactly the commit and deferral cycles) are covered.

use ifence_sim::{Machine, MachineResult};
use ifence_stats::MachineTrace;
use ifence_store::trace_to_jsonl;
use ifence_workloads::TraceRng;
use invisifence_repro::prelude::*;

const MAX_CYCLES: u64 = 30_000_000;
const CASES: usize = 28;

/// A uniform draw in `[0, 1)` from the workload generator's own RNG.
fn unit(rng: &mut TraceRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw in `[lo, hi]`.
fn range(rng: &mut TraceRng, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
}

/// A random but valid workload shape: probabilities span quiet to heavily
/// contended, working sets span L1-resident to thrashing.
fn random_spec(rng: &mut TraceRng, case: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::uniform(format!("oracle-{case}"));
    spec.mem_fraction = 0.1 + 0.6 * unit(rng);
    spec.store_fraction = 0.1 + 0.5 * unit(rng);
    spec.critical_section_rate = 0.02 * unit(rng);
    spec.critical_section_len = range(rng, 2, 20);
    spec.locks = range(rng, 1, 64);
    spec.shared_fraction = 0.5 * unit(rng);
    spec.shared_blocks = range(rng, 64, 4096);
    spec.private_blocks = range(rng, 64, 4096);
    spec.store_burst_rate = 0.02 * unit(rng);
    spec.store_burst_len = range(rng, 2, 10);
    spec.fence_rate = 0.005 * unit(rng);
    spec.validate().expect("generated spec must be valid");
    spec
}

fn run(
    engine: EngineKind,
    spec: &WorkloadSpec,
    instructions: usize,
    seed: u64,
    dense: bool,
) -> (MachineResult, MachineTrace) {
    let mut cfg = MachineConfig::small_test(engine);
    cfg.seed = seed;
    cfg.dense_kernel = dense;
    cfg.trace = true;
    let programs = spec.generate(cfg.cores, instructions, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result_with_trace(MAX_CYCLES)
}

#[test]
fn default_kernel_is_byte_identical_to_dense_on_random_machines() {
    let engines = EngineKind::all();
    let mut rng = TraceRng::seed_from_u64(0x1ea9_0c1e_5eed);
    for case in 0..CASES {
        let spec = random_spec(&mut rng, case);
        let engine = engines[case % engines.len()];
        let instructions = range(&mut rng, 200, 900);
        let seed = rng.next_u64();
        let label = format!(
            "case {case}: {} on {} ({instructions} instrs, seed {seed:#x})",
            engine.label(),
            spec.name
        );
        let (dense, dense_trace) = run(engine, &spec, instructions, seed, true);
        let (default, default_trace) = run(engine, &spec, instructions, seed, false);
        assert!(dense.finished, "{label}: dense run did not finish");
        assert_eq!(dense, default, "{label}: the default kernel changed the simulated result");
        assert_eq!(
            trace_to_jsonl(&dense_trace),
            trace_to_jsonl(&default_trace),
            "{label}: the default kernel changed the trace stream"
        );
    }
}
