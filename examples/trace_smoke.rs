//! Telemetry smoke: the trace layer's two invariants at CI scale.
//!
//! 1. **Tracing is invisible** — a traced run's [`MachineResult`] is
//!    byte-identical (structurally and re-encoded) to the untraced run.
//! 2. **The stream is kernel-invariant** — the JSONL trace exported through
//!    the store codec is byte-identical under the dense oracle and the
//!    default kernel.
//!
//! ```text
//! IFENCE_TRACE=1 cargo run --release --example trace_smoke
//! ```
//!
//! The `IFENCE_TRACE=1` in the invocation is the CI leg's point: when the
//! variable is set, the example additionally asserts that the *environment*
//! path collects events on a machine whose config never asked for tracing —
//! the same override the `ifence` CLI documents. Without the variable the
//! example still runs the two invariants above.

use ifence_sim::{Machine, MachineResult};
use ifence_stats::MachineTrace;
use ifence_store::{trace_to_jsonl, JsonCodec};
use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
use ifence_workloads::presets;

fn run(
    engine: EngineKind,
    dense: bool,
    trace: bool,
    instrs: usize,
) -> (MachineResult, MachineTrace) {
    let mut cfg = MachineConfig::small_test(engine);
    cfg.dense_kernel = dense;
    cfg.trace = trace;
    let programs = presets::apache().generate(cfg.cores, instrs, cfg.seed);
    Machine::new(cfg, programs).expect("valid config").into_result_with_trace(u64::MAX)
}

fn main() {
    let instrs = std::env::var("IFENCE_INSTRS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_500);
    let engine = EngineKind::InvisiSelective(ConsistencyModel::Sc);
    let env_trace_on = matches!(std::env::var("IFENCE_TRACE").as_deref(), Ok("1"));

    // 1. Tracing must not change a single simulated result. (Under
    // IFENCE_TRACE=1 the "untraced" run is env-traced too, which only
    // strengthens the check: the comparison is then traced-vs-traced
    // against the explicitly traced config.)
    let (untraced, env_stream) = run(engine, false, false, instrs);
    assert!(untraced.finished, "smoke workload must finish");
    if env_trace_on {
        assert!(
            !env_stream.events.is_empty(),
            "IFENCE_TRACE=1 must enable collection without a config change"
        );
    } else {
        assert!(env_stream.events.is_empty(), "untraced runs must collect nothing");
    }
    let (traced, reference) = run(engine, false, true, instrs);
    assert_eq!(untraced, traced, "tracing changed the simulated result");
    assert_eq!(
        untraced.to_json().encode(),
        traced.to_json().encode(),
        "tracing changed the encoded result"
    );
    assert_eq!(reference.dropped, 0, "the smoke scale must trace losslessly");
    assert!(!reference.events.is_empty(), "traced smoke run collected no events");

    // 2. The JSONL stream is byte-identical under the dense oracle.
    let (dense, dense_stream) = run(engine, true, true, instrs);
    assert_eq!(untraced, dense, "dense traced result diverges");
    assert_eq!(
        trace_to_jsonl(&dense_stream),
        trace_to_jsonl(&reference),
        "dense trace stream diverges from the default kernel's"
    );

    println!(
        "trace smoke passed: byte-identical results traced/untraced, {} event(s) byte-identical \
         in dense and default mode{}",
        reference.events.len(),
        if env_trace_on { ", env override collects" } else { "" }
    );
}
