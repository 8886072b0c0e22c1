//! The metrics the benchmark prints: end-to-end ones from untraced passes,
//! per-layer ones from passes under the phase profiler.

use crate::calibration;
use crate::cells::{CellRun, ENGINES};
use crate::measure::{Outcome, Pass};
use crate::pinned::class_name;
use ifence_stats::{Phase, ProfileSnapshot};
use ifence_types::CycleClass;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// `(label, nanoseconds, measurements)` of every profiler phase.
pub fn phases(profile: &ProfileSnapshot) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
    Phase::ALL.into_iter().map(|p| (p.label(), profile.nanos(p), profile.count(p)))
}

/// Nanoseconds and measurements of the phase labelled `label` over `cells`
/// (zero if the profiler has no such phase).
fn phase<'a>(cells: impl IntoIterator<Item = &'a CellRun>, label: &str) -> (u64, u64) {
    cells
        .into_iter()
        .flat_map(|c| phases(&c.profile))
        .filter(|(l, _, _)| *l == label)
        .fold((0, 0), |(ns, n), (_, dns, dn)| (ns + dns, n + dn))
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn kips(cells: &[&CellRun]) -> f64 {
    let instrs: u64 = cells.iter().map(|c| c.instructions()).sum();
    let ns: u64 = cells.iter().map(|c| c.run_ns).sum();
    ratio(instrs as f64 * 1e6, ns as f64)
}

fn passes(outcome: &Outcome, traced: bool) -> impl Iterator<Item = &Pass> {
    outcome.passes.iter().filter(move |p| p.traced == traced)
}

/// Mean host milliseconds of the calibration loop over `passes`.
pub fn calibration_ms<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> f64 {
    let samples: Vec<u64> =
        passes.into_iter().flat_map(|p| p.calibration_ns.iter().copied()).collect();
    ratio(samples.iter().sum::<u64>() as f64, samples.len() as f64) / 1e6
}

/// KIPS overall and per engine, set-up time and peak memory, from the
/// untraced passes, with host times scaled to the calibration loop's
/// reference speed (see [`calibration`]). KIPS sums over every untraced
/// pass rather than taking the median pass: the host's speed drifts over
/// seconds, and the median of passes jumps between its speed levels where
/// the sum moves smoothly.
pub fn end_to_end(outcome: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let untraced: Vec<&Pass> = passes(outcome, false).collect();
    let loop_ms = calibration_ms(untraced.iter().copied());
    let kips_of = |engine: Option<&str>| {
        let cells: Vec<&CellRun> = untraced
            .iter()
            .flat_map(|p| &p.cells)
            .filter(|c| engine.map_or(true, |e| c.engine == e))
            .collect();
        kips(&cells) * loop_ms / calibration::REFERENCE_MS
    };
    let mut out = vec![metric("kips", "kinstr/s", kips_of(None))];
    for engine in ENGINES {
        out.push(metric(format!("kips.{engine}"), "kinstr/s", kips_of(Some(engine))));
    }
    let setup_ns = outcome.warmup.setup_ns() as f64
        + median(untraced.iter().map(|p| p.setup_ns() as f64).collect());
    let setup_ns = ratio(setup_ns * calibration::REFERENCE_MS, loop_ms);
    out.push(metric("setup_s", "s", setup_ns / 1e9));
    out.push(metric("peak_rss_mb", "MB", peak_rss_mb));
    out
}

/// Per-layer metrics. Times come from one traced pass, the one with the
/// median `into_result` time, so its phases plus `sim.other_ms` add up to
/// its `sim.run_ms`; counts are identical in every pass.
pub fn per_layer(outcome: &Outcome) -> Vec<Metric> {
    let mut traced: Vec<&Pass> = passes(outcome, true).collect();
    traced.sort_by_key(|p| p.run_ns());
    let pass = traced[(traced.len() - 1) / 2];
    let cells = &pass.cells[..];
    let summaries: Vec<_> = cells.iter().filter_map(|c| c.outcome.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&ifence_stats::RunSummary) -> u64| -> f64 {
        summaries.iter().map(|s| f(s)).sum::<u64>() as f64
    };
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut out = Vec::new();
    for engine in ENGINES {
        let (ns, _) = phase(cells.iter().filter(|c| c.engine == engine), "core_step");
        out.push(metric(format!("cpu.core_step_ms.{engine}"), "ms", ms(ns)));
    }
    let (core_ns, core_calls) = phase(cells, "core_step");
    let core_cycles = sum(&|s| s.breakdown.total());
    out.push(metric("cpu.ns_per_core_cycle", "ns", ratio(core_ns as f64, core_cycles)));
    out.push(metric("cpu.core_step_calls", "count", core_calls as f64));
    out.push(metric("cpu.core_cycles", "cycles", core_cycles));
    out.push(metric(
        "cpu.instructions_retired",
        "count",
        sum(&|s| s.counters.instructions_retired),
    ));
    for class in CycleClass::ALL {
        let cycles = sum(&|s| s.breakdown.get(class));
        out.push(metric(format!("cpu.cycles.{}", class_name(class)), "cycles", cycles));
    }
    out.push(metric(
        "cpu.instructions_squashed",
        "count",
        sum(&|s| s.counters.instructions_squashed),
    ));

    let started = sum(&|s| s.counters.speculations_started);
    out.push(metric("invisifence.speculations_started", "count", started));
    let committed = sum(&|s| s.counters.speculations_committed);
    out.push(metric("invisifence.commit_ratio", "ratio", ratio(committed, started)));
    out.push(metric(
        "invisifence.cycles_speculating",
        "cycles",
        sum(&|s| s.counters.cycles_speculating),
    ));
    out.push(metric("invisifence.cov_deferrals", "count", sum(&|s| s.counters.cov_deferrals)));

    let (fabric_ns, fabric_calls) = phase(cells, "fabric_step");
    let events = sum(&|s| s.histograms.fabric_queue_depth.count());
    let requests = sum(&|s| s.counters.coherence_requests);
    out.push(metric("coherence.fabric_step_ms", "ms", ms(fabric_ns)));
    out.push(metric("coherence.ns_per_fabric_event", "ns", ratio(fabric_ns as f64, events)));
    out.push(metric("coherence.fabric_events", "count", events));
    out.push(metric("coherence.fabric_step_calls", "count", fabric_calls as f64));
    out.push(metric("coherence.requests", "count", requests));
    out.push(metric(
        "coherence.retry_ratio",
        "ratio",
        ratio(sum(&|s| s.fabric.busy_retries), requests),
    ));

    let l1_misses = sum(&|s| s.counters.l1_misses);
    let l1_accesses = l1_misses + sum(&|s| s.counters.l1_hits);
    out.push(metric("mem.l1_miss_ratio", "ratio", ratio(l1_misses, l1_accesses)));
    out.push(metric("mem.l2_misses", "count", sum(&|s| s.fabric.l2_misses)));
    out.push(metric("mem.l2_recalls", "count", sum(&|s| s.fabric.l2_recalls)));
    out.push(metric("mem.dram_reads", "count", sum(&|s| s.fabric.dram_reads)));

    let run_ns = pass.run_ns();
    let (routing_ns, _) = phase(cells, "delivery_routing");
    let (merge_ns, _) = phase(cells, "merge");
    // Profiler phases this table does not name fall into `other`.
    let other_ns = run_ns.saturating_sub(core_ns + fabric_ns + routing_ns + merge_ns);
    out.push(metric("sim.run_ms", "ms", ms(run_ns)));
    out.push(metric("sim.delivery_routing_ms", "ms", ms(routing_ns)));
    out.push(metric("sim.ns_per_request", "ns", ratio(routing_ns as f64, requests)));
    out.push(metric("sim.merge_ms", "ms", ms(merge_ns)));
    out.push(metric("sim.other_ms", "ms", ms(other_ns)));
    out.push(metric("sim.setup_ms", "ms", ms(pass.setup_ns())));
    out.push(metric("sim.cycles", "cycles", sum(&|s| s.cycles)));

    out.push(metric("workloads.gen_ms", "ms", ms(pass.gen_ns)));
    out.push(metric(
        "workloads.gen_ns_per_instr",
        "ns",
        ratio(pass.gen_ns as f64, pass.gen_instrs as f64),
    ));

    let run_ms = |p: &&Pass| ms(p.run_ns());
    let traced_ms = median(traced.iter().map(run_ms).collect());
    let untraced_ms =
        median(passes(outcome, false).collect::<Vec<_>>().iter().map(run_ms).collect());
    out.push(metric("host.calibration_ms", "ms", calibration_ms(&outcome.passes)));
    out.push(metric(
        "stats.profile_overhead_pct",
        "%",
        100.0 * (ratio(traced_ms, untraced_ms) - 1.0),
    ));
    out
}
