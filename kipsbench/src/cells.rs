//! The benchmark's workloads and the measured unit of work, one cell: a
//! workload run under one ordering engine on one machine.
//!
//! Only public entry points of the simulator are called, each inside a span:
//! `Workload::sources`, `Machine::from_sources`, `Machine::into_result` and
//! `MachineResult::summary`, plus the process-global `PhaseProfile` snapshot
//! around `into_result`.

use crate::spans::{SpanId, Spans};
use ifence_sim::Machine;
use ifence_stats::{PhaseProfile, ProfileSnapshot, RunSummary};
use ifence_types::{EngineKind, MachineConfig};
use ifence_workloads::{presets, Workload, WorkloadSpec};
use std::panic::{self, AssertUnwindSafe};

/// First workload seed at `--seed 0`, where the pinned results were taken.
pub const BASE_SEED: u64 = 0x1F3C_E5EE;

/// The canonical engine set, in run order.
pub const ENGINES: [&str; 3] = ["sc", "Invisi_sc", "Invisi_cont_CoV"];

/// A named workload: a paper preset on a square torus of `side × side`
/// cores, at a fixed trace length, under several workload seeds.
#[derive(Debug, Clone, Copy)]
pub struct BenchWorkload {
    pub name: &'static str,
    preset: fn() -> WorkloadSpec,
    side: usize,
    /// Workload seeds per pass. The host time of a cell varies with its
    /// seed by up to ~15%, so a pass averages over several.
    pub seeds: u64,
    /// Trace length of every measured cell.
    pub instrs_per_core: usize,
    /// Trace length of the untimed warm-up cell run once per process.
    pub warmup_instrs_per_core: usize,
}

/// The benchmark workloads (see `BENCHMARK.json` for why each).
pub const WORKLOADS: [BenchWorkload; 2] = [
    BenchWorkload {
        name: "apache16",
        preset: presets::apache,
        side: 4,
        seeds: 4,
        instrs_per_core: 10_000,
        warmup_instrs_per_core: 2_500,
    },
    BenchWorkload {
        name: "barnes16",
        preset: presets::barnes,
        side: 4,
        seeds: 4,
        instrs_per_core: 20_000,
        warmup_instrs_per_core: 5_000,
    },
];

/// Looks a workload up by its benchmark name.
pub fn workload(name: &str) -> Option<BenchWorkload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// One run of one cell. Times are host nanoseconds of the spans around the
/// corresponding public calls.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub engine: &'static str,
    pub seed: u64,
    pub sources_ns: u64,
    pub build_ns: u64,
    pub run_ns: u64,
    /// Phase-profiler accumulation during `into_result` (all zero unless the
    /// profiler was enabled).
    pub profile: ProfileSnapshot,
    /// The simulated result, or why the cell failed: a panic, a deadlock,
    /// or the cycle limit.
    pub outcome: Result<RunSummary, String>,
}

impl CellRun {
    /// Host nanoseconds spent setting the cell up.
    pub fn setup_ns(&self) -> u64 {
        self.sources_ns + self.build_ns
    }

    /// Instructions the cell retired (0 for a failed cell).
    pub fn instructions(&self) -> u64 {
        self.outcome.as_ref().map_or(0, |s| s.counters.instructions_retired)
    }
}

impl BenchWorkload {
    /// The workload with a different trace length (the self-tests run the
    /// real code path at tiny sizes).
    #[cfg(test)]
    pub fn with_instrs(self, instrs_per_core: usize, warmup_instrs_per_core: usize) -> Self {
        BenchWorkload { instrs_per_core, warmup_instrs_per_core, ..self }
    }

    /// The workload seeds of one pass at `--seed seed_offset`: `seeds`
    /// consecutive ones, disjoint from those of every other offset.
    pub fn pass_seeds(&self, seed_offset: u64) -> impl Iterator<Item = u64> {
        let first = BASE_SEED.wrapping_add(seed_offset.wrapping_mul(self.seeds));
        (0..self.seeds).map(move |j| first.wrapping_add(j))
    }

    /// The cells of one pass: every engine under every seed.
    pub fn pass_cells(&self, seed_offset: u64) -> Vec<(&'static str, u64)> {
        self.pass_seeds(seed_offset).flat_map(|seed| ENGINES.map(|e| (e, seed))).collect()
    }

    pub fn cores(&self) -> usize {
        self.side * self.side
    }

    fn spec(&self) -> Workload {
        Workload::from((self.preset)())
    }

    /// The paper machine re-scaled to this workload's torus. Only the
    /// topology and the seed are set; every kernel-mode field keeps its
    /// default, so the benchmark measures whatever kernel is the default.
    pub fn config(&self, engine: EngineKind, seed: u64) -> MachineConfig {
        let mut cfg = MachineConfig::with_engine(engine);
        cfg.seed = seed;
        cfg.cores = self.cores();
        cfg.interconnect.mesh_width = self.side;
        cfg.interconnect.mesh_height = self.side;
        cfg
    }

    /// Builds and runs one cell, recording a span around each public call
    /// under a `cell` span whose parent is `parent`. A panic inside the
    /// simulator is caught and reported as the cell's failure.
    pub fn run_cell(
        &self,
        engine: &'static str,
        instrs_per_core: usize,
        seed: u64,
        spans: &mut Spans,
        parent: Option<SpanId>,
    ) -> CellRun {
        let kind = EngineKind::from_label(engine).expect("canonical engine labels parse");
        let cfg = self.config(kind, seed);
        // No sane run needs a thousand cycles per instruction; a livelock
        // stops here rather than at the benchmark's time limit.
        let max_cycles = 1_000 * instrs_per_core as u64 + 1_000_000;
        let cell = spans.open(format!("cell {engine} {seed:#x}"), parent);
        let mut run = CellRun {
            engine,
            seed,
            sources_ns: 0,
            build_ns: 0,
            run_ns: 0,
            profile: ProfileSnapshot::default(),
            outcome: Err("did not run".to_string()),
        };
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let span = spans.open("sources", Some(cell));
            let sources = self.spec().sources(cfg.cores, instrs_per_core, seed);
            run.sources_ns = spans.close(span);
            let span = spans.open("from_sources", Some(cell));
            let machine = Machine::from_sources(cfg, sources).map_err(|e| e.to_string())?;
            run.build_ns = spans.close(span);
            let before = PhaseProfile::global().snapshot();
            let span = spans.open("into_result", Some(cell));
            let result = machine.into_result(max_cycles);
            run.run_ns = spans.close(span);
            run.profile = PhaseProfile::global().snapshot().delta(&before);
            if result.deadlocked {
                let diagnostic = result.deadlock_diagnostic.unwrap_or_default();
                return Err(format!("deadlocked at cycle {}: {diagnostic}", result.cycles));
            }
            if !result.finished {
                return Err(format!("hit the cycle limit of {max_cycles}"));
            }
            Ok(result.summary(self.name))
        }));
        run.outcome = caught.unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panicked: {message}"))
        });
        spans.close_all_from(cell);
        for (label, nanos, _) in crate::metrics::phases(&run.profile) {
            spans.note(cell, label, nanos as f64 / 1e6);
        }
        run
    }

    /// Drains the cell's trace sources standalone, as the simulator would
    /// fetch them, and returns the number of instructions generated.
    pub fn drain_sources(&self, instrs_per_core: usize, seed: u64) -> u64 {
        let mut total = 0u64;
        for mut source in self.spec().sources(self.cores(), instrs_per_core, seed) {
            let mut index = 0;
            while let Some(instr) = source.fetch(index) {
                std::hint::black_box(instr);
                index += 1;
                if index % 1024 == 0 {
                    source.release(index);
                }
            }
            total += index as u64;
        }
        total
    }
}
