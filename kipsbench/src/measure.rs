//! The measurement loop: one untimed warm-up cell, then passes over the
//! canonical engines until the time is up, every cell checked.

use crate::calibration;
use crate::cells::{BenchWorkload, CellRun, BASE_SEED, ENGINES};
use crate::pinned::{compare, fingerprint, Expectations, Fingerprint};
use crate::spans::Spans;
use ifence_stats::PhaseProfile;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How one benchmark process runs.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// `--seed`: picks the pass's workload seeds
    /// ([`BenchWorkload::pass_seeds`]). At offset 0 every cell is checked
    /// against its pinned result; at any other offset only for finishing and
    /// for every pass agreeing with the first.
    pub seed_offset: u64,
    /// Passes start until this much time has been measured (at least two).
    pub seconds: f64,
    /// Alternate untraced passes with passes under the phase profiler.
    pub traced: bool,
}

/// One pass: every canonical engine under every workload seed, serially.
#[derive(Debug)]
pub struct Pass {
    pub traced: bool,
    pub cells: Vec<CellRun>,
    /// Host nanoseconds spent draining the pass's trace sources standalone,
    /// and the instructions drained (traced passes only).
    pub gen_ns: u64,
    pub gen_instrs: u64,
    /// Host nanoseconds of the calibration loop, run once before each cell.
    pub calibration_ns: Vec<u64>,
}

impl Pass {
    pub fn run_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.run_ns).sum()
    }

    pub fn setup_ns(&self) -> u64 {
        self.cells.iter().map(CellRun::setup_ns).sum()
    }
}

/// Everything one benchmark process measured.
#[derive(Debug)]
pub struct Outcome {
    pub warmup: CellRun,
    pub passes: Vec<Pass>,
    /// Cells run (the warm-up included) and why each failed one failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub spans: Spans,
}

/// Verifies cells: against pinned results, or against the first pass.
struct Checker<'a> {
    expectations: &'a Expectations,
    first_pass: BTreeMap<String, Fingerprint>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker<'_> {
    fn check(&mut self, cell: &str, run: &CellRun, pinned: bool, pass: Option<usize>) {
        self.attempted += 1;
        let verdict = run.outcome.as_ref().map_err(String::clone).and_then(|summary| {
            let fp = fingerprint(summary);
            if pinned {
                self.expectations.check(cell, &fp)
            } else if let Some(reference) = self.first_pass.get(cell) {
                compare(reference, &fp).map_err(|e| format!("differs from pass 0: {e}"))
            } else {
                self.first_pass.insert(cell.to_string(), fp);
                Ok(())
            }
        });
        if let Err(why) = verdict {
            let at = pass.map_or("warm-up".to_string(), |p| format!("pass {p}"));
            self.failures.push(format!("{cell} ({at}): {why}"));
        }
    }
}

/// Runs the benchmark on one workload.
pub fn run(workload: BenchWorkload, settings: Settings, expectations: &Expectations) -> Outcome {
    let profile = PhaseProfile::global();
    profile.set_enabled(false);
    let mut spans = Spans::default();
    let mut checker =
        Checker { expectations, first_pass: BTreeMap::new(), attempted: 0, failures: Vec::new() };

    // The warm-up cell always runs at the pinned seed, so every process
    // checks at least one cell against its pinned result.
    let span = spans.open("warmup", None);
    let warmup = workload.run_cell(
        ENGINES[0],
        workload.warmup_instrs_per_core,
        BASE_SEED,
        &mut spans,
        Some(span),
    );
    spans.close(span);
    checker.check(&warmup_key(workload.name), &warmup, true, None);

    let pass_cells = workload.pass_cells(settings.seed_offset);
    let pinned_seed = settings.seed_offset == 0;
    let budget = Duration::from_secs_f64(settings.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2 || start.elapsed() < budget {
        let index = passes.len();
        let traced = settings.traced && index % 2 == 1;
        let pass_span = spans.open(format!("pass {index}"), None);
        profile.set_enabled(traced);
        let mut calibration_ns = Vec::with_capacity(pass_cells.len());
        let cells: Vec<CellRun> = pass_cells
            .iter()
            .map(|&(engine, seed)| {
                let span = spans.open("calibrate", Some(pass_span));
                std::hint::black_box(calibration::run());
                calibration_ns.push(spans.close(span));
                workload.run_cell(
                    engine,
                    workload.instrs_per_core,
                    seed,
                    &mut spans,
                    Some(pass_span),
                )
            })
            .collect();
        profile.set_enabled(false);
        let (mut gen_ns, mut gen_instrs) = (0, 0);
        if traced {
            for cell in &cells {
                let span = spans.open("drain_sources", Some(pass_span));
                gen_instrs += workload.drain_sources(workload.instrs_per_core, cell.seed);
                gen_ns += spans.close(span);
            }
        }
        spans.close(pass_span);
        for cell in &cells {
            let key = cell_key(workload.name, cell.engine, cell.seed);
            checker.check(&key, cell, pinned_seed, Some(index));
        }
        passes.push(Pass { traced, cells, gen_ns, gen_instrs, calibration_ns });
    }
    Outcome { warmup, passes, attempted: checker.attempted, failures: checker.failures, spans }
}

/// The pinned-result name of a cell.
pub fn cell_key(workload: &str, engine: &str, seed: u64) -> String {
    format!("{workload}/{engine}/{seed:#x}")
}

/// The pinned-result name of a workload's warm-up cell.
pub fn warmup_key(workload: &str) -> String {
    format!("{workload}/warmup")
}

/// Runs one pass of every workload at `--seed 0`, plus its warm-up cell,
/// and returns their fingerprints as expectations (`--pin`).
pub fn pin(workloads: &[BenchWorkload]) -> Result<Expectations, String> {
    let mut pinned = Expectations::default();
    let mut spans = Spans::default();
    for w in workloads {
        let warmup = (warmup_key(w.name), ENGINES[0], BASE_SEED, w.warmup_instrs_per_core);
        let cells = w.pass_cells(0).into_iter().map(|(engine, seed)| {
            (cell_key(w.name, engine, seed), engine, seed, w.instrs_per_core)
        });
        for (key, engine, seed, instrs) in std::iter::once(warmup).chain(cells) {
            let run = w.run_cell(engine, instrs, seed, &mut spans, None);
            let summary = run.outcome.map_err(|e| format!("{key}: {e}"))?;
            pinned.insert(key, fingerprint(&summary));
        }
    }
    Ok(pinned)
}
