//! Simulated-KIPS benchmark of the InvisiFence simulator on its canonical
//! cells: each workload runs the `sc`, `Invisi_sc` and `Invisi_cont_CoV`
//! engines, one cell each, serially, in one process.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path kipsbench/Cargo.toml -- \
//!     --workload apache16 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of `BENCHMARK.json`, their
//! host times scaled to a reference host speed by a calibration loop timed
//! before every cell (`calibration.rs`);
//! `--trace 1` alternates untraced passes with passes under the phase
//! profiler, prints the per-layer metrics and writes the spans to
//! `kipsbench/out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Every cell is
//! checked: against `pinned.txt` at `--seed 0`, otherwise for finishing and
//! for agreeing with the first pass. `--pin` re-takes `pinned.txt`.

mod calibration;
mod cells;
mod json;
mod measure;
mod metrics;
mod pinned;
#[cfg(test)]
mod selftest;
mod spans;

use metrics::Metric;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The benchmark's declaration, checked against what it prints.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug)]
enum Command {
    Run { workload: cells::BenchWorkload, settings: measure::Settings },
    Pin,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--pin"] {
        return Ok(Command::Pin);
    }
    let mut workload = None;
    let mut settings = measure::Settings { seed_offset: 0, seconds: 10.0, traced: false };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = cells::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(cells::workload(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {}", names.join(", "))
                })?);
            }
            "--seed" => settings.seed_offset = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                settings.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(settings.seconds.is_finite() && settings.seconds >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                settings.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run { workload, settings })
}

/// The first `IFENCE_*` variable in the environment. The simulator reads
/// several of them (kernel mode, profiler, trace) and would silently measure
/// something else.
fn ifence_knob() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .find(|key| key.starts_with("IFENCE_"))
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out at the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get(section)
        .and_then(json::Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    entries
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(json::Json::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!("{section} entry without name/unit"))
        })
        .collect()
}

/// Fails unless `metrics` are exactly the ones declared in `section`.
fn check_declared(section: &str, metrics: &[Metric]) -> Result<(), String> {
    let mut want = declared(section)?;
    let mut got: Vec<_> = metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    want.sort();
    got.sort();
    if want == got {
        Ok(())
    } else {
        Err(format!("printed {section} metrics {got:?} differ from BENCHMARK.json {want:?}"))
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn run(workload: cells::BenchWorkload, settings: measure::Settings) -> Result<(), String> {
    let expectations = pinned::Expectations::parse(pinned::PINNED)?;
    let outcome = measure::run(workload, settings, &expectations);
    let (section, metrics) = if settings.traced {
        ("per_layer", metrics::per_layer(&outcome))
    } else {
        ("end_to_end", metrics::end_to_end(&outcome, peak_rss_mb()))
    };
    let mut failures = outcome.failures.clone();
    if let Err(e) = check_declared(section, &metrics) {
        failures.push(e);
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/spans-{}-seed{}-trace{}.jsonl",
        workload.name, settings.seed_offset, settings.traced as u8
    );
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, outcome.spans.to_json_lines()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    let traced_passes = outcome.passes.iter().filter(|p| p.traced).count();
    let host_threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# kipsbench {}: git_rev={} host_threads={host_threads} seed={} workload_seeds={} \
         instrs_per_core={} warmup_instrs_per_core={} passes={} traced_passes={traced_passes} \
         calibration_ms={:.4} (reference {})",
        workload.name,
        git_rev(),
        settings.seed_offset,
        workload
            .pass_seeds(settings.seed_offset)
            .map(|s| format!("{s:#x}"))
            .collect::<Vec<_>>()
            .join(","),
        workload.instrs_per_core,
        workload.warmup_instrs_per_core,
        outcome.passes.len(),
        metrics::calibration_ms(&outcome.passes),
        calibration::REFERENCE_MS,
    );
    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for failure in &failures {
        println!("FAILED {failure}");
    }
    let failed = outcome.failures.len() as u64;
    println!("{}", result_json(failures.is_empty(), outcome.attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(knob) = ifence_knob() {
        eprintln!("kipsbench: refusing to start: {knob} is set and would change what is measured");
        return ExitCode::from(2);
    }
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("kipsbench: {e}");
            eprintln!(
                "usage: kipsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --pin"
            );
            return ExitCode::from(2);
        }
    };
    let done = match command {
        Command::Run { workload, settings } => run(workload, settings),
        Command::Pin => measure::pin(&cells::WORKLOADS).and_then(|pinned| {
            let header = format!(
                "Pinned simulated results of every kipsbench cell at --seed 0 (workload seeds \
                 from {:#x}).\nRegenerate with: cargo run --release --manifest-path \
                 kipsbench/Cargo.toml -- --pin",
                cells::BASE_SEED
            );
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pinned.txt");
            std::fs::write(path, pinned.render(&header)).map_err(|e| format!("{path}: {e}"))
        }),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kipsbench: {e}");
            ExitCode::FAILURE
        }
    }
}
