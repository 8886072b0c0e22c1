//! Pinned simulated results: every statistic a cell produces, as exact
//! integers, checked against the expectations stored in `pinned.txt`.
//!
//! A host-only change must leave these bit-identical, so they are compared
//! for equality rather than reported as metrics. The file holds one line per
//! statistic, `<cell> <statistic> <value>`; `--pin` rewrites it.

use ifence_stats::RunSummary;
use ifence_types::CycleClass;
use std::collections::BTreeMap;

/// The expectations compiled into the benchmark.
pub const PINNED: &str = include_str!("../pinned.txt");

/// A cell's simulated statistics, in a fixed order.
pub type Fingerprint = Vec<(String, u64)>;

/// Metric-name form of a cycle class.
pub fn class_name(class: CycleClass) -> &'static str {
    match class {
        CycleClass::Busy => "Busy",
        CycleClass::Other => "Other",
        CycleClass::SbFull => "SbFull",
        CycleClass::SbDrain => "SbDrain",
        CycleClass::Violation => "Violation",
    }
}

/// Cycles, breakdown, counters, fabric statistics and histograms of a run.
pub fn fingerprint(s: &RunSummary) -> Fingerprint {
    let mut fp = vec![("cycles".to_string(), s.cycles)];
    for class in CycleClass::ALL {
        fp.push((format!("breakdown.{}", class_name(class)), s.breakdown.get(class)));
    }
    let c = &s.counters;
    let counters = [
        ("instructions_retired", c.instructions_retired),
        ("loads_retired", c.loads_retired),
        ("stores_retired", c.stores_retired),
        ("atomics_retired", c.atomics_retired),
        ("fences_retired", c.fences_retired),
        ("instructions_squashed", c.instructions_squashed),
        ("l1_hits", c.l1_hits),
        ("l1_misses", c.l1_misses),
        ("sb_forwards", c.sb_forwards),
        ("sb_inserts", c.sb_inserts),
        ("sb_drains", c.sb_drains),
        ("store_prefetches", c.store_prefetches),
        ("speculations_started", c.speculations_started),
        ("speculations_committed", c.speculations_committed),
        ("speculations_aborted", c.speculations_aborted),
        ("speculations_aborted_structural", c.speculations_aborted_structural),
        ("cycles_speculating", c.cycles_speculating),
        ("cov_deferrals", c.cov_deferrals),
        ("cov_commits", c.cov_commits),
        ("cov_timeouts", c.cov_timeouts),
        ("external_invalidations", c.external_invalidations),
        ("l2_recalls_received", c.l2_recalls_received),
        ("external_downgrades", c.external_downgrades),
        ("in_window_replays", c.in_window_replays),
        ("coherence_requests", c.coherence_requests),
        ("writebacks", c.writebacks),
    ];
    fp.extend(counters.map(|(name, v)| (format!("counters.{name}"), v)));
    let f = &s.fabric;
    let fabric = [
        ("l2_hits", f.l2_hits),
        ("l2_misses", f.l2_misses),
        ("l2_evictions", f.l2_evictions),
        ("l2_recalls", f.l2_recalls),
        ("dram_reads", f.dram_reads),
        ("dram_writebacks", f.dram_writebacks),
        ("busy_retries", f.busy_retries),
    ];
    fp.extend(fabric.map(|(name, v)| (format!("fabric.{name}"), v)));
    for (name, hist) in s.histograms.named() {
        fp.push((format!("hist.{name}.count"), hist.count()));
        fp.push((format!("hist.{name}.sum"), hist.sum()));
        for (bucket, n) in hist.nonzero() {
            fp.push((format!("hist.{name}.b{bucket}"), n));
        }
    }
    fp
}

/// Why `actual` differs from `expected`, naming the first few statistics
/// that do.
pub fn compare(expected: &Fingerprint, actual: &Fingerprint) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let want: BTreeMap<_, _> = expected.iter().cloned().collect();
    let got: BTreeMap<_, _> = actual.iter().cloned().collect();
    let keys: std::collections::BTreeSet<_> = want.keys().chain(got.keys()).collect();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| want.get(*k) != got.get(*k))
        .map(|k| {
            let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
            format!("{k} expected {} got {}", show(want.get(k)), show(got.get(k)))
        })
        .collect();
    let shown = diffs.iter().take(4).cloned().collect::<Vec<_>>().join(", ");
    Err(format!("{} statistics differ: {shown}", diffs.len()))
}

/// Expected fingerprints by cell name (`<workload>/<engine>`, or
/// `<workload>/warmup` for the warm-up cell).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expectations {
    cells: BTreeMap<String, Fingerprint>,
}

impl Expectations {
    /// Parses the `pinned.txt` format; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cells: BTreeMap<String, Fingerprint> = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [cell, stat, value] = fields[..] else {
                return Err(format!("pinned line {}: expected 3 fields: {line}", n + 1));
            };
            let value = value
                .parse::<u64>()
                .map_err(|e| format!("pinned line {}: bad value {value:?}: {e}", n + 1))?;
            cells.entry(cell.to_string()).or_default().push((stat.to_string(), value));
        }
        Ok(Expectations { cells })
    }

    pub fn insert(&mut self, cell: String, fingerprint: Fingerprint) {
        self.cells.insert(cell, fingerprint);
    }

    /// The `pinned.txt` form, after a header of `#` comment lines.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (cell, fp) in &self.cells {
            for (stat, value) in fp {
                out.push_str(&format!("{cell} {stat} {value}\n"));
            }
        }
        out
    }

    /// Checks a cell's fingerprint against its expectation.
    pub fn check(&self, cell: &str, actual: &Fingerprint) -> Result<(), String> {
        let expected =
            self.cells.get(cell).ok_or_else(|| format!("no pinned result for {cell}"))?;
        compare(expected, actual)
    }

    /// Changes one pinned statistic of `cell` (the self-tests' perturbation).
    #[cfg(test)]
    pub fn perturb(&mut self, cell: &str) {
        let fp = self.cells.get_mut(cell).expect("cell is pinned");
        fp[0].1 += 1;
    }
}
