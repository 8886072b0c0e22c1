//! A zero-dependency kernel phase profiler.
//!
//! The simulation kernel spends its host wall clock in a handful of phases —
//! stepping cores, stepping the fabric's event queue, and routing
//! deliveries, replies and requests between them. This module
//! accumulates per-phase wall-clock time into process-global atomics so the
//! ablation benches and the CLI can report *where* the host time goes, not
//! just how much of it there is.
//!
//! Profiling is off by default and costs one relaxed atomic load per
//! would-be measurement when off. It is enabled by the `IFENCE_PROFILE`
//! environment variable (`1`/`true`/`yes`; read once, at first use) or
//! forced programmatically with [`PhaseProfile::set_enabled`] (benches and
//! the profiler's own tests). The accumulators are global because sweeps
//! construct many machines on many worker threads;
//! [`PhaseProfile::snapshot`] plus [`ProfileSnapshot::delta`] scope a
//! measurement to one run.
//!
//! Nothing here ever touches simulated state: the profiler observes host
//! time only, so enabling it cannot change a single simulated cycle
//! (`examples/profile_smoke.rs` asserts exactly that).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel phases the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Stepping cores (full and batched cycles alike).
    CoreStep,
    /// Stepping the coherence fabric's event queue (`step_into`).
    FabricStep,
    /// Routing deliveries, replies and requests between cores and fabric.
    DeliveryRouting,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; 3] = [Phase::CoreStep, Phase::FabricStep, Phase::DeliveryRouting];

    /// Stable lower-case label (report columns, JSON field suffixes).
    pub fn label(self) -> &'static str {
        match self {
            Phase::CoreStep => "core_step",
            Phase::FabricStep => "fabric_step",
            Phase::DeliveryRouting => "delivery_routing",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::CoreStep => 0,
            Phase::FabricStep => 1,
            Phase::DeliveryRouting => 2,
        }
    }
}

/// The process-global phase accumulators (see the module documentation).
pub struct PhaseProfile {
    enabled: AtomicBool,
    nanos: [AtomicU64; 3],
    counts: [AtomicU64; 3],
}

static GLOBAL: OnceLock<PhaseProfile> = OnceLock::new();

/// True when `raw` spells an enabled `IFENCE_PROFILE` (same accepted
/// spellings as the kernel's other boolean flags: `1`/`true`/`yes`).
fn parse_profile_flag(raw: &str) -> bool {
    matches!(raw.trim().to_ascii_lowercase().as_str(), "1" | "true" | "yes")
}

impl PhaseProfile {
    /// The process-global profiler, initialising the enabled flag from
    /// `IFENCE_PROFILE` on first use.
    pub fn global() -> &'static PhaseProfile {
        GLOBAL.get_or_init(|| PhaseProfile {
            enabled: AtomicBool::new(
                std::env::var("IFENCE_PROFILE")
                    .map(|raw| parse_profile_flag(&raw))
                    .unwrap_or(false),
            ),
            nanos: Default::default(),
            counts: Default::default(),
        })
    }

    /// Whether measurements are being accumulated.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Forces profiling on or off, overriding the environment (benches that
    /// want phase columns unconditionally; the smoke test).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Starts timing `phase`, or returns `None` (no measurement, no clock
    /// read) when profiling is off. Dropping the guard accumulates.
    pub fn start(&'static self, phase: Phase) -> Option<PhaseTimer> {
        if !self.enabled() {
            return None;
        }
        Some(PhaseTimer { profile: self, phase, started: Instant::now() })
    }

    /// Adds a measured duration directly (used by the timer guard; public so
    /// callers that already hold a duration can record it).
    pub fn record(&self, phase: Phase, nanos: u64) {
        let i = phase.index();
        self.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of the accumulators at this instant. Subtract two snapshots
    /// ([`ProfileSnapshot::delta`]) to scope a measurement to one run.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut s = ProfileSnapshot::default();
        for phase in Phase::ALL {
            let i = phase.index();
            s.nanos[i] = self.nanos[i].load(Ordering::Relaxed);
            s.counts[i] = self.counts[i].load(Ordering::Relaxed);
        }
        s
    }
}

/// RAII guard returned by [`PhaseProfile::start`]: measures from creation to
/// drop and accumulates into its phase.
pub struct PhaseTimer {
    profile: &'static PhaseProfile,
    phase: Phase,
    started: Instant,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.profile.record(self.phase, nanos);
    }
}

/// A point-in-time copy of the phase accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    nanos: [u64; 3],
    counts: [u64; 3],
}

impl ProfileSnapshot {
    /// Accumulated wall-clock nanoseconds for `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Accumulated wall-clock milliseconds for `phase`.
    pub fn millis(&self, phase: Phase) -> f64 {
        self.nanos(phase) as f64 / 1e6
    }

    /// Number of measurements accumulated for `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Total accumulated nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// The accumulation between `earlier` and `self` (saturating, so a
    /// snapshot from before a counter reset never underflows).
    pub fn delta(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        let mut d = ProfileSnapshot::default();
        for i in 0..self.nanos.len() {
            d.nanos[i] = self.nanos[i].saturating_sub(earlier.nanos[i]);
            d.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        d
    }

    /// A one-line `phase=ms` report in [`Phase::ALL`] order (the CLI and the
    /// smoke example print this).
    pub fn report(&self) -> String {
        let mut out = String::from("kernel phase profile:");
        for phase in Phase::ALL {
            out.push_str(&format!(" {}={:.1}ms", phase.label(), self.millis(phase)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_hands_out_no_timers() {
        let p = PhaseProfile::global();
        let was = p.enabled();
        p.set_enabled(false);
        assert!(p.start(Phase::CoreStep).is_none());
        p.set_enabled(was);
    }

    #[test]
    fn record_and_delta_scope_a_measurement() {
        let p = PhaseProfile::global();
        let before = p.snapshot();
        p.record(Phase::FabricStep, 1_500_000);
        p.record(Phase::FabricStep, 500_000);
        p.record(Phase::DeliveryRouting, 250_000);
        let d = p.snapshot().delta(&before);
        assert_eq!(d.nanos(Phase::FabricStep), 2_000_000);
        assert_eq!(d.count(Phase::FabricStep), 2);
        assert_eq!(d.nanos(Phase::DeliveryRouting), 250_000);
        assert_eq!(d.nanos(Phase::CoreStep), 0);
        assert_eq!(d.total_nanos(), 2_250_000);
        assert!((d.millis(Phase::FabricStep) - 2.0).abs() < 1e-9);
        assert!(d.report().contains("fabric_step=2.0ms"), "got: {}", d.report());
    }

    #[test]
    fn enabled_timer_accumulates_on_drop() {
        let p = PhaseProfile::global();
        let was = p.enabled();
        p.set_enabled(true);
        let before = p.snapshot();
        {
            let _t = p.start(Phase::DeliveryRouting).expect("enabled");
            std::hint::black_box(0u64);
        }
        let d = p.snapshot().delta(&before);
        p.set_enabled(was);
        assert_eq!(d.count(Phase::DeliveryRouting), 1);
    }

    #[test]
    fn flag_grammar_matches_the_kernel_flags() {
        for on in ["1", "true", "YES", " yes "] {
            assert!(parse_profile_flag(on), "{on:?} should enable");
        }
        for off in ["", "0", "false", "no", "2", "on"] {
            assert!(!parse_profile_flag(off), "{off:?} should not enable");
        }
    }
}
