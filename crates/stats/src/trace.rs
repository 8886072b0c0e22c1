//! Structured, deterministic trace events.
//!
//! Tracing is the opt-in half of the telemetry layer (histograms in
//! [`crate::hist`] are always on): when a machine is built with
//! `MachineConfig::trace` or `IFENCE_TRACE=1`, every core and the coherence
//! fabric collect ring-buffered [`TraceEvent`]s keyed by simulated cycle and
//! core. The events record *what the simulated machine did* — speculation
//! begin/commit/abort, commit-on-violate deferral start/end, store-buffer
//! high-water transitions, L2 evictions/recalls, DRAM fetches, and the
//! deadlock diagnostic — never anything about the host, so the stream is a
//! pure function of the simulated execution.
//!
//! That purity is the subsystem's correctness ratchet: because the dense
//! oracle and the default kernel execute the identical simulated
//! interaction sequence, their merged trace streams must be
//! byte-identical, and `tests/trace_equivalence.rs` plus the CI smoke leg
//! hold them to it. If a future kernel reorders an interaction, the trace
//! diff catches it with a named event at a named cycle — before the
//! aggregate-counter equivalence suite can even localize the divergence.
//!
//! Each core and the fabric own a private [`TraceSink`] shard; shards are
//! append-ordered by construction (simulated time is monotone within a
//! shard) and [`MachineTrace::from_shards`] merges them into the single
//! canonical order: cycle-major, core-minor, with a core's own events
//! preceding fabric events attributed to that core's home node within a
//! cycle. JSONL encoding lives in the store crate (`ifence_store`) next to
//! the other codecs; this module stays dependency-free on it.

use std::collections::VecDeque;

use ifence_types::Cycle;

/// Default ring capacity of one sink shard, in events. Enough for the test
/// and CLI workloads to trace losslessly; longer runs drop their *oldest*
/// events per shard and report the count via [`MachineTrace::dropped`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// What a [`TraceEvent`] records. Labels (see [`TraceKind::label`]) are
/// stable: they are the JSONL vocabulary and the `ifence trace --kind`
/// filter keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A speculation episode began. `value` = active episodes afterwards.
    SpecBegin,
    /// A speculation episode committed. `value` = episode length
    /// (instructions retired under it).
    SpecCommit,
    /// A speculation episode aborted. `value` = episode length at abort.
    SpecAbort,
    /// A commit-on-violate deferral was granted. `value` = granted window
    /// (deadline − now) in cycles.
    CovDeferStart,
    /// A deferral ended with the deferred acknowledgement. `value` = 1 when
    /// a rollback preceded the ack (timeout path), 0 on a clean commit.
    CovDeferEnd,
    /// The store buffer reached a new occupancy high-water mark. `value` =
    /// the new mark (entries).
    SbHighWater,
    /// The shared L2 evicted a block. `value` = 1 when the eviction wrote
    /// back dirty data, else 0.
    L2Eviction,
    /// The shared L2 recalled a block from its holders. `value` = number of
    /// sharers recalled.
    L2Recall,
    /// A demand miss went to DRAM. `value` = fill latency in cycles.
    DramFetch,
    /// The machine deadlocked; one event per core carrying that core's
    /// diagnostic snapshot in [`TraceEvent::detail`]. `value` = 0.
    Deadlock,
}

impl TraceKind {
    /// Every kind, in vocabulary order.
    pub const ALL: [TraceKind; 10] = [
        TraceKind::SpecBegin,
        TraceKind::SpecCommit,
        TraceKind::SpecAbort,
        TraceKind::CovDeferStart,
        TraceKind::CovDeferEnd,
        TraceKind::SbHighWater,
        TraceKind::L2Eviction,
        TraceKind::L2Recall,
        TraceKind::DramFetch,
        TraceKind::Deadlock,
    ];

    /// Stable lower-case label (JSONL `kind` field, CLI filter key).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::SpecBegin => "spec_begin",
            TraceKind::SpecCommit => "spec_commit",
            TraceKind::SpecAbort => "spec_abort",
            TraceKind::CovDeferStart => "cov_defer_start",
            TraceKind::CovDeferEnd => "cov_defer_end",
            TraceKind::SbHighWater => "sb_high_water",
            TraceKind::L2Eviction => "l2_eviction",
            TraceKind::L2Recall => "l2_recall",
            TraceKind::DramFetch => "dram_fetch",
            TraceKind::Deadlock => "deadlock",
        }
    }

    /// Inverse of [`TraceKind::label`].
    pub fn from_label(label: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// One structured trace event (see [`TraceKind`] for the `value` meaning
/// per kind). `core` is the emitting core for core events and the block's
/// home node for fabric events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event occurred at.
    pub cycle: Cycle,
    /// Core (or home node) the event is attributed to.
    pub core: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific payload (see [`TraceKind`]).
    pub value: u64,
    /// Free-text payload; only [`TraceKind::Deadlock`] carries one.
    pub detail: Option<String>,
}

/// One shard's ring-buffered event collector. Every core's `CoreStats`
/// carries one (excluded from equality and serialization — trace state is
/// observability, not simulated state) and the coherence fabric carries one
/// for its events.
///
/// When disabled (the default), [`TraceSink::emit`] is a single branch and
/// [`TraceSink::set_now`] a single store — the "zero cost when off" budget
/// the trace-overhead ablation bench holds the kernel to.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    enabled: bool,
    core: u32,
    now: Cycle,
    capacity: usize,
    dropped: u64,
    events: VecDeque<TraceEvent>,
}

impl TraceSink {
    /// Enables collection for the given core (or home-node owner), with a
    /// ring of `capacity` events (0 falls back to
    /// [`DEFAULT_TRACE_CAPACITY`]).
    pub fn enable(&mut self, core: u32, capacity: usize) {
        self.enabled = true;
        self.core = core;
        self.capacity = if capacity == 0 { DEFAULT_TRACE_CAPACITY } else { capacity };
    }

    /// Whether events are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps the current simulated cycle; [`TraceSink::emit`] uses it for
    /// call sites (the speculation kernel) that do not receive `now`.
    #[inline]
    pub fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Emits an event at the stamped cycle. No-op (one branch) when
    /// disabled.
    #[inline]
    pub fn emit(&mut self, kind: TraceKind, value: u64) {
        if self.enabled {
            self.push(self.now, kind, value, None);
        }
    }

    /// Emits an event at an explicit cycle. No-op (one branch) when
    /// disabled.
    #[inline]
    pub fn emit_at(&mut self, cycle: Cycle, kind: TraceKind, value: u64) {
        if self.enabled {
            self.push(cycle, kind, value, None);
        }
    }

    /// Emits an event carrying a free-text detail (the deadlock snapshot).
    pub fn emit_detail(&mut self, cycle: Cycle, kind: TraceKind, value: u64, detail: String) {
        if self.enabled {
            self.push(cycle, kind, value, Some(detail));
        }
    }

    /// Emits an event attributed to an explicit core — the fabric's shard
    /// attributes each event to the block's home node, not to one fixed
    /// owner. No-op (one branch) when disabled.
    #[inline]
    pub fn emit_for(&mut self, core: u32, cycle: Cycle, kind: TraceKind, value: u64) {
        if self.enabled {
            let own = self.core;
            self.core = core;
            self.push(cycle, kind, value, None);
            self.core = own;
        }
    }

    fn push(&mut self, cycle: Cycle, kind: TraceKind, value: u64, detail: Option<String>) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { cycle, core: self.core, kind, value, detail });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the shard: the buffered events in append order plus the count
    /// of events the ring dropped.
    pub fn take(&mut self) -> (Vec<TraceEvent>, u64) {
        let events = std::mem::take(&mut self.events).into();
        let dropped = std::mem::take(&mut self.dropped);
        (events, dropped)
    }
}

/// A whole machine's trace: every shard merged into the canonical order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineTrace {
    /// The merged events, cycle-major then core-minor; within one
    /// `(cycle, core)` a core's own events precede fabric events attributed
    /// to that home node, each in emission order.
    pub events: Vec<TraceEvent>,
    /// Total events dropped by the shard rings (0 means the trace is
    /// lossless).
    pub dropped: u64,
}

impl MachineTrace {
    /// Merges drained shards into the canonical order. Pass the per-core
    /// shards in core order first, then the fabric shard — the sort is
    /// stable, so that concatenation order breaks `(cycle, core)` ties.
    pub fn from_shards(shards: Vec<(Vec<TraceEvent>, u64)>) -> Self {
        let mut events = Vec::with_capacity(shards.iter().map(|(e, _)| e.len()).sum());
        let mut dropped = 0;
        for (shard, shard_dropped) in shards {
            events.extend(shard);
            dropped += shard_dropped;
        }
        events.sort_by_key(|event| (event.cycle, event.core));
        MachineTrace { events, dropped }
    }

    /// Event count per kind, in [`TraceKind::ALL`] order (the CLI
    /// summarizer's table).
    pub fn counts_by_kind(&self) -> [(TraceKind, u64); 10] {
        let mut counts = TraceKind::ALL.map(|k| (k, 0u64));
        for event in &self.events {
            let slot = TraceKind::ALL.iter().position(|k| *k == event.kind).unwrap();
            counts[slot].1 += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_and_are_unique() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::from_label(kind.label()), Some(kind));
        }
        let mut labels: Vec<_> = TraceKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TraceKind::ALL.len());
        assert_eq!(TraceKind::from_label("nope"), None);
    }

    #[test]
    fn disabled_sink_collects_nothing() {
        let mut sink = TraceSink::default();
        sink.set_now(10);
        sink.emit(TraceKind::SpecBegin, 1);
        sink.emit_at(20, TraceKind::SpecCommit, 5);
        assert!(sink.is_empty());
        assert!(!sink.is_enabled());
        assert_eq!(sink.take(), (vec![], 0));
    }

    #[test]
    fn enabled_sink_stamps_cycle_and_core() {
        let mut sink = TraceSink::default();
        sink.enable(3, 0);
        sink.set_now(42);
        sink.emit(TraceKind::SpecBegin, 1);
        sink.emit_at(50, TraceKind::SpecCommit, 7);
        let (events, dropped) = sink.take();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].cycle, events[0].core, events[0].kind),
            (42, 3, TraceKind::SpecBegin)
        );
        assert_eq!((events[1].cycle, events[1].value), (50, 7));
        assert!(sink.is_empty(), "take drains");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut sink = TraceSink::default();
        sink.enable(0, 2);
        for cycle in 0..5 {
            sink.emit_at(cycle, TraceKind::DramFetch, cycle);
        }
        assert_eq!(sink.len(), 2);
        let (events, dropped) = sink.take();
        assert_eq!(dropped, 3);
        assert_eq!(events[0].cycle, 3, "oldest events were dropped");
        assert_eq!(events[1].cycle, 4);
    }

    #[test]
    fn merge_is_cycle_major_core_minor_and_stable() {
        let ev = |cycle, core, kind, value| TraceEvent { cycle, core, kind, value, detail: None };
        // Core 1's shard, then core 2's, then the fabric shard attributing
        // events to home nodes 1 and 2.
        let core1 = vec![ev(5, 1, TraceKind::SpecBegin, 0), ev(9, 1, TraceKind::SpecCommit, 4)];
        let core2 = vec![ev(5, 2, TraceKind::SpecBegin, 0)];
        let fabric = vec![ev(5, 1, TraceKind::DramFetch, 100), ev(7, 2, TraceKind::L2Recall, 1)];
        let trace = MachineTrace::from_shards(vec![(core1, 0), (core2, 1), (fabric, 0)]);
        assert_eq!(trace.dropped, 1);
        let order: Vec<_> = trace.events.iter().map(|e| (e.cycle, e.core, e.kind)).collect();
        assert_eq!(
            order,
            vec![
                (5, 1, TraceKind::SpecBegin),
                (5, 1, TraceKind::DramFetch), // fabric after the core's own at (5, 1)
                (5, 2, TraceKind::SpecBegin),
                (7, 2, TraceKind::L2Recall),
                (9, 1, TraceKind::SpecCommit),
            ]
        );
        let counts = trace.counts_by_kind();
        assert_eq!(counts.iter().find(|(k, _)| *k == TraceKind::SpecBegin).unwrap().1, 2);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<u64>(), 5);
    }
}
