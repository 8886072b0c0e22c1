//! The ordering-engine abstraction: how a consistency-model implementation
//! plugs into the core.
//!
//! An [`OrderingEngine`] decides, each time the core wants to retire the
//! instruction at the head of the reorder buffer, whether the memory
//! consistency model allows it — and performs the retirement mechanics
//! (writing stores to the buffer or the cache, marking speculative bits,
//! taking checkpoints). Speculative engines additionally react to external
//! coherence requests (violation detection), manage commit/abort, and decide
//! how each cycle is attributed to the paper's runtime-breakdown buckets.

use crate::mem_side::CoreMem;
use crate::rob::RobEntry;
use ifence_stats::CoreStats;
use ifence_types::{BlockAddr, Cycle, CycleClass, InstrKind, StallReason};

/// Result of asking the engine to retire the head instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireOutcome {
    /// The instruction retired (the engine performed all side effects).
    Retired,
    /// The instruction cannot retire this cycle for the given reason.
    Stall(StallReason),
}

/// The kind of external coherence request delivered to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternalKind {
    /// A remote writer wants the block: invalidate (conflicts with local
    /// speculative reads *and* writes).
    Invalidate,
    /// A remote reader wants the block: downgrade to Shared (conflicts with
    /// local speculative writes only).
    Downgrade,
}

impl ExternalKind {
    /// True for invalidations (remote writes).
    pub fn is_write(self) -> bool {
        matches!(self, ExternalKind::Invalidate)
    }
}

/// The engine's reaction to an external coherence request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternalOutcome {
    /// No conflict with speculation: apply the request and acknowledge.
    Ack,
    /// The request conflicts with live speculation: the engine has already
    /// discarded its speculative state; the core must squash and resume
    /// fetching at `resume_at`, then apply the request and acknowledge.
    AckAfterRollback {
        /// Program index at which execution resumes.
        resume_at: usize,
    },
    /// Commit-on-violate: defer the request (and its acknowledgement) until
    /// `until`, giving the speculation a chance to commit first.
    Defer {
        /// Deadline after which the deferral must be resolved.
        until: Cycle,
    },
}

/// Resolution of a previously deferred external request, polled every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeferResolution {
    /// Keep waiting (the deadline has not passed and the conflict persists).
    Wait,
    /// The conflict is gone (the speculation committed or aborted for another
    /// reason): apply the request and acknowledge.
    Ack,
    /// The deadline expired: the engine aborted the speculation; squash,
    /// resume at `resume_at`, then apply and acknowledge.
    AckAfterRollback {
        /// Program index at which execution resumes.
        resume_at: usize,
    },
}

/// An action the engine asks the core to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineAction {
    /// Squash the pipeline and resume fetching at the given program index
    /// (speculation abort).
    Rollback {
        /// Program index at which execution resumes.
        resume_at: usize,
    },
}

/// Context handed to [`OrderingEngine::try_retire`].
pub struct RetireCtx<'a> {
    /// The core's memory side (L1, store buffer, MSHRs, request path).
    pub mem: &'a mut CoreMem,
    /// The core's statistics (engines update speculation counters directly).
    pub stats: &'a mut CoreStats,
    /// Current cycle.
    pub now: Cycle,
    /// The (completed) head-of-ROB entry being retired.
    pub entry: &'a RobEntry,
}

impl RetireCtx<'_> {
    /// Program index of the instruction being retired — the value a register
    /// checkpoint must record so an abort can replay from here.
    pub fn checkpoint_index(&self) -> usize {
        self.entry.program_index
    }
}

/// A memory-consistency implementation plugged into a [`crate::Core`].
///
/// Engines are plain timing state and must be [`Send`] so a whole machine
/// can move between threads.
pub trait OrderingEngine: Send {
    /// Human-readable label (matches the paper's bar labels, e.g. "Invisi_rmo").
    fn name(&self) -> String;

    /// Attempts to retire the head instruction, performing all side effects
    /// (store-buffer insertion, direct cache writes, speculative-bit marking,
    /// checkpoint creation). Returns whether it retired or why it stalled.
    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome;

    /// Hook invoked when a load (or the read half of an atomic) performs its
    /// read at execute time; continuous-mode engines mark the
    /// speculatively-read bit here.
    fn on_load_issue(&mut self, _mem: &mut CoreMem, _block: BlockAddr) {}

    /// Per-cycle maintenance: opportunistic commit, chunk management, policy
    /// timeouts. Returns actions (e.g. rollbacks) the core must perform.
    fn tick(
        &mut self,
        _mem: &mut CoreMem,
        _stats: &mut CoreStats,
        _now: Cycle,
    ) -> Vec<EngineAction> {
        Vec::new()
    }

    /// Reacts to an external coherence request for `block` (violation
    /// detection). The core applies the invalidation/downgrade to the L1 and
    /// replies according to the returned outcome.
    fn on_external(
        &mut self,
        _mem: &mut CoreMem,
        _stats: &mut CoreStats,
        _block: BlockAddr,
        _kind: ExternalKind,
        _now: Cycle,
    ) -> ExternalOutcome {
        ExternalOutcome::Ack
    }

    /// Polled every cycle for each request previously deferred with
    /// [`ExternalOutcome::Defer`].
    fn resolve_deferred(
        &mut self,
        _mem: &mut CoreMem,
        _stats: &mut CoreStats,
        _block: BlockAddr,
        _kind: ExternalKind,
        _deadline: Cycle,
        _now: Cycle,
    ) -> DeferResolution {
        DeferResolution::Ack
    }

    /// True while a post-retirement speculative episode is in flight (drives
    /// the Figure 10 metric and provisional cycle accounting).
    fn speculating(&self) -> bool {
        false
    }

    /// The oldest program index any future rollback of this engine could
    /// resume at — the oldest live checkpoint. `None` means the engine can
    /// never roll execution back behind the retirement frontier, which is
    /// then the core's safe trace-release point. Engines holding live
    /// checkpoints must report the oldest one so a streaming
    /// [`ifence_types::InstructionSource`] keeps its replay window open far
    /// enough for `AckAfterRollback`/[`EngineAction::Rollback`] replays.
    fn rollback_floor(&self) -> Option<usize> {
        None
    }

    /// True if the engine subsumes the in-window ordering mechanism (load
    /// queue snooping), as InvisiFence-Continuous does; the core then skips
    /// in-window replays.
    fn subsumes_in_window(&self) -> bool {
        false
    }

    /// Whether a store-buffer entry of the given epoch may drain into the L1
    /// this cycle (multi-checkpoint policies hold back younger epochs).
    fn can_drain(&self, _epoch: Option<u8>) -> bool {
        true
    }

    /// Called when an incoming fill would evict a speculatively-accessed
    /// block: the engine must commit (if possible) or abort before the line
    /// escapes. Returns rollback actions if it aborted.
    fn on_spec_eviction_pressure(
        &mut self,
        _mem: &mut CoreMem,
        _stats: &mut CoreStats,
        _now: Cycle,
    ) -> Vec<EngineAction> {
        Vec::new()
    }

    /// Records `cycles` elapsed cycles of the given class. Non-speculative
    /// engines add them to the global breakdown directly; speculative engines
    /// buffer them provisionally and re-attribute them to `Violation` on
    /// abort. Called with `cycles == 1` from the core's per-cycle loop and
    /// with larger counts when the event-driven kernel bulk-attributes a
    /// skipped quiescent stretch.
    fn record_cycles(&mut self, class: CycleClass, cycles: Cycle, stats: &mut CoreStats) {
        stats.breakdown.add(class, cycles);
    }

    /// The earliest future cycle at which the engine's own timers could
    /// change its behaviour (e.g. the end of an ASO commit drain). `None`
    /// means the engine has no pending timer; commit-on-violate deferral
    /// deadlines are tracked by the core's deferred-snoop list, not here.
    /// Engines whose `tick` compares against `now` must report the relevant
    /// deadline or the event-driven kernel could sleep past it.
    fn next_wake(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Whether this engine's cycle-start maintenance could act at `now`:
    /// false only if [`OrderingEngine::tick`], run on this cycle's starting
    /// state, would return no action, open or close no episode, commit
    /// nothing and change no engine state. `false` is thus a proof that
    /// `tick` is a no-op this cycle, and lets [`crate::Core::step`] batch
    /// the cycle without the tick stage; every other engine
    /// interaction (`try_retire`, `can_drain`, `on_load_issue`, even one
    /// that starts a speculative episode) still runs through the shared
    /// stage code, so engine side effects stay exact either way.
    ///
    /// The predicate is evaluated on the same state `tick` would see (the
    /// core's memory side before the cycle's drain), so an engine whose
    /// maintenance is a commit on a drain condition — the paper's
    /// opportunistic constant-time commit — answers with that condition
    /// and stays batched on every speculating cycle but the one
    /// the condition first holds. Debug builds check the proof on every
    /// full [`crate::Core::step`] it was made for.
    ///
    /// The conservative default (`true`) opts an engine out of batching
    /// entirely; engines must override it only with an exact predicate.
    fn tick_due(&self, _mem: &CoreMem, _now: Cycle) -> bool {
        true
    }

    /// Called once when the simulation ends so any still-provisional state
    /// (an open speculative episode) is folded into the final statistics.
    fn finalize(&mut self, _mem: &mut CoreMem, _stats: &mut CoreStats) {}
}

/// A minimal engine that retires everything as soon as it completes, with no
/// ordering constraints at all. It is *not* a legal consistency model — it
/// exists as a pipeline-only baseline for unit tests and as the simplest
/// example of implementing [`OrderingEngine`].
#[derive(Debug, Default, Clone)]
pub struct FreeRetireEngine;

impl OrderingEngine for FreeRetireEngine {
    fn name(&self) -> String {
        "free".to_string()
    }

    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        match ctx.entry.instr.kind {
            InstrKind::Store(addr, value) | InstrKind::Atomic(addr, value) => {
                if ctx.mem.store_to_l1(addr, value, None, &mut ctx.stats.counters) {
                    return RetireOutcome::Retired;
                }
                match ctx.mem.store_to_sb(addr, value, None, ctx.now, ctx.stats) {
                    Ok(()) => RetireOutcome::Retired,
                    Err(_) => RetireOutcome::Stall(StallReason::StoreBufferFull),
                }
            }
            _ => RetireOutcome::Retired,
        }
    }

    fn tick_due(&self, _mem: &CoreMem, _now: Cycle) -> bool {
        // No ordering constraints, no timers, no speculation: always a
        // pass-through for batching.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_kind_classification() {
        assert!(ExternalKind::Invalidate.is_write());
        assert!(!ExternalKind::Downgrade.is_write());
    }

    #[test]
    fn default_record_cycles_goes_straight_to_breakdown() {
        let mut engine = FreeRetireEngine;
        let mut stats = CoreStats::new();
        engine.record_cycles(CycleClass::Busy, 1, &mut stats);
        engine.record_cycles(CycleClass::SbDrain, 5, &mut stats);
        assert_eq!(stats.breakdown.get(CycleClass::Busy), 1);
        assert_eq!(stats.breakdown.get(CycleClass::SbDrain), 5);
    }

    #[test]
    fn default_next_wake_is_none() {
        assert_eq!(FreeRetireEngine.next_wake(17), None);
    }

    #[test]
    fn default_hooks_are_permissive() {
        let mut engine = FreeRetireEngine;
        assert!(!engine.speculating());
        assert!(!engine.subsumes_in_window());
        assert!(engine.can_drain(Some(1)));
        let mut stats = CoreStats::new();
        let cfg = ifence_types::MachineConfig::small_test(ifence_types::EngineKind::Conventional(
            ifence_types::ConsistencyModel::Rmo,
        ));
        let mut mem = CoreMem::new(ifence_types::CoreId(0), &cfg);
        assert!(engine.tick(&mut mem, &mut stats, 0).is_empty());
        let block = BlockAddr::containing(ifence_types::Addr::new(0x40), 64);
        assert_eq!(
            engine.on_external(&mut mem, &mut stats, block, ExternalKind::Invalidate, 0),
            ExternalOutcome::Ack
        );
        assert_eq!(
            engine.resolve_deferred(&mut mem, &mut stats, block, ExternalKind::Invalidate, 10, 0),
            DeferResolution::Ack
        );
    }
}
