//! InvisiFence-Continuous (Section 4.2): execute everything inside
//! speculative chunks, subsuming the in-window ordering mechanism.

use crate::kernel::SpeculationKernel;
use ifence_cpu::{
    CoreMem, DeferResolution, EngineAction, ExternalKind, ExternalOutcome, OrderingEngine,
    RetireCtx, RetireOutcome,
};
use ifence_stats::CoreStats;
use ifence_types::{BlockAddr, Cycle, CycleClass, InstrKind, MachineConfig, StallReason};

/// InvisiFence-Continuous: all memory operations execute speculatively as part
/// of a chunk of at least `min_chunk` instructions. Loads mark their
/// speculatively-read bits at execute time, so no separate in-window ordering
/// mechanism (load-queue snooping) is needed. Two in-flight checkpoints
/// pipeline the commit of a closed chunk with execution of its successor.
///
/// With `commit_on_violate` enabled, an external request that would abort a
/// chunk is instead deferred for a bounded interval, giving the chunk a chance
/// to commit first (Section 6.6) — the policy that recovers most of the
/// performance continuous speculation otherwise loses to violations.
#[derive(Debug)]
pub struct InvisiContinuousEngine {
    kernel: SpeculationKernel,
    commit_on_violate: bool,
    cov_timeout: Cycle,
    min_chunk: usize,
    retire_one_nonspec: bool,
    /// Blocks read at execute time before the first chunk of an episode has
    /// opened; they are marked speculatively-read as soon as it does. Until
    /// then the core's ordinary load-queue snooping covers them (see
    /// [`InvisiContinuousEngine::subsumes_in_window`]).
    pending_reads: Vec<BlockAddr>,
}

impl InvisiContinuousEngine {
    /// Creates a continuous engine from the machine configuration (checkpoint
    /// count, minimum chunk size, commit-on-violate policy and timeout).
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::with_speculation(cfg.speculation)
    }

    /// Creates a continuous engine from just the speculation parameters (the
    /// only part of the machine configuration it needs — the construction
    /// path avoids cloning a whole `MachineConfig` per core).
    pub fn with_speculation(speculation: ifence_types::SpeculationConfig) -> Self {
        InvisiContinuousEngine {
            kernel: SpeculationKernel::new(speculation.checkpoints.max(2)),
            commit_on_violate: speculation.commit_on_violate,
            cov_timeout: speculation.cov_timeout,
            min_chunk: speculation.min_chunk_instructions.max(1),
            retire_one_nonspec: false,
            pending_reads: Vec::new(),
        }
    }

    /// Access to the underlying speculation mechanisms (used by tests).
    pub fn kernel(&self) -> &SpeculationKernel {
        &self.kernel
    }

    /// Whether the commit-on-violate policy is enabled.
    pub fn commit_on_violate(&self) -> bool {
        self.commit_on_violate
    }

    /// True if the youngest chunk holds at least `min_chunk` instructions —
    /// the size at which a lone chunk commits as soon as it drains.
    fn lone_chunk_full(&self) -> bool {
        self.kernel.youngest().is_some_and(|e| e.retired >= self.min_chunk)
    }

    fn abort(&mut self, position: usize, mem: &mut CoreMem, stats: &mut CoreStats) -> usize {
        let resume = self.kernel.abort_from(position, mem, stats);
        self.pending_reads.clear();
        if !self.kernel.speculating() {
            // Forward progress: re-execute the first instruction outside any
            // chunk before chunked execution resumes.
            self.retire_one_nonspec = true;
        }
        resume
    }

    fn retire_non_speculative(&self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        // The forward-progress instruction retires outside any chunk, so it
        // must satisfy SC ordering conventionally: memory operations wait for
        // the store buffer to drain first (fences and plain ops are free).
        match ctx.entry.instr.kind {
            InstrKind::Op(_) | InstrKind::Fence(_) => RetireOutcome::Retired,
            InstrKind::Load(_) => {
                if ctx.mem.sb_empty() {
                    RetireOutcome::Retired
                } else {
                    RetireOutcome::Stall(StallReason::StoreBufferDrain)
                }
            }
            InstrKind::Store(addr, value) | InstrKind::Atomic(addr, value) => {
                if !ctx.mem.sb_empty() {
                    return RetireOutcome::Stall(StallReason::StoreBufferDrain);
                }
                if ctx.mem.store_to_l1(addr, value, None, &mut ctx.stats.counters) {
                    return RetireOutcome::Retired;
                }
                match ctx.mem.store_to_sb(addr, value, None, ctx.now, ctx.stats) {
                    Ok(()) => RetireOutcome::Retired,
                    Err(_) => RetireOutcome::Stall(StallReason::StoreBufferFull),
                }
            }
        }
    }
}

impl OrderingEngine for InvisiContinuousEngine {
    fn name(&self) -> String {
        if self.commit_on_violate {
            "Invisi_cont_CoV".to_string()
        } else {
            "Invisi_cont".to_string()
        }
    }

    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        if self.retire_one_nonspec {
            let outcome = self.retire_non_speculative(ctx);
            if outcome == RetireOutcome::Retired {
                self.retire_one_nonspec = false;
            }
            return outcome;
        }
        if !self.kernel.speculating() {
            let slot = self
                .kernel
                .begin(ctx.checkpoint_index(), ctx.stats)
                .expect("a checkpoint is free when no chunk is open");
            // Loads that already executed become part of this chunk.
            for block in self.pending_reads.drain(..) {
                if ctx.mem.l1.contains(block) {
                    ctx.mem.l1.mark_spec_read(block, slot);
                }
            }
        } else if self.kernel.youngest().map(|e| e.retired).unwrap_or(0) >= self.min_chunk
            && self.kernel.has_free_slot()
        {
            // Close the current chunk and open its successor; the closed chunk
            // commits in the background once its stores complete.
            self.kernel.begin(ctx.checkpoint_index(), ctx.stats);
        }
        self.kernel.retire_speculative(ctx)
    }

    fn on_load_issue(&mut self, mem: &mut CoreMem, block: BlockAddr) {
        // Continuous speculation marks reads at execute time (Section 4.2), so
        // in-window reorderings are covered by the same violation-detection
        // mechanism as post-retirement ones.
        match self.kernel.current_slot() {
            Some(slot) => {
                if mem.l1.contains(block) {
                    mem.l1.mark_spec_read(block, slot);
                }
            }
            // Before the first chunk opens, remember the read; it is marked
            // when the chunk begins (and the core's load-queue snooping covers
            // the interim — see `subsumes_in_window`).
            None => self.pending_reads.push(block),
        }
    }

    fn tick(&mut self, mem: &mut CoreMem, stats: &mut CoreStats, _now: Cycle) -> Vec<EngineAction> {
        // Pipelined chunk commit: a closed chunk commits once its stores have
        // drained.
        while self.kernel.try_commit_oldest(mem, stats, true) {}
        // If only one (large enough) chunk is open and everything has drained,
        // commit it too so chunks do not grow without bound.
        if self.kernel.episode_count() == 1 && self.lone_chunk_full() {
            self.kernel.try_commit_oldest(mem, stats, false);
        }
        Vec::new()
    }

    fn on_external(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        block: BlockAddr,
        kind: ExternalKind,
        now: Cycle,
    ) -> ExternalOutcome {
        match self.kernel.conflict_position(mem, block, kind.is_write()) {
            None => ExternalOutcome::Ack,
            Some(position) => {
                if self.commit_on_violate {
                    ExternalOutcome::Defer { until: now + self.cov_timeout }
                } else {
                    let resume_at = self.abort(position, mem, stats);
                    ExternalOutcome::AckAfterRollback { resume_at }
                }
            }
        }
    }

    fn resolve_deferred(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        block: BlockAddr,
        kind: ExternalKind,
        deadline: Cycle,
        now: Cycle,
    ) -> DeferResolution {
        match self.kernel.conflict_position(mem, block, kind.is_write()) {
            None => {
                stats.counters.cov_commits += 1;
                DeferResolution::Ack
            }
            Some(position) => {
                if now >= deadline {
                    stats.counters.cov_timeouts += 1;
                    let resume_at = self.abort(position, mem, stats);
                    DeferResolution::AckAfterRollback { resume_at }
                } else {
                    DeferResolution::Wait
                }
            }
        }
    }

    fn speculating(&self) -> bool {
        self.kernel.speculating()
    }

    fn rollback_floor(&self) -> Option<usize> {
        self.kernel.oldest().map(|e| e.checkpoint)
    }

    fn subsumes_in_window(&self) -> bool {
        // The paper's continuous mode subsumes load-queue snooping because a
        // load's speculatively-read bit protects it from execute to commit.
        // In this model a load can execute while one chunk is youngest and
        // retire into the next, so its execute-time marking may be cleared by
        // the earlier chunk's commit before it retires; keeping the core's
        // conventional load-queue snoop active closes that window. This is a
        // conservative approximation (slightly more in-window replays, same
        // ordering guarantees) documented in DESIGN.md.
        false
    }

    fn can_drain(&self, epoch: Option<u8>) -> bool {
        self.kernel.can_drain(epoch)
    }

    fn on_spec_eviction_pressure(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        _now: Cycle,
    ) -> Vec<EngineAction> {
        if !self.kernel.speculating() {
            return Vec::new();
        }
        if self.kernel.commit_all(mem, stats) {
            return Vec::new();
        }
        stats.counters.speculations_aborted_structural += 1;
        let resume_at = self.abort(0, mem, stats);
        vec![EngineAction::Rollback { resume_at }]
    }

    fn record_cycles(&mut self, class: CycleClass, cycles: Cycle, stats: &mut CoreStats) {
        self.kernel.record_cycles(class, cycles, stats);
    }

    fn tick_due(&self, mem: &CoreMem, _now: Cycle) -> bool {
        // Both of `tick`'s commits need the oldest chunk commit-ready; the
        // pipelined one additionally needs a successor chunk open, the
        // lone-chunk one a chunk of at least `min_chunk` instructions.
        // Everything else about a chunk — growing, closing, opening its
        // successor — happens in `try_retire`, which the batched path runs.
        self.kernel.commit_ready(mem)
            && (self.kernel.episode_count() >= 2 || self.lone_chunk_full())
    }

    fn finalize(&mut self, mem: &mut CoreMem, stats: &mut CoreStats) {
        self.kernel.finalize(mem, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_coherence::{Delivery, TxnId};
    use ifence_cpu::Core;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{Addr, CoreId, EngineKind, Instruction, Program};

    fn cfg(cov: bool) -> MachineConfig {
        let mut m =
            MachineConfig::small_test(EngineKind::InvisiContinuous { commit_on_violate: cov });
        m.speculation.min_chunk_instructions = 8;
        m
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn core_with(cov: bool, program: Program) -> Core {
        let machine = cfg(cov);
        Core::new(CoreId(0), program, &machine, Box::new(InvisiContinuousEngine::new(&machine)))
    }

    fn core_with_chunk(cov: bool, min_chunk: usize, program: Program) -> Core {
        let mut machine = cfg(cov);
        machine.speculation.min_chunk_instructions = min_chunk;
        Core::new(CoreId(0), program, &machine, Box::new(InvisiContinuousEngine::new(&machine)))
    }

    fn prefill(core: &mut Core, blocks: &[u64]) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), LineState::Exclusive, BlockData::zeroed());
        }
    }

    #[test]
    fn names_distinguish_cov() {
        assert_eq!(InvisiContinuousEngine::new(&cfg(false)).name(), "Invisi_cont");
        assert_eq!(InvisiContinuousEngine::new(&cfg(true)).name(), "Invisi_cont_CoV");
        assert!(InvisiContinuousEngine::new(&cfg(true)).commit_on_violate());
    }

    #[test]
    fn executes_continuously_in_chunks_and_commits() {
        let mut program = Program::new();
        for i in 0..64u64 {
            program.push(Instruction::load(Addr::new(0x1000 + (i % 4) * 64)));
            program.push(Instruction::store(Addr::new(0x2000 + (i % 4) * 64), i));
        }
        let mut core = core_with(false, program);
        prefill(&mut core, &[0x1000, 0x1040, 0x1080, 0x10c0, 0x2000, 0x2040, 0x2080, 0x20c0]);
        for now in 0..4000 {
            core.step(now);
            if core.finished() {
                break;
            }
        }
        core.finalize();
        let stats = core.stats();
        assert!(stats.counters.speculations_started >= 2, "multiple chunks opened");
        assert!(stats.counters.speculations_committed >= 1, "chunks commit");
        assert_eq!(stats.counters.speculations_aborted, 0);
        // Essentially all execution time is speculative (Figure 4: ~100%).
        let frac = stats.counters.cycles_speculating as f64 / stats.breakdown.total().max(1) as f64;
        assert!(frac > 0.9, "continuous mode speculates nearly always, got {frac}");
        assert_eq!(core.retired_count(), 128);
    }

    #[test]
    fn violation_aborts_and_reexecutes() {
        let mut program = Program::new();
        program.push(Instruction::load(Addr::new(0x1000)));
        for i in 0..16u64 {
            program.push(Instruction::store(Addr::new(0x2000), i));
        }
        // Keep the core busy past the point of the invalidation so the chunk
        // (and its read bits) is still live when the conflict arrives.
        program.push(Instruction::op(200));
        // A large minimum chunk size keeps the chunk open (and its read bits
        // live) until the conflicting invalidation arrives.
        let mut core = core_with_chunk(false, 1000, program);
        prefill(&mut core, &[0x1000, 0x2000]);
        for now in 0..10 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.mem.l1.is_spec_read(blk(0x1000), 0));
        core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(1),
                requester: CoreId(1),
                recall: false,
            },
            10,
        );
        assert_eq!(core.stats().counters.speculations_aborted, 1);
        assert!(core.stats().breakdown.get(CycleClass::Violation) > 0);
        // The invalidated block must be refetched: answer the GetS.
        let mut finished = false;
        for now in 11..4000 {
            for req in core.take_requests() {
                core.handle_delivery(
                    Delivery::Fill {
                        core: CoreId(0),
                        block: req.block,
                        state: LineState::Exclusive,
                        data: BlockData::zeroed(),
                        txn: TxnId(2),
                    },
                    now + 20,
                );
            }
            core.step(now);
            if core.finished() {
                finished = true;
                break;
            }
        }
        assert!(finished);
        assert_eq!(core.retired_count(), 18);
        assert_eq!(core.mem.read_value(Addr::new(0x2000)), Some(15));
    }

    #[test]
    fn loads_mark_read_bits_at_execute_not_retirement() {
        let mut program = Program::new();
        // A quick op opens the first chunk, then a long-latency op keeps the
        // younger load from retiring while it executes.
        program.push(Instruction::op(1));
        program.push(Instruction::op(200));
        program.push(Instruction::load(Addr::new(0x1000)));
        let mut core = core_with_chunk(false, 1000, program);
        prefill(&mut core, &[0x1000]);
        for now in 0..10 {
            core.step(now);
        }
        assert_eq!(core.retired_count(), 1, "only the chunk-opening op has retired");
        assert!(
            core.mem.l1.is_spec_read(blk(0x1000), 0),
            "the un-retired load already marked its block speculatively read"
        );
    }

    #[test]
    fn cov_defers_and_avoids_abort_when_chunk_commits() {
        let mut program = Program::new();
        for i in 0..24u64 {
            program.push(Instruction::load(Addr::new(0x1000)));
            program.push(Instruction::store(Addr::new(0x2000), i));
        }
        let mut core = core_with(true, program);
        prefill(&mut core, &[0x1000, 0x2000]);
        for now in 0..6 {
            core.step(now);
        }
        assert!(core.speculating());
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(5),
                requester: CoreId(1),
                recall: false,
            },
            6,
        );
        assert!(matches!(reply, Some(ifence_coherence::SnoopReply::Defer { .. })));
        // Keep running: chunks commit (no outstanding misses), clearing the
        // conflict, so the deferred request is acknowledged without an abort.
        let mut acked = false;
        for now in 7..4000 {
            core.step(now);
            for r in core.take_replies() {
                if matches!(r, ifence_coherence::SnoopReply::Ack { .. }) {
                    acked = true;
                }
            }
            if core.finished() {
                break;
            }
        }
        assert!(acked);
        assert_eq!(core.stats().counters.speculations_aborted, 0);
        assert!(core.stats().counters.cov_commits >= 1);
    }

    fn retire_op(
        engine: &mut InvisiContinuousEngine,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        index: usize,
    ) {
        let entry = ifence_cpu::RobEntry {
            program_index: index,
            dispatch_id: index as u64,
            instr: Instruction::op(1),
            block: None,
            performed_read: false,
            bound_at_head: true,
            loaded_value: None,
        };
        let mut ctx = RetireCtx { mem, stats, now: 0, entry: &entry };
        assert_eq!(engine.try_retire(&mut ctx), RetireOutcome::Retired);
    }

    #[test]
    fn tick_due_lone_chunk_at_min_chunk_boundary() {
        let machine = cfg(false);
        let min_chunk = machine.speculation.min_chunk_instructions;
        let mut engine = InvisiContinuousEngine::new(&machine);
        let mut mem = CoreMem::new(CoreId(0), &machine);
        let mut stats = CoreStats::new();
        for index in 0..min_chunk - 1 {
            retire_op(&mut engine, &mut mem, &mut stats, index);
        }
        assert_eq!(engine.kernel().episode_count(), 1);
        // One short of `min_chunk`: drained, but too small to commit alone.
        assert!(!engine.tick_due(&mem, 0));
        assert!(engine.tick(&mut mem, &mut stats, 0).is_empty());
        assert!(engine.speculating());
        retire_op(&mut engine, &mut mem, &mut stats, min_chunk - 1);
        assert_eq!(engine.kernel().youngest().unwrap().retired, min_chunk);
        assert!(engine.tick_due(&mem, 0));
        assert!(engine.tick(&mut mem, &mut stats, 0).is_empty());
        assert!(!engine.speculating(), "the full lone chunk committed");
        assert_eq!(stats.counters.speculations_committed, 1);
    }
}
