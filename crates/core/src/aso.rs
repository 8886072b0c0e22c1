//! The ASO baseline (Wenisch et al., "Mechanisms for Store-wait-free
//! Multiprocessors", ISCA 2007), used by the paper's Section 6.4 comparison.
//!
//! ASO (atomic sequence ordering) also speculates selectively past ordering
//! stalls, but differs from InvisiFence in the mechanisms the comparison of
//! Figure 5 calls out:
//!
//! * speculative stores are tracked **per store** in a Scalable Store Buffer
//!   (SSB) rather than per block;
//! * commit is **not** constant time: the SSB must drain into the L2, and the
//!   cache's external interface is disabled while it does, delaying other
//!   processors' requests;
//! * multiple intermediate checkpoints are taken during an episode so a
//!   violation discards only the work after the checkpoint that first touched
//!   the conflicting block.
//!
//! The timing-relevant behaviour (commit latency proportional to the number of
//! speculative stores, partial rollback, external-request stalling during
//! commit) is modelled faithfully; the per-word valid bits ASO adds to the L1
//! are not needed because this simulator tracks data at word granularity
//! already.

use ifence_cpu::{
    CoreMem, DeferResolution, EngineAction, ExternalKind, ExternalOutcome, OrderingEngine,
    RetireCtx, RetireOutcome,
};
use ifence_stats::{CoreStats, ProvisionalBreakdown};
use ifence_types::{
    Addr, BlockAddr, ConsistencyModel, Cycle, CycleClass, InstrKind, MachineConfig, StallReason,
};
use std::collections::HashSet;

/// Maximum intermediate checkpoints per speculative episode.
const MAX_ASO_CHECKPOINTS: usize = 8;

#[derive(Debug, Clone, Default)]
struct AsoCheckpoint {
    resume_at: usize,
    retired: usize,
    read_set: HashSet<u64>,
    write_set: HashSet<u64>,
    prov: ProvisionalBreakdown,
}

/// The ASO ordering engine (see the module documentation).
#[derive(Debug)]
pub struct AsoEngine {
    model: ConsistencyModel,
    checkpoints: Vec<AsoCheckpoint>,
    checkpoint_interval: usize,
    ssb_capacity: usize,
    ssb_occupancy: usize,
    ssb_cycles_per_store: u64,
    committing_until: Option<Cycle>,
    must_retire_nonspec: bool,
}

impl AsoEngine {
    /// Creates an ASO engine enforcing `model` (the paper compares `ASOsc`).
    pub fn new(model: ConsistencyModel, cfg: &MachineConfig) -> Self {
        AsoEngine {
            model,
            checkpoints: Vec::new(),
            checkpoint_interval: cfg.speculation.aso_checkpoint_interval.max(1),
            ssb_capacity: cfg.speculation.ssb_entries.max(1),
            ssb_occupancy: 0,
            ssb_cycles_per_store: cfg.speculation.ssb_drain_per_cycle.max(1) as u64,
            committing_until: None,
            must_retire_nonspec: false,
        }
    }

    /// The consistency model this engine enforces.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// Current Scalable Store Buffer occupancy (speculative stores awaiting
    /// commit).
    pub fn ssb_occupancy(&self) -> usize {
        self.ssb_occupancy
    }

    /// True while the commit drain is in progress (external requests are
    /// being delayed).
    pub fn committing(&self) -> bool {
        self.committing_until.is_some()
    }

    fn speculating_now(&self) -> bool {
        !self.checkpoints.is_empty()
    }

    fn should_speculate(&self, ctx: &mut RetireCtx<'_>) -> bool {
        let sb_empty = ctx.mem.sb_empty();
        match ctx.entry.instr.kind {
            InstrKind::Op(_) => false,
            InstrKind::Load(_) => self.model == ConsistencyModel::Sc && !sb_empty,
            InstrKind::Fence(_) => self.model != ConsistencyModel::Sc && !sb_empty,
            InstrKind::Store(..) => self.model != ConsistencyModel::Rmo && !sb_empty,
            InstrKind::Atomic(addr, _) => {
                if self.model != ConsistencyModel::Rmo && !sb_empty {
                    return true;
                }
                let block = ctx.mem.block_of(addr);
                !ctx.mem.writable(block)
            }
        }
    }

    fn retire_non_speculative(&self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        match ctx.entry.instr.kind {
            InstrKind::Op(_) | InstrKind::Load(_) | InstrKind::Fence(_) => RetireOutcome::Retired,
            InstrKind::Store(addr, value) | InstrKind::Atomic(addr, value) => {
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

    fn spec_store(&mut self, ctx: &mut RetireCtx<'_>, addr: Addr, value: u64) -> RetireOutcome {
        if self.ssb_occupancy >= self.ssb_capacity {
            return RetireOutcome::Stall(StallReason::StoreBufferFull);
        }
        let block = ctx.mem.block_of(addr);
        let epoch = (self.checkpoints.len() - 1) as u8;
        let stored = if ctx.mem.writable(block) {
            // Clean dirty pre-speculative data exactly once per block so an
            // abort can recover it from the L2.
            let already_written =
                self.checkpoints.iter().any(|c| c.write_set.contains(&block.number()));
            if !already_written && ctx.mem.l1.clean_writeback(block).is_some() {
                ctx.stats.counters.writebacks += 1;
            }
            let word = addr.word_in_block(ctx.mem.block_bytes()).index();
            ctx.mem.l1.write_word(block, word, value)
        } else {
            ctx.mem.store_to_sb(addr, value, Some(epoch), ctx.now, ctx.stats).is_ok()
        };
        if !stored {
            return RetireOutcome::Stall(StallReason::StoreBufferFull);
        }
        self.ssb_occupancy += 1;
        let cp = self.checkpoints.last_mut().expect("speculating");
        cp.write_set.insert(block.number());
        RetireOutcome::Retired
    }

    fn retire_speculative(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        // Take an intermediate checkpoint periodically so violations discard
        // less work.
        let take_new =
            self.checkpoints.last().map(|c| c.retired >= self.checkpoint_interval).unwrap_or(false)
                && self.checkpoints.len() < MAX_ASO_CHECKPOINTS;
        if take_new {
            self.checkpoints
                .push(AsoCheckpoint { resume_at: ctx.checkpoint_index(), ..Default::default() });
        }
        let outcome = match ctx.entry.instr.kind {
            InstrKind::Op(_) | InstrKind::Fence(_) => RetireOutcome::Retired,
            InstrKind::Load(addr) => {
                let block = ctx.mem.block_of(addr);
                self.checkpoints.last_mut().expect("speculating").read_set.insert(block.number());
                RetireOutcome::Retired
            }
            InstrKind::Store(addr, value) => self.spec_store(ctx, addr, value),
            InstrKind::Atomic(addr, value) => {
                let block = ctx.mem.block_of(addr);
                self.checkpoints.last_mut().expect("speculating").read_set.insert(block.number());
                self.spec_store(ctx, addr, value)
            }
        };
        if outcome == RetireOutcome::Retired {
            if let Some(c) = self.checkpoints.last_mut() {
                c.retired += 1;
            }
        }
        outcome
    }

    fn conflict_position(&self, block: BlockAddr, is_write: bool) -> Option<usize> {
        self.checkpoints.iter().position(|c| {
            c.write_set.contains(&block.number())
                || (is_write && c.read_set.contains(&block.number()))
        })
    }

    fn abort_from(&mut self, position: usize, mem: &mut CoreMem, stats: &mut CoreStats) -> usize {
        let resume_at = self.checkpoints[position].resume_at;
        let discarded: Vec<AsoCheckpoint> = self.checkpoints.drain(position..).collect();
        let kept_writes: HashSet<u64> =
            self.checkpoints.iter().flat_map(|c| c.write_set.iter().copied()).collect();
        for (offset, mut cp) in discarded.into_iter().enumerate() {
            for block_number in cp.write_set.iter() {
                if kept_writes.contains(block_number) {
                    continue;
                }
                let block = BlockAddr::containing(
                    ifence_types::Addr::new(block_number * mem.block_bytes() as u64),
                    mem.block_bytes(),
                );
                // Discard the speculatively-written data; the pre-speculative
                // value was cleaned into the L2 and will be refetched.
                let _ = mem.l1.external_invalidate(block);
            }
            mem.sb.flash_invalidate_exact((position + offset) as u8);
            cp.prov.abort_into(&mut stats.breakdown);
            stats.counters.speculations_aborted += 1;
            stats.hists.episode_len.record(cp.retired as u64);
            stats.trace.emit(ifence_stats::TraceKind::SpecAbort, cp.retired as u64);
            self.ssb_occupancy = self.ssb_occupancy.saturating_sub(cp.write_set.len());
        }
        if self.checkpoints.is_empty() {
            self.ssb_occupancy = 0;
            self.must_retire_nonspec = true;
        }
        resume_at
    }

    fn commit_all(&mut self, stats: &mut CoreStats, now: Cycle) {
        let drained_stores = self.ssb_occupancy as u64;
        self.committing_until = Some(now + drained_stores * self.ssb_cycles_per_store);
        // ASO commits the whole atomic sequence as one speculation; its
        // episode length is the sum over the sequence's checkpoints.
        let mut retired = 0u64;
        for mut cp in self.checkpoints.drain(..) {
            cp.prov.commit_into(&mut stats.breakdown);
            retired += cp.retired as u64;
        }
        stats.counters.speculations_committed += 1;
        stats.hists.episode_len.record(retired);
        stats.trace.emit(ifence_stats::TraceKind::SpecCommit, retired);
        self.ssb_occupancy = 0;
    }
}

impl OrderingEngine for AsoEngine {
    fn name(&self) -> String {
        format!("ASO{}", self.model.label())
    }

    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        if self.speculating_now() {
            return self.retire_speculative(ctx);
        }
        if self.should_speculate(ctx) {
            if self.must_retire_nonspec {
                return RetireOutcome::Stall(StallReason::StoreBufferDrain);
            }
            ctx.stats.counters.speculations_started += 1;
            ctx.stats.trace.emit(ifence_stats::TraceKind::SpecBegin, 1);
            self.checkpoints
                .push(AsoCheckpoint { resume_at: ctx.checkpoint_index(), ..Default::default() });
            return self.retire_speculative(ctx);
        }
        let outcome = self.retire_non_speculative(ctx);
        if outcome == RetireOutcome::Retired {
            self.must_retire_nonspec = false;
        }
        outcome
    }

    fn tick(&mut self, mem: &mut CoreMem, stats: &mut CoreStats, now: Cycle) -> Vec<EngineAction> {
        if let Some(until) = self.committing_until {
            if now >= until {
                self.committing_until = None;
            }
        }
        // ASO commits an atomic sequence once all of its store misses have
        // completed; the drain of the SSB into the L2 then takes time
        // proportional to the number of stores.
        if self.speculating_now() && mem.sb_empty() {
            self.commit_all(stats, now);
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
        // While the SSB drains into the L2 the external interface is disabled:
        // incoming requests wait until the drain finishes.
        if let Some(until) = self.committing_until {
            if now < until {
                return ExternalOutcome::Defer { until };
            }
        }
        match self.conflict_position(block, kind.is_write()) {
            None => ExternalOutcome::Ack,
            Some(position) => {
                let resume_at = self.abort_from(position, mem, stats);
                ExternalOutcome::AckAfterRollback { resume_at }
            }
        }
    }

    fn resolve_deferred(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        block: BlockAddr,
        kind: ExternalKind,
        _deadline: Cycle,
        now: Cycle,
    ) -> DeferResolution {
        if let Some(until) = self.committing_until {
            if now < until {
                return DeferResolution::Wait;
            }
        }
        match self.conflict_position(block, kind.is_write()) {
            None => DeferResolution::Ack,
            Some(position) => {
                let resume_at = self.abort_from(position, mem, stats);
                DeferResolution::AckAfterRollback { resume_at }
            }
        }
    }

    fn speculating(&self) -> bool {
        self.speculating_now()
    }

    fn rollback_floor(&self) -> Option<usize> {
        self.checkpoints.first().map(|c| c.resume_at)
    }

    fn on_spec_eviction_pressure(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        now: Cycle,
    ) -> Vec<EngineAction> {
        if !self.speculating_now() {
            return Vec::new();
        }
        if mem.sb_empty() {
            self.commit_all(stats, now);
            return Vec::new();
        }
        stats.counters.speculations_aborted_structural += 1;
        let resume_at = self.abort_from(0, mem, stats);
        vec![EngineAction::Rollback { resume_at }]
    }

    fn record_cycles(&mut self, class: CycleClass, cycles: Cycle, stats: &mut CoreStats) {
        match self.checkpoints.last_mut() {
            Some(cp) => cp.prov.add(class, cycles),
            None => stats.breakdown.add(class, cycles),
        }
    }

    fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        // The only time-triggered transition in this engine: the end of the
        // SSB commit drain, when the external interface re-enables.
        self.committing_until.filter(|&until| until > now)
    }

    fn tick_due(&self, mem: &CoreMem, now: Cycle) -> bool {
        // `tick` acts in exactly two cases: the commit drain's end has come
        // (it clears the timer), or an atomic sequence is in flight and its
        // store misses have all completed (it commits). A retirement that
        // opens a checkpoint runs through `try_retire` on the batched path
        // too, and this gate sees the new sequence from the next cycle on.
        self.committing_until.is_some_and(|until| now >= until)
            || (self.speculating_now() && mem.sb_empty())
    }

    fn finalize(&mut self, _mem: &mut CoreMem, stats: &mut CoreStats) {
        if !self.checkpoints.is_empty() {
            stats.counters.speculations_committed += 1;
            let retired: u64 = self.checkpoints.iter().map(|cp| cp.retired as u64).sum();
            stats.hists.episode_len.record(retired);
            stats.trace.emit(ifence_stats::TraceKind::SpecCommit, retired);
        }
        for mut cp in self.checkpoints.drain(..) {
            cp.prov.commit_into(&mut stats.breakdown);
        }
        self.ssb_occupancy = 0;
        self.committing_until = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_coherence::{Delivery, SnoopReply, TxnId};
    use ifence_cpu::Core;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{CoreId, EngineKind, Instruction, Program};

    fn cfg() -> MachineConfig {
        let mut m = MachineConfig::small_test(EngineKind::Aso(ConsistencyModel::Sc));
        m.speculation.aso_checkpoint_interval = 4;
        m
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn core_with(program: Program) -> Core {
        let machine = cfg();
        Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(AsoEngine::new(ConsistencyModel::Sc, &machine)),
        )
    }

    fn prefill(core: &mut Core, blocks: &[u64]) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), LineState::Exclusive, BlockData::zeroed());
        }
    }

    #[test]
    fn name_matches_paper_label() {
        assert_eq!(AsoEngine::new(ConsistencyModel::Sc, &cfg()).name(), "ASOsc");
        assert_eq!(AsoEngine::new(ConsistencyModel::Sc, &cfg()).model(), ConsistencyModel::Sc);
    }

    #[test]
    fn speculates_past_sc_ordering_stall_and_commits_with_drain_latency() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger
        for i in 0..10u64 {
            program.push(Instruction::load(Addr::new(0x1000)));
            program.push(Instruction::store(Addr::new(0x2000), i)); // speculative store hits
        }
        let mut core = core_with(program);
        prefill(&mut core, &[0x1000, 0x2000]);
        for now in 0..30 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.stats().counters.speculations_started >= 1);
        // Service the store miss: the episode commits.
        core.handle_delivery(
            Delivery::Fill {
                core: CoreId(0),
                block: blk(0x9000),
                state: LineState::Exclusive,
                data: BlockData::zeroed(),
                txn: TxnId(0),
            },
            30,
        );
        let mut commit_seen = false;
        for now in 31..400 {
            core.step(now);
            if core.stats().counters.speculations_committed > 0 {
                commit_seen = true;
            }
            if core.finished() {
                break;
            }
        }
        assert!(commit_seen);
        assert!(core.finished());
        assert_eq!(core.stats().counters.speculations_aborted, 0);
        assert_eq!(core.stats().breakdown.get(CycleClass::SbDrain), 0);
    }

    #[test]
    fn commit_drain_defers_external_requests() {
        let machine = cfg();
        let mut engine = AsoEngine::new(ConsistencyModel::Sc, &machine);
        let mut mem = CoreMem::new(CoreId(0), &machine);
        let mut stats = CoreStats::new();
        // Force a commit with a non-trivial SSB occupancy.
        engine.checkpoints.push(AsoCheckpoint::default());
        engine.ssb_occupancy = 100;
        engine.commit_all(&mut stats, 1000);
        assert!(engine.committing());
        // During the drain window external requests are deferred...
        let outcome =
            engine.on_external(&mut mem, &mut stats, blk(0x1000), ExternalKind::Invalidate, 1010);
        assert!(matches!(outcome, ExternalOutcome::Defer { until } if until >= 1100));
        // ...and acknowledged once it finishes.
        let res = engine.resolve_deferred(
            &mut mem,
            &mut stats,
            blk(0x1000),
            ExternalKind::Invalidate,
            1100,
            1200,
        );
        assert_eq!(res, DeferResolution::Ack);
    }

    #[test]
    fn violation_rolls_back_to_intermediate_checkpoint() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger
                                                                // First checkpoint's work touches 0x1000; after the checkpoint
                                                                // interval, later work touches 0x3000.
        for _ in 0..6 {
            program.push(Instruction::load(Addr::new(0x1000)));
        }
        for _ in 0..6 {
            program.push(Instruction::load(Addr::new(0x3000)));
        }
        let mut core = core_with(program);
        prefill(&mut core, &[0x1000, 0x3000]);
        for now in 0..40 {
            core.step(now);
        }
        assert!(core.speculating());
        let retired_before = core.retired_count();
        assert_eq!(retired_before, 13, "everything speculatively retired");
        // A conflict on the *later* block rolls back only to the intermediate
        // checkpoint, keeping the earlier speculative work.
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x3000),
                txn: TxnId(7),
                requester: CoreId(1),
                recall: false,
            },
            40,
        );
        assert!(matches!(reply, Some(SnoopReply::Ack { .. })));
        assert!(core.retired_count() > 1, "partial rollback keeps pre-checkpoint work");
        assert!(core.retired_count() < retired_before);
        assert!(core.speculating(), "the older checkpoint survives");
        assert!(core.stats().counters.speculations_aborted >= 1);
    }

    #[test]
    fn tick_due_at_commit_drain_deadline() {
        let machine = cfg();
        let mut mem = CoreMem::new(CoreId(0), &machine);
        let mut stats = CoreStats::new();
        let now = 100;
        for (until, due) in [(now - 1, true), (now, true), (now + 1, false)] {
            let mut engine = AsoEngine::new(ConsistencyModel::Sc, &machine);
            engine.committing_until = Some(until);
            assert_eq!(engine.tick_due(&mem, now), due, "drain ending at {until}");
            assert!(engine.tick(&mut mem, &mut stats, now).is_empty());
            assert_eq!(engine.committing(), !due, "tick clears the timer exactly when due");
        }
        // An in-flight sequence becomes due when its store misses complete.
        let mut engine = AsoEngine::new(ConsistencyModel::Sc, &machine);
        engine.checkpoints.push(AsoCheckpoint::default());
        mem.sb.push(Addr::new(0x3000), 1, Some(0)).unwrap();
        assert!(!engine.tick_due(&mem, now));
        engine.tick(&mut mem, &mut stats, now);
        assert!(engine.speculating());
        mem.sb.flash_invalidate_exact(0);
        assert!(engine.tick_due(&mem, now));
        engine.tick(&mut mem, &mut stats, now);
        assert!(!engine.speculating());
    }
}
