//! InvisiFence-Selective (Section 4.1): speculate only when retirement would
//! otherwise stall for a memory-ordering constraint.

use crate::kernel::SpeculationKernel;
use ifence_cpu::{
    CoreMem, DeferResolution, EngineAction, ExternalKind, ExternalOutcome, OrderingEngine,
    RetireCtx, RetireOutcome,
};
use ifence_stats::CoreStats;
use ifence_types::{
    Addr, BlockAddr, ConsistencyModel, Cycle, CycleClass, InstrKind, MachineConfig, StallReason,
};

/// Outcome of attempting to retire an instruction non-speculatively under the
/// target consistency model.
enum NonSpecOutcome {
    /// Retired without speculation (side effects already applied).
    Retired,
    /// Structural stall (store buffer full); speculation would not help.
    Stall(StallReason),
    /// The model imposes an ordering stall here — the trigger to speculate.
    Speculate,
}

/// InvisiFence-Selective: post-retirement speculation initiated only on
/// ordering-induced retirement stalls, with constant-time opportunistic commit
/// as soon as the store buffer drains.
///
/// The engine enforces SC, TSO, or RMO depending on `model`; the speculation
/// triggers per model follow Figure 4:
///
/// * **SC** — a load (or store, or atomic) is ready to retire while the store
///   buffer is not empty, or an atomic lacks write permission.
/// * **TSO** — a store or atomic is ready to retire while the store buffer is
///   not empty (the unordered coalescing buffer could otherwise reorder
///   stores), a fence with a non-empty buffer, or an atomic without write
///   permission.
/// * **RMO** — a memory fence with a non-empty store buffer, or an atomic
///   stalled on a store miss.
#[derive(Debug)]
pub struct InvisiSelectiveEngine {
    model: ConsistencyModel,
    kernel: SpeculationKernel,
    commit_on_violate: bool,
    cov_timeout: Cycle,
    second_checkpoint_after: usize,
    must_retire_nonspec: bool,
}

impl InvisiSelectiveEngine {
    /// Creates a selective engine enforcing `model` with the speculation
    /// parameters of `cfg` (checkpoint count, commit-on-violate policy).
    pub fn new(model: ConsistencyModel, cfg: &MachineConfig) -> Self {
        Self::with_speculation(model, cfg.speculation)
    }

    /// Creates a selective engine from just the speculation parameters (the
    /// only part of the machine configuration it needs — the construction
    /// path avoids cloning a whole `MachineConfig` per core).
    pub fn with_speculation(
        model: ConsistencyModel,
        speculation: ifence_types::SpeculationConfig,
    ) -> Self {
        InvisiSelectiveEngine {
            model,
            kernel: SpeculationKernel::new(speculation.checkpoints),
            commit_on_violate: speculation.commit_on_violate,
            cov_timeout: speculation.cov_timeout,
            second_checkpoint_after: speculation.aso_checkpoint_interval.max(1),
            must_retire_nonspec: false,
        }
    }

    /// Creates an engine with an explicit checkpoint count (1 or 2),
    /// independent of a full machine configuration.
    pub fn with_checkpoints(model: ConsistencyModel, checkpoints: usize) -> Self {
        let mut cfg = MachineConfig::with_engine(ifence_types::EngineKind::InvisiSelective(model));
        cfg.speculation.checkpoints = checkpoints;
        Self::new(model, &cfg)
    }

    /// The consistency model this engine enforces.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// Access to the underlying speculation mechanisms (used by tests).
    pub fn kernel(&self) -> &SpeculationKernel {
        &self.kernel
    }

    fn store_non_speculative(
        &self,
        ctx: &mut RetireCtx<'_>,
        addr: Addr,
        value: u64,
    ) -> NonSpecOutcome {
        if ctx.mem.store_to_l1(addr, value, None, &mut ctx.stats.counters) {
            return NonSpecOutcome::Retired;
        }
        match ctx.mem.store_to_sb(addr, value, None, ctx.now, ctx.stats) {
            Ok(()) => NonSpecOutcome::Retired,
            Err(_) => NonSpecOutcome::Stall(StallReason::StoreBufferFull),
        }
    }

    fn retire_non_speculative(&self, ctx: &mut RetireCtx<'_>) -> NonSpecOutcome {
        let sb_empty = ctx.mem.sb_empty();
        match ctx.entry.instr.kind {
            InstrKind::Op(_) => NonSpecOutcome::Retired,
            InstrKind::Load(_) => {
                if self.model == ConsistencyModel::Sc && !sb_empty {
                    NonSpecOutcome::Speculate
                } else {
                    NonSpecOutcome::Retired
                }
            }
            InstrKind::Fence(_) => {
                if self.model != ConsistencyModel::Sc && !sb_empty {
                    NonSpecOutcome::Speculate
                } else {
                    NonSpecOutcome::Retired
                }
            }
            InstrKind::Store(addr, value) => match self.model {
                // RMO never orders plain stores: hit into the cache, miss into
                // the unordered buffer.
                ConsistencyModel::Rmo => self.store_non_speculative(ctx, addr, value),
                // SC/TSO must preserve store-store order, which the unordered
                // coalescing buffer cannot: a store behind other pending
                // stores triggers speculation.
                ConsistencyModel::Sc | ConsistencyModel::Tso => {
                    if !sb_empty {
                        NonSpecOutcome::Speculate
                    } else {
                        self.store_non_speculative(ctx, addr, value)
                    }
                }
            },
            InstrKind::Atomic(addr, value) => {
                let needs_empty_sb = self.model != ConsistencyModel::Rmo;
                if needs_empty_sb && !sb_empty {
                    return NonSpecOutcome::Speculate;
                }
                let block = ctx.mem.block_of(addr);
                if !ctx.mem.writable(block) {
                    let _ = ctx.mem.ensure_write_miss(
                        block,
                        None,
                        false,
                        ctx.now,
                        &mut ctx.stats.counters,
                    );
                    return NonSpecOutcome::Speculate;
                }
                self.store_non_speculative(ctx, addr, value)
            }
        }
    }

    fn abort(&mut self, position: usize, mem: &mut CoreMem, stats: &mut CoreStats) -> usize {
        let resume = self.kernel.abort_from(position, mem, stats);
        if !self.kernel.speculating() {
            // Forward progress: at least one instruction must retire
            // non-speculatively before the next speculation begins.
            self.must_retire_nonspec = true;
        }
        resume
    }
}

impl OrderingEngine for InvisiSelectiveEngine {
    fn name(&self) -> String {
        if self.kernel.max_episodes() >= 2 {
            format!("Invisi_{}-2ckpt", self.model.label())
        } else {
            format!("Invisi_{}", self.model.label())
        }
    }

    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        if self.kernel.speculating() {
            // Optionally open the second in-flight checkpoint so a late
            // violation discards less work (Section 6.4).
            if self.kernel.max_episodes() >= 2
                && self.kernel.episode_count() == 1
                && self.kernel.youngest().map(|e| e.retired).unwrap_or(0)
                    >= self.second_checkpoint_after
            {
                self.kernel.begin(ctx.checkpoint_index(), ctx.stats);
            }
            return self.kernel.retire_speculative(ctx);
        }
        match self.retire_non_speculative(ctx) {
            NonSpecOutcome::Retired => {
                self.must_retire_nonspec = false;
                RetireOutcome::Retired
            }
            NonSpecOutcome::Stall(reason) => RetireOutcome::Stall(reason),
            NonSpecOutcome::Speculate => {
                if self.must_retire_nonspec {
                    // Guarantee forward progress by resolving this stall
                    // conventionally before speculating again.
                    return RetireOutcome::Stall(StallReason::StoreBufferDrain);
                }
                self.kernel
                    .begin(ctx.checkpoint_index(), ctx.stats)
                    .expect("a checkpoint is free when not speculating");
                self.kernel.retire_speculative(ctx)
            }
        }
    }

    fn tick(&mut self, mem: &mut CoreMem, stats: &mut CoreStats, _now: Cycle) -> Vec<EngineAction> {
        // Opportunistic, constant-time commit: as soon as the stores the
        // episode depends on have drained.
        while self.kernel.try_commit_oldest(mem, stats, false) {}
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
        // `tick` only ever commits, and its first `try_commit_oldest` acts
        // exactly when the oldest episode is commit-ready. Outside an
        // episode that is false (no timers either); inside one it stays
        // false until the stores the episode depends on have drained, so
        // every speculating cycle but the commit cycle takes the batched
        // path. Retirements — including one that *starts* an episode — run
        // through `try_retire` on the batched path too, so they need no
        // term here.
        self.kernel.commit_ready(mem)
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
    use ifence_types::{CoreId, EngineKind, Instruction, Program};

    fn cfg(model: ConsistencyModel) -> MachineConfig {
        MachineConfig::small_test(EngineKind::InvisiSelective(model))
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn core_with(model: ConsistencyModel, program: Program) -> Core {
        let machine = cfg(model);
        Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(model, &machine)),
        )
    }

    fn prefill(core: &mut Core, blocks: &[u64], state: LineState) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), state, BlockData::zeroed());
        }
    }

    /// Runs the core, answering every GetS/GetM it issues with a fill
    /// `latency` cycles later (a single-core stand-in for the fabric).
    fn run_with_autofill(core: &mut Core, cycles: u64, latency: u64) {
        let mut pending: Vec<(u64, BlockAddr)> = Vec::new();
        for now in 0..cycles {
            for req in core.take_requests() {
                if req.kind == ifence_coherence::CoherenceReqKind::GetS
                    || req.kind == ifence_coherence::CoherenceReqKind::GetM
                {
                    pending.push((now + latency, req.block));
                }
            }
            let due: Vec<BlockAddr> =
                pending.iter().filter(|(t, _)| *t <= now).map(|(_, b)| *b).collect();
            pending.retain(|(t, _)| *t > now);
            for block in due {
                core.handle_delivery(
                    Delivery::Fill {
                        core: CoreId(0),
                        block,
                        state: LineState::Exclusive,
                        data: BlockData::zeroed(),
                        txn: TxnId(0),
                    },
                    now,
                );
            }
            core.step(now);
            if core.finished() {
                break;
            }
        }
    }

    #[test]
    fn engine_names_match_paper_labels() {
        let machine = cfg(ConsistencyModel::Sc);
        assert_eq!(InvisiSelectiveEngine::new(ConsistencyModel::Sc, &machine).name(), "Invisi_sc");
        assert_eq!(
            InvisiSelectiveEngine::with_checkpoints(ConsistencyModel::Sc, 2).name(),
            "Invisi_sc-2ckpt"
        );
        assert_eq!(
            InvisiSelectiveEngine::new(ConsistencyModel::Rmo, &machine).model(),
            ConsistencyModel::Rmo
        );
    }

    #[test]
    fn rmo_fence_behind_store_miss_speculates_instead_of_stalling() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        program.push(Instruction::fence());
        for _ in 0..8 {
            program.push(Instruction::load(Addr::new(0x1000))); // hits
        }
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        run_with_autofill(&mut core, 2000, 100);
        assert!(core.finished());
        let stats = core.stats();
        assert_eq!(stats.counters.speculations_started, 1);
        assert_eq!(stats.counters.speculations_committed, 1);
        assert_eq!(stats.counters.speculations_aborted, 0);
        assert_eq!(
            stats.breakdown.get(CycleClass::SbDrain),
            0,
            "the fence never stalls retirement"
        );
        assert!(stats.counters.cycles_speculating > 0);
        assert_eq!(core.mem.read_value(Addr::new(0x9000)), Some(1));
    }

    #[test]
    fn sc_loads_retire_past_store_miss_under_speculation() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        for _ in 0..8 {
            program.push(Instruction::load(Addr::new(0x1000)));
        }
        let mut core = core_with(ConsistencyModel::Sc, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        run_with_autofill(&mut core, 2000, 100);
        assert!(core.finished());
        assert!(core.stats().counters.speculations_committed >= 1);
        assert_eq!(core.stats().breakdown.get(CycleClass::SbDrain), 0);
        assert_eq!(core.stats().breakdown.get(CycleClass::Violation), 0);
    }

    #[test]
    fn violation_rolls_back_and_recovers() {
        // Speculate past a fence, read a shared block, then receive an
        // external invalidation for it: the speculation must abort, re-execute
        // and still finish with correct memory state.
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> speculation trigger
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000))); // speculatively read
        program.push(Instruction::store(Addr::new(0x2000), 7)); // speculative store hit
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000, 0x2000], LineState::Exclusive);

        // Run a few cycles without servicing the store miss so the core is
        // definitely speculating.
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.mem.l1.is_spec_read(blk(0x1000), 0));
        assert!(core.mem.l1.is_spec_written(blk(0x2000), 0));

        // External write to the speculatively-read block → violation.
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(9),
                requester: CoreId(1),
                recall: false,
            },
            20,
        );
        assert!(matches!(reply, Some(ifence_coherence::SnoopReply::Ack { .. })));
        assert!(!core.speculating(), "violation aborts the speculation");
        assert_eq!(core.stats().counters.speculations_aborted, 1);
        assert!(core.stats().breakdown.get(CycleClass::Violation) > 0);
        assert_eq!(
            core.mem.l1.peek(blk(0x2000)),
            LineState::Invalid,
            "speculatively-written block is flash-invalidated"
        );

        // Execution resumes and completes; the aborted store's value is
        // re-applied by the replay.
        run_with_autofill(&mut core, 4000, 60);
        assert!(core.finished());
        assert_eq!(core.mem.read_value(Addr::new(0x2000)), Some(7));
        assert_eq!(core.retired_count(), 4);
    }

    #[test]
    fn l2_recall_aborts_speculative_reader() {
        // An inclusion recall (the home L2 evicting a line with L1 holders)
        // arrives through the same external-request path as a remote write:
        // against a speculatively-read block it must abort the episode.
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> speculation trigger
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000))); // speculatively read
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        assert!(core.mem.l1.is_spec_read(blk(0x1000), 0));

        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(11),
                requester: CoreId(0), // recalls come from the home node
                recall: true,
            },
            20,
        );
        assert!(matches!(reply, Some(ifence_coherence::SnoopReply::Ack { .. })));
        assert!(!core.speculating(), "the recall aborts the speculation");
        assert_eq!(core.stats().counters.speculations_aborted, 1);
        assert_eq!(core.stats().counters.l2_recalls_received, 1);
        assert!(core.stats().breakdown.get(CycleClass::Violation) > 0);
        // Execution replays and completes once the miss is serviced.
        run_with_autofill(&mut core, 4000, 60);
        assert!(core.finished());
        assert_eq!(core.retired_count(), 3);
    }

    #[test]
    fn l2_recall_defers_under_commit_on_violate() {
        // Under commit-on-violate the recall is deferred, exactly like a
        // remote writer's invalidation, giving the episode a chance to
        // commit before the line is surrendered.
        let machine = {
            let mut m = cfg(ConsistencyModel::Rmo);
            m.speculation.commit_on_violate = true;
            m.speculation.cov_timeout = 4000;
            m
        };
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000)));
        let mut core = Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(ConsistencyModel::Rmo, &machine)),
        );
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(12),
                requester: CoreId(0),
                recall: true,
            },
            20,
        );
        assert!(matches!(reply, Some(ifence_coherence::SnoopReply::Defer { .. })));
        assert_eq!(core.stats().counters.cov_deferrals, 1);
        assert_eq!(core.stats().counters.l2_recalls_received, 1);
        assert!(core.speculating(), "the deferred recall leaves the episode alive");
    }

    #[test]
    fn external_request_without_conflict_does_not_abort() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1));
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000)));
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000, 0x5000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x5000),
                txn: TxnId(1),
                requester: CoreId(1),
                recall: false,
            },
            20,
        );
        assert!(core.speculating(), "unrelated invalidation leaves speculation alive");
        assert_eq!(core.stats().counters.speculations_aborted, 0);
    }

    #[test]
    fn commit_on_violate_defers_and_commits_when_stores_complete() {
        let machine = {
            let mut m = cfg(ConsistencyModel::Rmo);
            m.speculation.commit_on_violate = true;
            m.speculation.cov_timeout = 4000;
            m
        };
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000)));
        let mut core = Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(ConsistencyModel::Rmo, &machine)),
        );
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        // Conflicting external request is deferred rather than aborting.
        let reply = core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(2),
                requester: CoreId(1),
                recall: false,
            },
            20,
        );
        assert!(matches!(reply, Some(ifence_coherence::SnoopReply::Defer { .. })));
        assert_eq!(core.stats().counters.cov_deferrals, 1);
        // Complete the store miss: the speculation commits and the deferred
        // acknowledgement is released without any rollback.
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
        let mut acked = false;
        for now in 31..200 {
            core.step(now);
            for r in core.take_replies() {
                if matches!(r, ifence_coherence::SnoopReply::Ack { .. }) {
                    acked = true;
                }
            }
            if acked {
                break;
            }
        }
        assert!(acked, "deferred request acknowledged after the commit");
        assert_eq!(core.stats().counters.speculations_aborted, 0);
        assert_eq!(core.stats().counters.cov_commits, 1);
        assert!(core.stats().counters.speculations_committed >= 1);
    }

    #[test]
    fn commit_on_violate_times_out_and_aborts() {
        let machine = {
            let mut m = cfg(ConsistencyModel::Rmo);
            m.speculation.commit_on_violate = true;
            m.speculation.cov_timeout = 50;
            m
        };
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss never serviced
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000)));
        let mut core = Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(ConsistencyModel::Rmo, &machine)),
        );
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        core.handle_delivery(
            Delivery::Invalidate {
                core: CoreId(0),
                block: blk(0x1000),
                txn: TxnId(2),
                requester: CoreId(1),
                recall: false,
            },
            20,
        );
        let mut acked = false;
        for now in 21..400 {
            core.step(now);
            for r in core.take_replies() {
                if matches!(r, ifence_coherence::SnoopReply::Ack { .. }) {
                    acked = true;
                }
            }
        }
        assert!(acked, "timeout forces the acknowledgement");
        assert_eq!(core.stats().counters.cov_timeouts, 1);
        assert_eq!(core.stats().counters.speculations_aborted, 1);
    }

    #[test]
    fn speculative_store_buffer_overflow_stalls_as_sb_full() {
        let mut machine = cfg(ConsistencyModel::Rmo);
        machine.store_buffer.entries = 2;
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> buffer
        program.push(Instruction::fence()); // trigger speculation
        for i in 0..6u64 {
            program.push(Instruction::store(Addr::new(0xa000 + i * 64), i)); // more misses
        }
        let mut core = Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(ConsistencyModel::Rmo, &machine)),
        );
        for now in 0..60 {
            core.step(now);
        }
        core.finalize();
        assert!(core.stats().breakdown.get(CycleClass::SbFull) > 0);
    }

    #[test]
    fn two_checkpoint_engine_opens_second_episode() {
        let machine = {
            let mut m = cfg(ConsistencyModel::Sc);
            m.speculation.checkpoints = 2;
            m.speculation.aso_checkpoint_interval = 4;
            m.store_buffer.entries = 32;
            m
        };
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger under SC
        for i in 0..16u64 {
            program.push(Instruction::load(Addr::new(0x1000 + (i % 2) * 64)));
        }
        let mut core = Core::new(
            CoreId(0),
            program,
            &machine,
            Box::new(InvisiSelectiveEngine::new(ConsistencyModel::Sc, &machine)),
        );
        prefill(&mut core, &[0x1000, 0x1040], LineState::Exclusive);
        for now in 0..40 {
            core.step(now);
        }
        assert!(core.speculating());
        assert_eq!(
            core.stats().counters.speculations_started,
            2,
            "the second in-flight checkpoint opened"
        );
        run_with_autofill(&mut core, 2000, 60);
        assert!(core.finished());
        assert_eq!(core.stats().counters.speculations_committed, 2);
    }

    fn gate_engine(checkpoints: usize) -> (InvisiSelectiveEngine, CoreMem, CoreStats) {
        let engine = InvisiSelectiveEngine::with_checkpoints(ConsistencyModel::Sc, checkpoints);
        (engine, CoreMem::new(CoreId(0), &cfg(ConsistencyModel::Sc)), CoreStats::new())
    }

    /// Asserts the batching gate's answer, then that `tick` commits exactly
    /// when the gate said it could act.
    fn assert_gate(
        engine: &mut InvisiSelectiveEngine,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        due: bool,
    ) {
        assert_eq!(engine.tick_due(mem, 0), due);
        let committed = stats.counters.speculations_committed;
        assert!(engine.tick(mem, stats, 0).is_empty());
        assert_eq!(stats.counters.speculations_committed > committed, due);
    }

    #[test]
    fn tick_due_ignores_younger_epoch_entries() {
        let (mut engine, mut mem, mut stats) = gate_engine(1);
        assert_gate(&mut engine, &mut mem, &mut stats, false);
        engine.kernel.begin(0, &mut stats).unwrap();
        assert_gate(&mut engine, &mut mem, &mut stats, true);

        let (mut engine, mut mem, mut stats) = gate_engine(2);
        engine.kernel.begin(0, &mut stats).unwrap();
        let young = engine.kernel.begin(5, &mut stats).unwrap() as u8;
        mem.sb.push(Addr::new(0x3000), 1, Some(young)).unwrap();
        assert_gate(&mut engine, &mut mem, &mut stats, true);
        assert_eq!(engine.kernel.episode_count(), 1, "only the older episode committed");
        // The survivor is now the oldest, and its own entry holds it back.
        assert_gate(&mut engine, &mut mem, &mut stats, false);
    }

    #[test]
    fn tick_due_blocked_by_non_speculative_and_oldest_epoch_entries() {
        let (mut engine, mut mem, mut stats) = gate_engine(1);
        mem.sb.push(Addr::new(0x3000), 1, None).unwrap();
        engine.kernel.begin(0, &mut stats).unwrap();
        assert_gate(&mut engine, &mut mem, &mut stats, false);

        let (mut engine, mut mem, mut stats) = gate_engine(2);
        let old = engine.kernel.begin(0, &mut stats).unwrap() as u8;
        engine.kernel.begin(5, &mut stats).unwrap();
        mem.sb.push(Addr::new(0x3000), 1, Some(old)).unwrap();
        assert_gate(&mut engine, &mut mem, &mut stats, false);
        assert_eq!(engine.kernel.episode_count(), 2);
    }

    #[test]
    fn speculating_cycles_take_the_batched_path_until_commit_is_due() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        program.push(Instruction::fence()); // RMO trigger behind the miss
        program.push(Instruction::load(Addr::new(0x1000)));
        program.push(Instruction::op(200)); // keeps the core from finishing
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        let mut now = 0;
        while !core.speculating() {
            core.step(now);
            core.take_requests();
            now += 1;
            assert!(now < 100, "the fence never triggered speculation");
        }
        // The store the episode depends on is still buffered: no commit can
        // happen, so the speculating core's cycle is batched.
        assert!(core.batch_ready(now));
        core.step(now);
        now += 1;
        core.handle_delivery(
            Delivery::Fill {
                core: CoreId(0),
                block: blk(0x9000),
                state: LineState::Exclusive,
                data: BlockData::zeroed(),
                txn: TxnId(0),
            },
            now,
        );
        // The buffer drains during this cycle, after the gate was checked.
        assert!(core.batch_ready(now));
        core.step(now);
        assert!(core.mem.sb_empty() && core.speculating());
        now += 1;
        // The commit cycle is the one the gate sends to the full step.
        assert!(!core.batch_ready(now));
        core.step(now);
        assert!(!core.speculating());
        assert_eq!(core.stats().counters.speculations_committed, 1);
    }
}
