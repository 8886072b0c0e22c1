//! InvisiFence-Selective (Section 4.1): speculate only when retirement would
//! otherwise stall for a memory-ordering constraint.

use crate::kernel::SpeculationKernel;
use ifence_cpu::{
    CoreMem, ExternalKind, ExternalOutcome, OrderingEngine, RetireCtx, RetireOutcome,
};
use ifence_stats::CoreStats;
use ifence_types::{
    BlockAddr, ConsistencyModel, Cycle, CycleClass, InstrKind, SpeculationConfig, StallReason,
};

/// Outcome of attempting to retire an instruction non-speculatively under the
/// target consistency model.
enum NonSpecOutcome {
    /// Retired without speculation (side effects already applied), or stalled
    /// for a reason speculation would not help (store buffer full).
    Done(RetireOutcome),
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
///
/// Violations always abort, so no external request is ever deferred:
/// commit-on-violate belongs to [`crate::InvisiContinuousEngine`], the only
/// variant the paper evaluates it with.
#[derive(Debug)]
pub struct InvisiSelectiveEngine {
    model: ConsistencyModel,
    kernel: SpeculationKernel,
    second_checkpoint_after: usize,
}

impl InvisiSelectiveEngine {
    /// Creates a selective engine enforcing `model` with `checkpoints`
    /// in-flight checkpoints (1, or 2 for the variant of Section 6.4). With
    /// two, the second opens once the first episode has retired
    /// `speculation.aso_checkpoint_interval` instructions.
    pub fn new(
        model: ConsistencyModel,
        checkpoints: usize,
        speculation: &SpeculationConfig,
    ) -> Self {
        InvisiSelectiveEngine {
            model,
            kernel: SpeculationKernel::new(checkpoints, None),
            second_checkpoint_after: speculation.aso_checkpoint_interval.max(1),
        }
    }

    /// The consistency model this engine enforces.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// Access to the underlying speculation mechanisms (used by tests).
    pub fn kernel(&self) -> &SpeculationKernel {
        &self.kernel
    }

    fn retire_non_speculative(&self, ctx: &mut RetireCtx<'_>) -> NonSpecOutcome {
        let sb_empty = ctx.mem.sb_empty();
        match ctx.entry.instr.kind {
            InstrKind::Op(_) => NonSpecOutcome::Done(RetireOutcome::Retired),
            InstrKind::Load(_) => {
                if self.model == ConsistencyModel::Sc && !sb_empty {
                    NonSpecOutcome::Speculate
                } else {
                    NonSpecOutcome::Done(RetireOutcome::Retired)
                }
            }
            InstrKind::Fence(_) => {
                if self.model != ConsistencyModel::Sc && !sb_empty {
                    NonSpecOutcome::Speculate
                } else {
                    NonSpecOutcome::Done(RetireOutcome::Retired)
                }
            }
            InstrKind::Store(addr, value) => match self.model {
                // RMO never orders plain stores: hit into the cache, miss into
                // the unordered buffer.
                ConsistencyModel::Rmo => NonSpecOutcome::Done(ctx.store_to_l1_or_sb(addr, value)),
                // SC/TSO must preserve store-store order, which the unordered
                // coalescing buffer cannot: a store behind other pending
                // stores triggers speculation.
                ConsistencyModel::Sc | ConsistencyModel::Tso => {
                    if !sb_empty {
                        NonSpecOutcome::Speculate
                    } else {
                        NonSpecOutcome::Done(ctx.store_to_l1_or_sb(addr, value))
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
                NonSpecOutcome::Done(ctx.store_to_l1_or_sb(addr, value))
            }
        }
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
            NonSpecOutcome::Done(outcome) => {
                if outcome == RetireOutcome::Retired {
                    self.kernel.note_nonspec_retire();
                }
                outcome
            }
            NonSpecOutcome::Speculate => {
                if self.kernel.must_retire_nonspec() {
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

    fn tick(&mut self, mem: &mut CoreMem, stats: &mut CoreStats, _now: Cycle) {
        // Opportunistic, constant-time commit: as soon as the stores the
        // episode depends on have drained.
        while self.kernel.try_commit_oldest(mem, stats, false) {}
    }

    fn on_external(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        block: BlockAddr,
        kind: ExternalKind,
        now: Cycle,
    ) -> ExternalOutcome {
        self.kernel.on_external(mem, stats, block, kind, now)
    }

    fn speculating(&self) -> bool {
        self.kernel.speculating()
    }

    fn rollback_floor(&self) -> Option<usize> {
        self.kernel.rollback_floor()
    }

    fn can_drain(&self, epoch: Option<u8>) -> bool {
        self.kernel.can_drain(epoch)
    }

    fn on_spec_eviction_pressure(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        _now: Cycle,
    ) -> Option<usize> {
        self.kernel.on_spec_eviction_pressure(mem, stats)
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
    use ifence_types::{Addr, CoreId, EngineKind, Instruction, MachineConfig, Program};

    fn cfg(model: ConsistencyModel) -> MachineConfig {
        MachineConfig::small_test(EngineKind::InvisiSelective(model))
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    /// The selective engine `machine.engine` names (one or two checkpoints).
    fn engine_for(machine: &MachineConfig) -> InvisiSelectiveEngine {
        let kind = machine.engine;
        InvisiSelectiveEngine::new(kind.model(), kind.checkpoints(), &machine.speculation)
    }

    fn core_on(machine: &MachineConfig, program: Program) -> Core {
        Core::new(CoreId(0), program, machine, Box::new(engine_for(machine)))
    }

    fn core_with(model: ConsistencyModel, program: Program) -> Core {
        core_on(&cfg(model), program)
    }

    fn fill(core: &mut Core, block: BlockAddr, now: u64) {
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
                fill(core, block, now);
            }
            core.step(now);
            if core.finished() {
                break;
            }
        }
    }

    #[test]
    fn engine_names_match_paper_labels() {
        assert_eq!(engine_for(&cfg(ConsistencyModel::Sc)).name(), "Invisi_sc");
        let two =
            MachineConfig::small_test(EngineKind::InvisiSelectiveTwoCkpt(ConsistencyModel::Sc));
        assert_eq!(engine_for(&two).name(), "Invisi_sc-2ckpt");
        assert_eq!(engine_for(&cfg(ConsistencyModel::Rmo)).model(), ConsistencyModel::Rmo);
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
    fn speculative_store_buffer_overflow_stalls_as_sb_full() {
        let mut machine = cfg(ConsistencyModel::Rmo);
        machine.store_buffer.entries = 2;
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> buffer
        program.push(Instruction::fence()); // trigger speculation
        for i in 0..6u64 {
            program.push(Instruction::store(Addr::new(0xa000 + i * 64), i)); // more misses
        }
        let mut core = core_on(&machine, program);
        for now in 0..60 {
            core.step(now);
        }
        core.finalize();
        assert!(core.stats().breakdown.get(CycleClass::SbFull) > 0);
    }

    #[test]
    fn two_checkpoint_engine_opens_second_episode() {
        let machine = {
            let mut m =
                MachineConfig::small_test(EngineKind::InvisiSelectiveTwoCkpt(ConsistencyModel::Sc));
            m.speculation.aso_checkpoint_interval = 4;
            m.store_buffer.entries = 32;
            m
        };
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> trigger under SC
        for i in 0..16u64 {
            program.push(Instruction::load(Addr::new(0x1000 + (i % 2) * 64)));
        }
        let mut core = core_on(&machine, program);
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

    const ONE_CKPT: EngineKind = EngineKind::InvisiSelective(ConsistencyModel::Sc);
    const TWO_CKPT: EngineKind = EngineKind::InvisiSelectiveTwoCkpt(ConsistencyModel::Sc);

    fn gate_engine(kind: EngineKind) -> (InvisiSelectiveEngine, CoreMem, CoreStats) {
        let machine = MachineConfig::small_test(kind);
        (engine_for(&machine), CoreMem::new(CoreId(0), &machine), CoreStats::new())
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
        engine.tick(mem, stats, 0);
        assert_eq!(stats.counters.speculations_committed > committed, due);
    }

    #[test]
    fn tick_due_ignores_younger_epoch_entries() {
        let (mut engine, mut mem, mut stats) = gate_engine(ONE_CKPT);
        assert_gate(&mut engine, &mut mem, &mut stats, false);
        engine.kernel.begin(0, &mut stats).unwrap();
        assert_gate(&mut engine, &mut mem, &mut stats, true);

        let (mut engine, mut mem, mut stats) = gate_engine(TWO_CKPT);
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
        let (mut engine, mut mem, mut stats) = gate_engine(ONE_CKPT);
        mem.sb.push(Addr::new(0x3000), 1, None).unwrap();
        engine.kernel.begin(0, &mut stats).unwrap();
        assert_gate(&mut engine, &mut mem, &mut stats, false);

        let (mut engine, mut mem, mut stats) = gate_engine(TWO_CKPT);
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
        fill(&mut core, blk(0x9000), now);
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

    /// An RMO episode whose two speculatively-read blocks fill both ways of
    /// L1 set 0, with a load of a third set-0 block in flight: its fill must
    /// evict a speculative line. The store miss to 0x9040 (set 1) that
    /// triggered the episode stays buffered until it is filled.
    fn core_under_eviction_pressure() -> Core {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9040), 1)); // miss -> buffer
        program.push(Instruction::fence()); // trigger: checkpoint at index 1
        program.push(Instruction::load(Addr::new(0x1000)));
        program.push(Instruction::load(Addr::new(0x2000)));
        program.push(Instruction::load(Addr::new(0x3000))); // miss, same set
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000, 0x2000], LineState::Exclusive);
        for now in 0..20 {
            core.step(now);
        }
        assert!(core.speculating());
        assert_eq!(core.retired_count(), 4);
        assert!(core.mem.l1.fill_would_evict_spec(blk(0x3000)));
        core
    }

    #[test]
    fn eviction_pressure_commits_when_the_store_buffer_is_empty() {
        let mut core = core_under_eviction_pressure();
        // The store's fill drains the buffer in the next cycle; the episode
        // stays open until the following cycle's commit.
        fill(&mut core, blk(0x9040), 20);
        core.step(20);
        assert!(core.mem.sb_empty() && core.speculating());
        fill(&mut core, blk(0x3000), 21);
        let counters = &core.stats().counters;
        assert_eq!(counters.speculations_committed, 1, "the fill forced the commit");
        assert_eq!(counters.speculations_aborted, 0);
        assert_eq!(counters.speculations_aborted_structural, 0);
        assert!(!core.speculating());
        assert!(!core.mem.l1.has_spec_lines());
        assert_eq!(core.retired_count(), 4, "nothing rolled back");
        run_with_autofill(&mut core, 2000, 60);
        assert!(core.finished());
        assert_eq!(core.retired_count(), 5);
    }

    #[test]
    fn eviction_pressure_aborts_structurally_while_stores_are_buffered() {
        let mut core = core_under_eviction_pressure();
        fill(&mut core, blk(0x3000), 20);
        let counters = &core.stats().counters;
        assert_eq!(counters.speculations_aborted_structural, 1);
        assert_eq!(counters.speculations_aborted, 1);
        assert_eq!(counters.speculations_committed, 0);
        assert!(!core.speculating());
        assert_eq!(core.retired_count(), 1, "rolled back to the fence's checkpoint");
        assert!(core.stats().counters.instructions_squashed > 0);
        assert!(core.stats().breakdown.get(CycleClass::Violation) > 0);
        run_with_autofill(&mut core, 4000, 60);
        assert!(core.finished());
        assert_eq!(core.retired_count(), 5);
        assert_eq!(core.mem.read_value(Addr::new(0x9040)), Some(1));
    }
}
