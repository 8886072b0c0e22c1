//! The conventional SC / TSO / RMO retirement engines.

use ifence_cpu::{CoreMem, OrderingEngine, RetireCtx, RetireOutcome};
use ifence_types::{Addr, ConsistencyModel, Cycle, InstrKind, StallReason};

/// A conventional, non-speculative implementation of one consistency model
/// (Section 2.1 of the paper).
///
/// The engine never speculates: every memory-ordering requirement of the
/// model turns into a retirement stall, which is exactly the cost Figure 1
/// quantifies and InvisiFence removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConventionalEngine {
    model: ConsistencyModel,
}

impl ConventionalEngine {
    /// Creates a conventional engine for the given model.
    pub fn new(model: ConsistencyModel) -> Self {
        ConventionalEngine { model }
    }

    /// The consistency model this engine enforces.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// Retires a store according to the model's store-buffer policy.
    fn retire_store(&self, ctx: &mut RetireCtx<'_>, addr: Addr, value: u64) -> RetireOutcome {
        match self.model {
            // SC and TSO push every store through the age-ordered FIFO buffer.
            ConsistencyModel::Sc | ConsistencyModel::Tso => {
                match ctx.mem.store_to_sb(addr, value, None, ctx.now, ctx.stats) {
                    Ok(()) => RetireOutcome::Retired,
                    Err(_) => RetireOutcome::Stall(StallReason::StoreBufferFull),
                }
            }
            // RMO: store hits retire directly into the data cache; misses go
            // to the coalescing buffer.
            ConsistencyModel::Rmo => {
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

    /// Retires an atomic read-modify-write: every model requires the store
    /// buffer to have drained (SC/TSO) and write permission to be held so the
    /// read-modify-write is atomic.
    fn retire_atomic(&self, ctx: &mut RetireCtx<'_>, addr: Addr, value: u64) -> RetireOutcome {
        let needs_empty_sb = matches!(self.model, ConsistencyModel::Sc | ConsistencyModel::Tso);
        if needs_empty_sb && !ctx.mem.sb_empty() {
            return RetireOutcome::Stall(StallReason::StoreBufferDrain);
        }
        let block = ctx.mem.block_of(addr);
        if !ctx.mem.writable(block) {
            // Keep (or make) the ownership request outstanding and stall until
            // write permission arrives.
            let _ = ctx.mem.ensure_write_miss(block, None, false, ctx.now, &mut ctx.stats.counters);
            return RetireOutcome::Stall(StallReason::StoreBufferDrain);
        }
        let ok = ctx.mem.store_to_l1(addr, value, None, &mut ctx.stats.counters);
        debug_assert!(ok, "writable block must accept the atomic's store");
        RetireOutcome::Retired
    }
}

impl OrderingEngine for ConventionalEngine {
    fn name(&self) -> String {
        self.model.label().to_string()
    }

    fn try_retire(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        match ctx.entry.instr.kind {
            InstrKind::Op(_) => RetireOutcome::Retired,
            InstrKind::Load(_) => {
                // SC: a load may not retire past outstanding stores.
                if self.model == ConsistencyModel::Sc && !ctx.mem.sb_empty() {
                    RetireOutcome::Stall(StallReason::StoreBufferDrain)
                } else {
                    RetireOutcome::Retired
                }
            }
            InstrKind::Store(addr, value) => self.retire_store(ctx, addr, value),
            InstrKind::Atomic(addr, value) => self.retire_atomic(ctx, addr, value),
            InstrKind::Fence(_) => {
                // SC needs no fences (ordering is already total); TSO and RMO
                // must drain the store buffer.
                if self.model != ConsistencyModel::Sc && !ctx.mem.sb_empty() {
                    RetireOutcome::Stall(StallReason::StoreBufferDrain)
                } else {
                    RetireOutcome::Retired
                }
            }
        }
    }

    fn tick_due(&self, _mem: &CoreMem, _now: Cycle) -> bool {
        // Conventional engines never speculate, keep no timers and have a
        // no-op tick, so their maintenance stage is dead on every cycle.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_cpu::{Core, OrderingEngine};
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{
        BlockAddr, CoreId, CycleClass, EngineKind, Instruction, MachineConfig, Program,
    };

    fn cfg_for(model: ConsistencyModel) -> MachineConfig {
        MachineConfig::small_test(EngineKind::Conventional(model))
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn core_with(model: ConsistencyModel, program: Program) -> Core {
        let cfg = cfg_for(model);
        Core::new(CoreId(0), program, &cfg, Box::new(ConventionalEngine::new(model)))
    }

    fn prefill(core: &mut Core, blocks: &[u64], state: LineState) {
        for &b in blocks {
            core.mem.l1.fill(blk(b), state, BlockData::zeroed());
        }
    }

    fn run_cycles(core: &mut Core, cycles: u64) {
        for now in 0..cycles {
            core.step(now);
            if core.finished() {
                break;
            }
        }
    }

    #[test]
    fn engine_names_match_model_labels() {
        for m in ConsistencyModel::ALL {
            assert_eq!(ConventionalEngine::new(m).name(), m.label());
            assert_eq!(ConventionalEngine::new(m).model(), m);
        }
    }

    #[test]
    fn sc_load_stalls_behind_outstanding_store() {
        // A store miss followed by independent load hits: under SC the loads
        // cannot retire until the store completes, so "SB drain" cycles
        // accumulate; under TSO/RMO they retire immediately.
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss
        for _ in 0..8 {
            program.push(Instruction::load(Addr::new(0x1000))); // hits
        }

        let mut sc = core_with(ConsistencyModel::Sc, program.clone());
        prefill(&mut sc, &[0x1000], LineState::Exclusive);
        run_cycles(&mut sc, 100);
        assert!(sc.stats().breakdown.get(CycleClass::SbDrain) > 0);
        assert_eq!(sc.retired_count(), 1, "only the store retired (into the buffer)");

        let mut tso = core_with(ConsistencyModel::Tso, program);
        prefill(&mut tso, &[0x1000], LineState::Exclusive);
        run_cycles(&mut tso, 100);
        assert_eq!(tso.retired_count(), 9, "TSO lets loads retire past the store miss");
        assert_eq!(tso.stats().breakdown.get(CycleClass::SbDrain), 0);
    }

    #[test]
    fn tso_store_burst_fills_fifo_buffer() {
        // More store misses than FIFO entries: TSO accumulates "SB full" stalls.
        let mut cfg = cfg_for(ConsistencyModel::Tso);
        cfg.store_buffer.entries = 4;
        let mut program = Program::new();
        for i in 0..16u64 {
            program.push(Instruction::store(Addr::new(0x10_000 + i * 64), i));
        }
        let mut core = Core::new(
            CoreId(0),
            program,
            &cfg,
            Box::new(ConventionalEngine::new(ConsistencyModel::Tso)),
        );
        run_cycles(&mut core, 200);
        assert!(core.stats().breakdown.get(CycleClass::SbFull) > 0);
    }

    #[test]
    fn rmo_fence_drains_store_buffer() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss -> buffered
        program.push(Instruction::fence());
        program.push(Instruction::load(Addr::new(0x1000))); // hit
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        run_cycles(&mut core, 150);
        assert!(
            core.stats().breakdown.get(CycleClass::SbDrain) > 0,
            "fence must wait for the buffered store miss"
        );
        assert_eq!(core.retired_count(), 1, "fence and load blocked behind the drain");
    }

    #[test]
    fn rmo_store_hit_retires_directly_into_cache() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x1000), 5));
        let mut core = core_with(ConsistencyModel::Rmo, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        run_cycles(&mut core, 20);
        assert!(core.finished());
        assert_eq!(core.stats().counters.sb_inserts, 0, "store hit bypasses the buffer");
        assert_eq!(core.mem.read_value(Addr::new(0x1000)), Some(5));
    }

    #[test]
    fn atomic_stalls_until_write_permission() {
        for model in ConsistencyModel::ALL {
            let mut program = Program::new();
            program.push(Instruction::atomic(Addr::new(0x9000), 1));
            let mut core = core_with(model, program);
            run_cycles(&mut core, 30);
            assert_eq!(core.retired_count(), 0, "{model}: atomic needs ownership");
            assert!(
                core.stats().breakdown.get(CycleClass::SbDrain)
                    + core.stats().breakdown.get(CycleClass::Other)
                    > 0
            );
            // Grant ownership; the atomic retires and its write lands in the L1.
            core.handle_delivery(
                ifence_coherence::Delivery::Fill {
                    core: CoreId(0),
                    block: blk(0x9000),
                    state: LineState::Exclusive,
                    data: BlockData::zeroed(),
                    txn: ifence_coherence::TxnId(0),
                },
                40,
            );
            for now in 41..80 {
                core.step(now);
                if core.finished() {
                    break;
                }
            }
            assert!(core.finished(), "{model}: atomic retires after the fill");
            assert_eq!(core.mem.read_value(Addr::new(0x9000)), Some(1));
        }
    }

    #[test]
    fn atomic_under_tso_waits_for_buffer_drain() {
        let mut program = Program::new();
        program.push(Instruction::store(Addr::new(0x9000), 1)); // miss, buffered
        program.push(Instruction::atomic(Addr::new(0x1000), 2)); // hit, but must wait
        let mut core = core_with(ConsistencyModel::Tso, program);
        prefill(&mut core, &[0x1000], LineState::Exclusive);
        run_cycles(&mut core, 60);
        assert_eq!(core.retired_count(), 1, "atomic blocked behind the buffered store");
        assert!(core.stats().breakdown.get(CycleClass::SbDrain) > 0);
    }

    #[test]
    fn conventional_engines_never_speculate() {
        let mut program = Program::new();
        for i in 0..8u64 {
            program.push(Instruction::store(Addr::new(0x9000 + i * 64), i));
            program.push(Instruction::fence());
        }
        let mut core = core_with(ConsistencyModel::Rmo, program);
        run_cycles(&mut core, 200);
        assert!(!core.speculating());
        assert_eq!(core.stats().counters.speculations_started, 0);
        assert_eq!(core.stats().counters.cycles_speculating, 0);
    }
}
