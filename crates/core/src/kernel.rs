//! The mechanism layer shared by every InvisiFence policy (Section 3).
//!
//! A [`SpeculationKernel`] manages one or two in-flight speculative episodes
//! (checkpoints). For each episode it provides:
//!
//! * **checkpointing** — the program index at which execution resumes on abort;
//! * **speculative retirement mechanics** — marking speculatively-read bits,
//!   writing speculative stores into the L1 (after a cleaning writeback when
//!   needed) or into the coalescing store buffer, tagged with the episode's
//!   epoch slot;
//! * **constant-time commit** — flash-clearing the episode's read/written bits
//!   once its stores have drained;
//! * **abort** — conditional flash-invalidation of speculatively-written
//!   blocks, flash-invalidation of the episode's store-buffer entries, and
//!   re-attribution of the episode's cycles to the `Violation` bucket;
//! * **violation detection** — matching external coherence requests against
//!   the speculatively-read/written bits;
//! * **violation handling** — aborting and rolling back to the conflicting
//!   episode's checkpoint, or, under commit-on-violate (Section 6.6),
//!   deferring the request for a bounded interval so the episode can commit
//!   first;
//! * **eviction pressure** — committing every episode when a fill would
//!   evict a speculatively-accessed line, or aborting (a structural abort)
//!   when the store buffer still holds stores;
//! * **forward progress** — after an abort that leaves no episode open, the
//!   next instruction must retire non-speculatively.
//!
//! The engine types that embed this kernel decide only what differs between
//! the paper's variants: when an episode begins and when it commits.

use ifence_cpu::{
    CoreMem, DeferResolution, ExternalKind, ExternalOutcome, RetireCtx, RetireOutcome,
};
use ifence_stats::{CoreStats, ProvisionalBreakdown, TraceKind};
use ifence_types::{Addr, BlockAddr, Cycle, CycleClass, InstrKind, StallReason};

/// One in-flight speculative episode (one register checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Which of the two physical sets of speculative bits (and store-buffer
    /// epoch tags) this episode uses.
    pub slot: usize,
    /// Program index at which execution resumes if this episode aborts.
    pub checkpoint: usize,
    /// Instructions retired speculatively within this episode.
    pub retired: usize,
}

/// Shared speculation mechanisms: checkpoints, speculative bits, commit and
/// abort (see the module documentation).
#[derive(Debug, Clone)]
pub struct SpeculationKernel {
    episodes: Vec<Episode>,
    prov: [ProvisionalBreakdown; 2],
    max_episodes: usize,
    /// Commit-on-violate deferral window; `None` aborts on every conflict.
    cov_timeout: Option<Cycle>,
    /// Set when an abort leaves no episode open: the next instruction must
    /// retire non-speculatively before another episode may begin.
    must_retire_nonspec: bool,
}

impl SpeculationKernel {
    /// Creates a kernel supporting up to `max_episodes` in-flight checkpoints
    /// (clamped to 1..=2, the hardware budget of Section 3.1). With
    /// `cov_timeout` set, a conflicting external request is deferred for that
    /// many cycles instead of aborting at once (commit-on-violate).
    pub fn new(max_episodes: usize, cov_timeout: Option<Cycle>) -> Self {
        SpeculationKernel {
            episodes: Vec::new(),
            prov: [ProvisionalBreakdown::new(), ProvisionalBreakdown::new()],
            max_episodes: max_episodes.clamp(1, 2),
            cov_timeout,
            must_retire_nonspec: false,
        }
    }

    /// Whether the commit-on-violate policy is enabled.
    pub fn commit_on_violate(&self) -> bool {
        self.cov_timeout.is_some()
    }

    /// True after an abort left no episode open and no instruction has
    /// retired non-speculatively since: the engine must retire the next one
    /// outside any episode, which guarantees forward progress.
    pub fn must_retire_nonspec(&self) -> bool {
        self.must_retire_nonspec
    }

    /// Records that an instruction retired outside any episode, which meets
    /// the forward-progress requirement.
    pub fn note_nonspec_retire(&mut self) {
        self.must_retire_nonspec = false;
    }

    /// True while at least one episode is in flight.
    pub fn speculating(&self) -> bool {
        !self.episodes.is_empty()
    }

    /// Number of in-flight episodes.
    pub fn episode_count(&self) -> usize {
        self.episodes.len()
    }

    /// Maximum simultaneous episodes.
    pub fn max_episodes(&self) -> usize {
        self.max_episodes
    }

    /// The oldest in-flight episode, if any.
    pub fn oldest(&self) -> Option<&Episode> {
        self.episodes.first()
    }

    /// The youngest in-flight episode, if any.
    pub fn youngest(&self) -> Option<&Episode> {
        self.episodes.last()
    }

    /// True if another episode can begin.
    pub fn has_free_slot(&self) -> bool {
        self.episodes.len() < self.max_episodes
    }

    /// The epoch slot new speculative accesses should be tagged with.
    pub fn current_slot(&self) -> Option<usize> {
        self.episodes.last().map(|e| e.slot)
    }

    /// Begins a new episode whose checkpoint is `checkpoint` (the program
    /// index of the first speculatively-retired instruction). Returns the
    /// slot assigned, or `None` if no checkpoint is free.
    pub fn begin(&mut self, checkpoint: usize, stats: &mut CoreStats) -> Option<usize> {
        if !self.has_free_slot() {
            return None;
        }
        let used: Vec<usize> = self.episodes.iter().map(|e| e.slot).collect();
        let slot = (0..2).find(|s| !used.contains(s))?;
        self.episodes.push(Episode { slot, checkpoint, retired: 0 });
        stats.counters.speculations_started += 1;
        stats.trace.emit(TraceKind::SpecBegin, self.episodes.len() as u64);
        Some(slot)
    }

    fn spec_store(
        &mut self,
        ctx: &mut RetireCtx<'_>,
        addr: Addr,
        value: u64,
        slot: usize,
    ) -> RetireOutcome {
        let block = ctx.mem.block_of(addr);
        // A store from this episode to a block already speculatively written
        // by the *other* in-flight episode must stay in the store buffer until
        // that episode commits, so the L1 never holds two speculative versions
        // of one block (Section 3.1).
        let other_slot = 1 - slot;
        let written_elsewhere = self.episodes.iter().any(|e| e.slot == other_slot)
            && ctx.mem.l1.is_spec_written(block, other_slot);
        if !written_elsewhere
            && ctx.mem.store_to_l1(addr, value, Some(slot as u8), &mut ctx.stats.counters)
        {
            return RetireOutcome::Retired;
        }
        match ctx.mem.store_to_sb(addr, value, Some(slot as u8), ctx.now, ctx.stats) {
            Ok(()) => RetireOutcome::Retired,
            Err(_) => RetireOutcome::Stall(StallReason::StoreBufferFull),
        }
    }

    /// Retires the head instruction speculatively into the youngest episode,
    /// performing the InvisiFence mechanics of Section 3.2: loads mark the
    /// speculatively-read bit, stores write the L1 (with a cleaning writeback
    /// for dirty pre-speculative data) or the store buffer, fences retire
    /// without draining, and atomics are handled as a read-write pair inside
    /// the same speculation.
    ///
    /// # Panics
    /// Panics if no episode is in flight.
    pub fn retire_speculative(&mut self, ctx: &mut RetireCtx<'_>) -> RetireOutcome {
        let slot = self.current_slot().expect("retire_speculative requires an episode");
        let outcome = match ctx.entry.instr.kind {
            InstrKind::Op(_) | InstrKind::Fence(_) => RetireOutcome::Retired,
            InstrKind::Load(addr) => {
                let block = ctx.mem.block_of(addr);
                if ctx.mem.l1.contains(block) {
                    ctx.mem.l1.mark_spec_read(block, slot);
                }
                RetireOutcome::Retired
            }
            InstrKind::Store(addr, value) => self.spec_store(ctx, addr, value, slot),
            InstrKind::Atomic(addr, value) => {
                let block = ctx.mem.block_of(addr);
                if ctx.mem.l1.contains(block) {
                    ctx.mem.l1.mark_spec_read(block, slot);
                }
                self.spec_store(ctx, addr, value, slot)
            }
        };
        if outcome == RetireOutcome::Retired {
            if let Some(e) = self.episodes.last_mut() {
                e.retired += 1;
            }
        }
        outcome
    }

    /// Returns the position (0 = oldest) of the oldest episode that conflicts
    /// with an external request for `block`: a remote write conflicts with
    /// local speculative reads and writes, a remote read only with local
    /// speculative writes (Section 3.2, "Violation detection").
    pub fn conflict_position(
        &self,
        mem: &CoreMem,
        block: BlockAddr,
        is_write: bool,
    ) -> Option<usize> {
        self.episodes.iter().position(|e| {
            mem.l1.is_spec_written(block, e.slot)
                || (is_write && mem.l1.is_spec_read(block, e.slot))
        })
    }

    /// True if the oldest episode's ordering requirements are satisfied:
    /// an episode is open, and every store that precedes it (non-speculative
    /// entries) and every store it made (its epoch's entries) has drained
    /// into the L1. Younger episodes' entries do not block it. This is the
    /// single commit condition — [`SpeculationKernel::try_commit_oldest`]
    /// acts on it and the engines' `tick_due` gates report it, so the two
    /// cannot drift apart.
    pub fn commit_ready(&self, mem: &CoreMem) -> bool {
        let Some(oldest) = self.episodes.first() else {
            return false;
        };
        mem.sb.epoch_len(None) == 0 && mem.sb.epoch_len(Some(oldest.slot as u8)) == 0
    }

    /// Commits the oldest episode if [`SpeculationKernel::commit_ready`]
    /// holds. When `require_closed` is set the episode additionally must not
    /// be the youngest (used by continuous chunks, which commit only once a
    /// successor chunk has opened). Returns true if a commit happened.
    pub fn try_commit_oldest(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        require_closed: bool,
    ) -> bool {
        if require_closed && self.episodes.len() < 2 {
            return false;
        }
        if !self.commit_ready(mem) {
            return false;
        }
        let oldest = self.episodes.remove(0);
        Self::commit_episode(&mut self.prov[oldest.slot], oldest, mem, stats);
        true
    }

    /// The commit bookkeeping of one episode: flash-clear its speculative
    /// bits and move its provisional cycles into the breakdown.
    fn commit_episode(
        prov: &mut ProvisionalBreakdown,
        episode: Episode,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
    ) {
        mem.l1.flash_clear_epoch(episode.slot);
        prov.commit_into(&mut stats.breakdown);
        stats.counters.speculations_committed += 1;
        stats.hists.episode_len.record(episode.retired as u64);
        stats.trace.emit(TraceKind::SpecCommit, episode.retired as u64);
    }

    /// Commits every in-flight episode at once, which is possible exactly when
    /// the store buffer is completely empty (the paper's opportunistic
    /// constant-time commit). Returns true if a commit happened.
    pub fn commit_all(&mut self, mem: &mut CoreMem, stats: &mut CoreStats) -> bool {
        if self.episodes.is_empty() || !mem.sb.is_empty() {
            return false;
        }
        self.finalize(mem, stats);
        true
    }

    /// Aborts the episode at `position` and every younger episode: speculative
    /// writes are flash-invalidated from the L1, speculative store-buffer
    /// entries discarded, and all provisional cycles charged to `Violation`.
    /// An abort that leaves no episode open sets the forward-progress
    /// requirement ([`SpeculationKernel::must_retire_nonspec`]). Returns the
    /// program index at which execution must resume.
    pub fn abort_from(
        &mut self,
        position: usize,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
    ) -> usize {
        assert!(position < self.episodes.len(), "abort position out of range");
        let resume_at = self.episodes[position].checkpoint;
        let discarded: Vec<Episode> = self.episodes.drain(position..).collect();
        for ep in discarded {
            mem.l1.flash_invalidate_written(ep.slot);
            mem.l1.flash_clear_epoch(ep.slot);
            mem.sb.flash_invalidate_exact(ep.slot as u8);
            self.prov[ep.slot].abort_into(&mut stats.breakdown);
            stats.counters.speculations_aborted += 1;
            stats.hists.episode_len.record(ep.retired as u64);
            stats.trace.emit(TraceKind::SpecAbort, ep.retired as u64);
        }
        if self.episodes.is_empty() {
            self.must_retire_nonspec = true;
        }
        resume_at
    }

    /// Aborts every in-flight episode. Returns the resume index of the oldest.
    ///
    /// # Panics
    /// Panics if no episode is in flight.
    pub fn abort_all(&mut self, mem: &mut CoreMem, stats: &mut CoreStats) -> usize {
        self.abort_from(0, mem, stats)
    }

    /// Records `cycles` elapsed cycles: provisionally against the youngest
    /// episode while speculating, directly into the breakdown otherwise. The
    /// event-driven kernel calls this with the width of a skipped quiescent
    /// stretch; the per-cycle loop with 1.
    pub fn record_cycles(&mut self, class: CycleClass, cycles: Cycle, stats: &mut CoreStats) {
        match self.episodes.last() {
            Some(ep) => self.prov[ep.slot].add(class, cycles),
            None => stats.breakdown.add(class, cycles),
        }
    }

    /// Whether a store-buffer entry of the given epoch may drain: only entries
    /// of the *oldest* episode (or non-speculative entries) may write the L1;
    /// younger episodes wait so their writes never mix with the older
    /// episode's speculative state.
    pub fn can_drain(&self, epoch: Option<u8>) -> bool {
        match epoch {
            None => true,
            Some(slot) => self.episodes.first().map(|e| e.slot == slot as usize).unwrap_or(false),
        }
    }

    /// Commits any still-open episodes (called when the core's program has
    /// drained completely, at which point every ordering requirement is
    /// trivially satisfied, and at the end of a simulation so provisional
    /// cycles are not lost).
    pub fn finalize(&mut self, mem: &mut CoreMem, stats: &mut CoreStats) {
        for episode in self.episodes.drain(..) {
            Self::commit_episode(&mut self.prov[episode.slot], episode, mem, stats);
        }
    }

    /// The oldest program index a rollback could resume at: the oldest
    /// episode's checkpoint, `None` outside speculation.
    pub fn rollback_floor(&self) -> Option<usize> {
        self.oldest().map(|e| e.checkpoint)
    }

    /// Violation detection for an external request: no conflict is acked at
    /// once; a conflict is deferred until `now + cov_timeout` under
    /// commit-on-violate, and otherwise aborts the conflicting episode (and
    /// every younger one) and rolls back to its checkpoint.
    pub fn on_external(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        block: BlockAddr,
        kind: ExternalKind,
        now: Cycle,
    ) -> ExternalOutcome {
        let Some(position) = self.conflict_position(mem, block, kind.is_write()) else {
            return ExternalOutcome::Ack;
        };
        match self.cov_timeout {
            Some(timeout) => ExternalOutcome::Defer { until: now + timeout },
            None => ExternalOutcome::AckAfterRollback {
                resume_at: self.abort_from(position, mem, stats),
            },
        }
    }

    /// Resolves a request deferred by [`SpeculationKernel::on_external`]:
    /// acked once the conflict is gone (a CoV commit), aborted and rolled
    /// back once `deadline` has passed with the conflict still live (a CoV
    /// timeout), left waiting otherwise.
    pub fn resolve_deferred(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        block: BlockAddr,
        kind: ExternalKind,
        deadline: Cycle,
        now: Cycle,
    ) -> DeferResolution {
        match self.conflict_position(mem, block, kind.is_write()) {
            None => {
                stats.counters.cov_commits += 1;
                DeferResolution::Ack
            }
            Some(position) if now >= deadline => {
                stats.counters.cov_timeouts += 1;
                DeferResolution::AckAfterRollback {
                    resume_at: self.abort_from(position, mem, stats),
                }
            }
            Some(_) => DeferResolution::Wait,
        }
    }

    /// Called when a fill would evict a speculatively-accessed line: commits
    /// every episode if the store buffer is empty, and otherwise aborts them
    /// all (a structural abort). Returns the resume index if it aborted.
    pub fn on_spec_eviction_pressure(
        &mut self,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
    ) -> Option<usize> {
        if !self.speculating() || self.commit_all(mem, stats) {
            return None;
        }
        stats.counters.speculations_aborted_structural += 1;
        Some(self.abort_from(0, mem, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_cpu::RobEntry;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{
        BlockAddr, ConsistencyModel, CoreId, EngineKind, Instruction, MachineConfig,
    };

    fn mem_and_stats() -> (CoreMem, CoreStats) {
        let cfg = MachineConfig::small_test(EngineKind::InvisiSelective(ConsistencyModel::Sc));
        (CoreMem::new(CoreId(0), &cfg), CoreStats::new())
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    fn entry(instr: Instruction, index: usize) -> RobEntry {
        RobEntry {
            program_index: index,
            dispatch_id: index as u64,
            instr,
            block: instr.kind.addr().map(|a| BlockAddr::containing(a, 64)),
            performed_read: instr.kind.reads_memory(),
            bound_at_head: true,
            loaded_value: Some(0),
        }
    }

    fn retire(
        kernel: &mut SpeculationKernel,
        mem: &mut CoreMem,
        stats: &mut CoreStats,
        instr: Instruction,
        index: usize,
    ) -> RetireOutcome {
        let e = entry(instr, index);
        let mut ctx = RetireCtx { mem, stats, now: 0, entry: &e };
        kernel.retire_speculative(&mut ctx)
    }

    #[test]
    fn begin_assigns_distinct_slots_up_to_max() {
        let (_, mut stats) = mem_and_stats();
        let mut k = SpeculationKernel::new(2, None);
        assert!(!k.speculating());
        let s0 = k.begin(10, &mut stats).unwrap();
        let s1 = k.begin(20, &mut stats).unwrap();
        assert_ne!(s0, s1);
        assert!(k.begin(30, &mut stats).is_none());
        assert_eq!(stats.counters.speculations_started, 2);
        assert_eq!(k.episode_count(), 2);
        assert_eq!(k.oldest().unwrap().checkpoint, 10);
        assert_eq!(k.youngest().unwrap().checkpoint, 20);
    }

    #[test]
    fn single_checkpoint_kernel_refuses_second_episode() {
        let (_, mut stats) = mem_and_stats();
        let mut k = SpeculationKernel::new(1, None);
        k.begin(0, &mut stats).unwrap();
        assert!(k.begin(5, &mut stats).is_none());
    }

    #[test]
    fn speculative_load_marks_read_bit_and_fence_retires_freely() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x1000), LineState::Shared, BlockData::zeroed());
        let mut k = SpeculationKernel::new(1, None);
        let slot = k.begin(0, &mut stats).unwrap();
        assert_eq!(
            retire(&mut k, &mut mem, &mut stats, Instruction::load(Addr::new(0x1000)), 0),
            RetireOutcome::Retired
        );
        assert!(mem.l1.is_spec_read(blk(0x1000), slot));
        assert_eq!(
            retire(&mut k, &mut mem, &mut stats, Instruction::fence(), 1),
            RetireOutcome::Retired,
            "fences retire without draining during speculation"
        );
        assert_eq!(k.youngest().unwrap().retired, 2);
    }

    #[test]
    fn speculative_store_hit_writes_l1_and_marks_written() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::zeroed());
        let mut k = SpeculationKernel::new(1, None);
        let slot = k.begin(0, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x2000), 7), 0);
        assert!(mem.l1.is_spec_written(blk(0x2000), slot));
        assert_eq!(mem.read_value(Addr::new(0x2000)), Some(7));
        assert!(mem.sb.is_empty(), "store hit bypasses the buffer");
    }

    #[test]
    fn speculative_store_miss_goes_to_buffer_with_epoch_tag() {
        let (mut mem, mut stats) = mem_and_stats();
        let mut k = SpeculationKernel::new(1, None);
        let slot = k.begin(0, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x3000), 9), 0);
        assert_eq!(mem.sb.epoch_len(Some(slot as u8)), 1);
        assert!(k.can_drain(None), "non-speculative entries always drain");
        assert!(k.can_drain(Some(slot as u8)), "oldest episode's stores may drain");
    }

    #[test]
    fn commit_all_requires_empty_store_buffer() {
        let (mut mem, mut stats) = mem_and_stats();
        let mut k = SpeculationKernel::new(1, None);
        k.begin(0, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x3000), 9), 0);
        assert!(!k.commit_all(&mut mem, &mut stats), "buffered store blocks commit");
        // Grant permission and drain.
        let (state, data) = (LineState::Exclusive, BlockData::zeroed());
        mem.fill(blk(0x3000), state, data, 1, &mut stats.counters, &mut Vec::new());
        mem.drain_store_buffer(4, 2, &mut stats.counters, |_| true);
        assert!(k.commit_all(&mut mem, &mut stats));
        assert!(!k.speculating());
        assert_eq!(stats.counters.speculations_committed, 1);
        assert!(!mem.l1.has_spec_lines(), "commit flash-clears the bits");
    }

    #[test]
    fn abort_discards_speculative_state_and_charges_violation() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::from_words([1; 8]));
        let mut k = SpeculationKernel::new(1, None);
        k.begin(42, &mut stats).unwrap();
        k.record_cycles(CycleClass::Busy, 1, &mut stats);
        k.record_cycles(CycleClass::Other, 1, &mut stats);
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x2000), 7), 42);
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x5000), 8), 43);
        let resume = k.abort_all(&mut mem, &mut stats);
        assert_eq!(resume, 42);
        assert!(!k.speculating());
        assert_eq!(stats.counters.speculations_aborted, 1);
        assert_eq!(
            stats.breakdown.get(CycleClass::Violation),
            2,
            "provisional cycles re-attributed"
        );
        assert_eq!(stats.breakdown.get(CycleClass::Busy), 0);
        assert_eq!(mem.l1.peek(blk(0x2000)), LineState::Invalid, "spec-written block invalidated");
        assert!(mem.sb.is_empty(), "speculative buffer entries discarded");
        assert!(!mem.l1.has_spec_lines());
    }

    #[test]
    fn conflict_detection_matches_paper_rules() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x1000), LineState::Shared, BlockData::zeroed());
        mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::zeroed());
        let mut k = SpeculationKernel::new(1, None);
        k.begin(0, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::load(Addr::new(0x1000)), 0);
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x2000), 1), 1);
        // Remote write to a speculatively-read block: conflict.
        assert_eq!(k.conflict_position(&mem, blk(0x1000), true), Some(0));
        // Remote read of a speculatively-read block: no conflict.
        assert_eq!(k.conflict_position(&mem, blk(0x1000), false), None);
        // Any remote request to a speculatively-written block: conflict.
        assert_eq!(k.conflict_position(&mem, blk(0x2000), false), Some(0));
        assert_eq!(k.conflict_position(&mem, blk(0x2000), true), Some(0));
        // Untouched block: no conflict.
        assert_eq!(k.conflict_position(&mem, blk(0x7000), true), None);
    }

    #[test]
    fn two_episode_partial_abort_keeps_older_episode() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x1000), LineState::Exclusive, BlockData::zeroed());
        mem.l1.fill(blk(0x2000), LineState::Exclusive, BlockData::zeroed());
        let mut k = SpeculationKernel::new(2, None);
        k.begin(0, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x1000), 1), 0);
        k.begin(10, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x2000), 2), 10);
        // A conflict on the younger episode's block only rolls back to its checkpoint.
        let pos = k.conflict_position(&mem, blk(0x2000), true).unwrap();
        assert_eq!(pos, 1);
        let resume = k.abort_from(pos, &mut mem, &mut stats);
        assert_eq!(resume, 10);
        assert_eq!(k.episode_count(), 1);
        assert_eq!(mem.l1.peek(blk(0x2000)), LineState::Invalid);
        assert!(mem.l1.is_spec_written(blk(0x1000), k.oldest().unwrap().slot));
        assert_ne!(mem.l1.peek(blk(0x1000)), LineState::Invalid, "older episode's write survives");
    }

    #[test]
    fn younger_episode_store_to_older_block_stays_in_buffer() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x1000), LineState::Exclusive, BlockData::zeroed());
        let mut k = SpeculationKernel::new(2, None);
        k.begin(0, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x1000), 1), 0);
        k.begin(5, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x1008), 2), 5);
        let young_slot = k.youngest().unwrap().slot;
        assert_eq!(
            mem.sb.epoch_len(Some(young_slot as u8)),
            1,
            "younger store to the older episode's block is buffered, not written to the L1"
        );
        assert!(!k.can_drain(Some(young_slot as u8)), "and may not drain until the older commits");
    }

    #[test]
    fn try_commit_oldest_respects_closure_and_drain_requirements() {
        let (mut mem, mut stats) = mem_and_stats();
        mem.l1.fill(blk(0x1000), LineState::Exclusive, BlockData::zeroed());
        let mut k = SpeculationKernel::new(2, None);
        k.begin(0, &mut stats).unwrap();
        retire(&mut k, &mut mem, &mut stats, Instruction::store(Addr::new(0x1000), 1), 0);
        assert!(!k.try_commit_oldest(&mut mem, &mut stats, true), "not closed yet");
        assert!(k.try_commit_oldest(&mut mem, &mut stats, false), "open commit allowed");
        assert!(!k.speculating());
    }

    #[test]
    fn finalize_preserves_provisional_cycles() {
        let (mut mem, mut stats) = mem_and_stats();
        let mut k = SpeculationKernel::new(1, None);
        k.begin(0, &mut stats).unwrap();
        k.record_cycles(CycleClass::Busy, 2, &mut stats);
        assert_eq!(stats.breakdown.total(), 0);
        k.finalize(&mut mem, &mut stats);
        assert_eq!(stats.breakdown.get(CycleClass::Busy), 2);
        assert!(!k.speculating());
    }
}
