//! Trace-driven out-of-order core timing model.
//!
//! The [`Core`] models the pipeline behaviour the paper's evaluation depends
//! on: a 96-entry reorder buffer, wide dispatch and in-order retirement,
//! out-of-order load execution with in-window ordering enforcement (load-queue
//! snooping), store prefetching, a store buffer, and a private L1 data cache
//! connected to the coherence fabric.
//!
//! What the core does **not** decide is *when an instruction may retire with
//! respect to the memory consistency model*: that is delegated to an
//! [`OrderingEngine`]. Conventional SC/TSO/RMO engines live in
//! `ifence-consistency`; the InvisiFence and ASO engines live in the
//! `invisifence` crate. The engine owns all speculation state (checkpoints,
//! speculative-bit management, commit/abort policy) and instructs the core to
//! roll back by returning [`EngineAction::Rollback`].
//!
//! Per simulated cycle a core:
//! 1. resolves deferred external requests and runs the engine's `tick`,
//! 2. drains the store buffer into the L1 (subject to the engine's gate),
//! 3. issues ready memory operations to the L1 / coherence fabric,
//! 4. retires up to `width` instructions in order, consulting the engine,
//! 5. dispatches new instructions from the trace into the reorder buffer,
//! 6. attributes the cycle to one of the five breakdown buckets.
//!
//! [`Core::step`] returns an [`ifence_types::CoreActivity`]: whether the core
//! changed state this cycle and, if not, the earliest cycle it could act
//! again. The machine's event-driven kernel uses these reports to jump
//! simulated time over stretches in which every core is provably quiescent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod engine;
pub mod mem_side;
pub mod rob;

pub use crate::core::{Core, CoreSleep};
pub use engine::{
    DeferResolution, EngineAction, ExternalKind, ExternalOutcome, OrderingEngine, RetireCtx,
    RetireOutcome,
};
pub use mem_side::CoreMem;
pub use rob::{Rob, RobEntry, RobView};
