//! InvisiFence: performance-transparent memory ordering via post-retirement
//! speculation.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Sections 3 and 4). It provides ordering engines (see
//! [`ifence_cpu::OrderingEngine`]) that turn the memory-ordering stalls of
//! conventional consistency implementations into bounded speculation:
//!
//! * [`InvisiSelectiveEngine`] — InvisiFence-Selective (Section 4.1):
//!   speculate only when retirement would otherwise stall for an ordering
//!   constraint of the target model (SC, TSO, or RMO); commit
//!   opportunistically, in constant time, as soon as the store buffer drains.
//!   One checkpoint, or two for the variant of Section 6.4.
//! * [`InvisiContinuousEngine`] — InvisiFence-Continuous (Section 4.2):
//!   execute everything inside speculative chunks (≥ ~100 instructions),
//!   with pipelined chunk commit over two checkpoints and the optional
//!   commit-on-violate deferral policy (Section 6.6).
//! * [`AsoEngine`] — the ASO baseline of Wenisch et al. (Section 6.4's
//!   comparison): per-store speculative state in a Scalable Store Buffer,
//!   commit by draining into the L2 while stalling external requests, and
//!   periodic intermediate checkpoints for partial rollback.
//!
//! [`build_engine`] turns an [`ifence_types::EngineKind`] into one of these
//! (or a conventional engine); the kind alone selects the variant — the
//! checkpoint count and whether commit-on-violate is on.
//!
//! Both InvisiFence engines embed the mechanism layer in [`kernel`]: register
//! checkpoints, per-block speculatively-read/written bits in the L1
//! (flash-clear commit, conditional flash-invalidate abort), a coalescing
//! store buffer with per-epoch flash invalidation, violation detection and
//! handling (abort, or a commit-on-violate deferral), the response to
//! eviction pressure, and the forward-progress rule after an abort. The
//! engine types add only their policy: when an episode begins and when it
//! commits.
//!
//! # Example
//!
//! ```
//! use invisifence::build_engine;
//! use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
//!
//! let cfg = MachineConfig::with_engine(EngineKind::InvisiSelective(ConsistencyModel::Sc));
//! let engine = build_engine(cfg.engine, &cfg);
//! assert_eq!(engine.name(), "Invisi_sc");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aso;
pub mod comparison;
pub mod continuous;
pub mod factory;
pub mod kernel;
pub mod selective;

pub use aso::AsoEngine;
pub use comparison::{figure4_rows, figure5_rows, Figure4Row, Figure5Row};
pub use continuous::InvisiContinuousEngine;
pub use factory::build_engine;
pub use kernel::SpeculationKernel;
pub use selective::InvisiSelectiveEngine;
