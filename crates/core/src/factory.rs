//! Construction of ordering engines from an [`EngineKind`].

use crate::aso::AsoEngine;
use crate::continuous::InvisiContinuousEngine;
use crate::selective::InvisiSelectiveEngine;
use ifence_consistency::ConventionalEngine;
use ifence_cpu::OrderingEngine;
use ifence_types::{EngineKind, MachineConfig};

/// Builds the ordering engine named by `kind`, configured from `cfg`.
///
/// This is the single entry point the machine model uses to instantiate any
/// of the configurations evaluated in the paper: conventional SC/TSO/RMO,
/// InvisiFence-Selective (one or two checkpoints), InvisiFence-Continuous
/// (with or without commit-on-violate), and the ASO baseline.
///
/// `kind` alone selects the variant — the checkpoint count
/// ([`EngineKind::checkpoints`]) and the commit-on-violate policy; `cfg`
/// supplies only the speculation parameters (chunk size, CoV timeout, ASO
/// and second-checkpoint intervals).
///
/// # Example
/// ```
/// use invisifence::build_engine;
/// use ifence_types::{ConsistencyModel, EngineKind, MachineConfig};
///
/// let cfg = MachineConfig::with_engine(EngineKind::Conventional(ConsistencyModel::Tso));
/// assert_eq!(build_engine(cfg.engine, &cfg).name(), "tso");
/// ```
pub fn build_engine(kind: EngineKind, cfg: &MachineConfig) -> Box<dyn OrderingEngine> {
    match kind {
        EngineKind::Conventional(model) => Box::new(ConventionalEngine::new(model)),
        EngineKind::InvisiSelective(model) | EngineKind::InvisiSelectiveTwoCkpt(model) => {
            Box::new(InvisiSelectiveEngine::new(model, kind.checkpoints(), &cfg.speculation))
        }
        EngineKind::InvisiContinuous { commit_on_violate } => {
            Box::new(InvisiContinuousEngine::new(commit_on_violate, &cfg.speculation))
        }
        EngineKind::Aso(model) => Box::new(AsoEngine::new(model, cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::ConsistencyModel::*;

    #[test]
    fn every_engine_kind_builds_with_matching_label() {
        // EngineKind::all() is the canonical list: a newly added kind that
        // cannot be built (or whose engine misreports its name) fails here
        // without anyone having to remember to extend a hand-written list.
        for kind in EngineKind::all() {
            let cfg = MachineConfig::with_engine(kind);
            let engine = build_engine(kind, &cfg);
            assert_eq!(engine.name(), kind.label(), "label mismatch for {kind:?}");
        }
    }

    #[test]
    fn continuous_engine_builds_even_from_single_checkpoint_config() {
        // The variant comes from the requested kind, not from the config:
        // a config made for a one-checkpoint engine still yields the
        // two-checkpoint variants, and a two-checkpoint one a single-
        // checkpoint engine.
        let cfg = MachineConfig::with_engine(EngineKind::Conventional(Rmo));
        let engine = build_engine(EngineKind::InvisiContinuous { commit_on_violate: false }, &cfg);
        assert_eq!(engine.name(), "Invisi_cont");
        let engine = build_engine(EngineKind::InvisiSelectiveTwoCkpt(Sc), &cfg);
        assert_eq!(engine.name(), "Invisi_sc-2ckpt");
        let two = MachineConfig::with_engine(EngineKind::InvisiSelectiveTwoCkpt(Sc));
        assert_eq!(build_engine(EngineKind::InvisiSelective(Sc), &two).name(), "Invisi_sc");
    }
}
