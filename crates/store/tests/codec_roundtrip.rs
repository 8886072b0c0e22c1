//! Round-trip property test for the hand-rolled JSON codec:
//! `encode → decode → encode` must be **byte-identical** for randomized
//! instances of every persisted type — `MachineResult`, `RunSummary` and
//! every `*Config` struct — driven by seeded [`TraceRng`] loops (the
//! workspace's offline stand-in for proptest).
//!
//! Byte-identity (not just value equality) is the property the store's
//! content addressing rests on: cache keys are hashes of encoded bytes, and
//! shard rewrites must be stable, so any drift between what the encoder
//! emits and what a decode-re-encode cycle emits would silently invalidate
//! or duplicate cache entries.

use ifence_sim::MachineResult;
use ifence_stats::{CoreStats, FabricStats, Log2Hist, RunHistograms, RunSummary};
use ifence_store::{Json, JsonCodec};
use ifence_types::{
    CacheConfig, ConsistencyModel, CoreConfig, CycleClass, DramConfig, EngineKind,
    InterconnectConfig, L2Config, MachineConfig, SpeculationConfig, StoreBufferConfig,
    StoreBufferKind,
};
use ifence_workloads::{PhasedWorkload, TraceRng, Workload, WorkloadPhase, WorkloadSpec};

const ROUNDS: usize = 64;

/// Asserts the byte-identity property for one value.
fn assert_roundtrip<T: JsonCodec + PartialEq + std::fmt::Debug>(value: &T, what: &str) {
    let first = value.to_json().encode();
    let decoded = T::from_json(&Json::parse(&first).expect("own encoding parses"))
        .unwrap_or_else(|e| panic!("{what}: decode failed: {e}\nencoding: {first}"));
    assert_eq!(&decoded, value, "{what}: decoded value differs");
    let second = decoded.to_json().encode();
    assert_eq!(second, first, "{what}: re-encode is not byte-identical");
}

fn rand_string(rng: &mut TraceRng) -> String {
    let len = rng.range_usize(0..24);
    (0..len)
        .map(|_| {
            // Mix printable ASCII with characters that exercise escaping.
            match rng.range_usize(0..12) {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\t',
                4 => '\u{1}',
                5 => '∞',
                6 => '😀',
                _ => (b'a' + (rng.range_usize(0..26) as u8)) as char,
            }
        })
        .collect()
}

fn rand_f64(rng: &mut TraceRng) -> f64 {
    // Fractions, negatives, zeros and large magnitudes — every finite f64
    // round-trips through Rust's shortest formatting, so no value here is
    // "safe by construction".
    match rng.range_usize(0..5) {
        0 => 0.0,
        1 => rng.f64(),
        2 => -rng.f64(),
        3 => rng.f64() * 1.0e12,
        _ => rng.f64() * 1.0e-9,
    }
}

fn rand_model(rng: &mut TraceRng) -> ConsistencyModel {
    ConsistencyModel::ALL[rng.range_usize(0..3)]
}

fn rand_engine(rng: &mut TraceRng) -> EngineKind {
    match rng.range_usize(0..5) {
        0 => EngineKind::Conventional(rand_model(rng)),
        1 => EngineKind::InvisiSelective(rand_model(rng)),
        2 => EngineKind::InvisiSelectiveTwoCkpt(rand_model(rng)),
        3 => EngineKind::InvisiContinuous { commit_on_violate: rng.bool(0.5) },
        _ => EngineKind::Aso(rand_model(rng)),
    }
}

fn rand_cache(rng: &mut TraceRng) -> CacheConfig {
    CacheConfig {
        size_bytes: 1 << rng.range_usize(10..22),
        associativity: rng.range_usize(1..17),
        block_bytes: 1 << rng.range_usize(4..8),
        hit_latency: rng.range_u64(1..10),
        ports: rng.range_usize(1..5),
        mshrs: rng.range_usize(1..65),
        victim_entries: rng.range_usize(0..33),
    }
}

fn rand_machine(rng: &mut TraceRng) -> MachineConfig {
    let mut cfg = MachineConfig::with_engine(rand_engine(rng));
    cfg.cores = rng.range_usize(1..33);
    cfg.core = CoreConfig {
        rob_size: rng.range_usize(8..257),
        width: rng.range_usize(1..9),
        mem_issue_ports: rng.range_usize(1..5),
        store_prefetch: rng.bool(0.5),
        sb_drain_per_cycle: rng.range_usize(1..5),
    };
    cfg.l1 = rand_cache(rng);
    cfg.l2 = L2Config {
        size_bytes: 1 << rng.range_usize(18..25),
        associativity: rng.range_usize(1..17),
        hit_latency: rng.range_u64(5..60),
        mshrs: rng.range_usize(1..65),
    };
    cfg.dram = DramConfig { latency: rng.range_u64(40..400) };
    cfg.store_buffer = StoreBufferConfig {
        kind: [
            StoreBufferKind::FifoWord,
            StoreBufferKind::CoalescingBlock,
            StoreBufferKind::Scalable,
        ][rng.range_usize(0..3)],
        entries: rng.range_usize(1..129),
    };
    cfg.interconnect = InterconnectConfig {
        mesh_width: rng.range_usize(1..9),
        mesh_height: rng.range_usize(1..9),
        hop_latency: rng.range_u64(1..200),
        directory_latency: rng.range_u64(1..32),
        retry_interval: rng.range_u64(1..64),
    };
    cfg.speculation = SpeculationConfig {
        min_chunk_instructions: rng.range_usize(1..1000),
        cov_timeout: rng.range_u64(1..10_000),
        aso_checkpoint_interval: rng.range_usize(1..256),
        ssb_entries: rng.range_usize(1..4096),
        ssb_drain_per_cycle: rng.range_usize(1..8),
    };
    cfg.seed = rng.next_u64();
    cfg.dense_kernel = rng.bool(0.5);
    cfg.trace = rng.bool(0.5);
    cfg
}

fn rand_hist(rng: &mut TraceRng) -> Log2Hist {
    let mut hist = Log2Hist::new();
    for _ in 0..rng.range_usize(0..64) {
        hist.record(rng.next_u64() >> rng.range_u64(0..64));
    }
    hist
}

fn rand_histograms(rng: &mut TraceRng) -> RunHistograms {
    RunHistograms {
        episode_len: rand_hist(rng),
        deferral: rand_hist(rng),
        sb_occupancy: rand_hist(rng),
        l2_miss_latency: rand_hist(rng),
        fabric_queue_depth: rand_hist(rng),
    }
}

fn rand_core_stats(rng: &mut TraceRng) -> CoreStats {
    let mut stats = CoreStats::new();
    for class in CycleClass::ALL {
        stats.breakdown.add(class, rng.range_u64(0..1_000_000));
    }
    stats.counters.instructions_retired = rng.next_u64() >> rng.range_u64(0..64);
    stats.counters.loads_retired = rng.range_u64(0..u64::MAX / 2);
    stats.counters.stores_retired = rng.next_u64() >> 20;
    stats.counters.l1_hits = rng.next_u64() >> 32;
    stats.counters.l1_misses = rng.next_u64() >> 40;
    stats.counters.speculations_started = rng.range_u64(0..10_000);
    stats.counters.speculations_aborted = rng.range_u64(0..10_000);
    stats.counters.cycles_speculating = rng.next_u64() >> 16;
    stats.counters.cov_deferrals = rng.range_u64(0..1000);
    stats.counters.writebacks = rng.range_u64(0..1_000_000);
    stats.hists.episode_len = rand_hist(rng);
    stats.hists.deferral = rand_hist(rng);
    stats.hists.sb_occupancy = rand_hist(rng);
    stats
}

fn rand_fabric_stats(rng: &mut TraceRng) -> FabricStats {
    FabricStats {
        l2_hits: rng.next_u64() >> 24,
        l2_misses: rng.next_u64() >> 32,
        l2_evictions: rng.range_u64(0..1_000_000),
        l2_recalls: rng.range_u64(0..100_000),
        dram_reads: rng.next_u64() >> 32,
        dram_writebacks: rng.range_u64(0..1_000_000),
        busy_retries: rng.range_u64(0..1_000_000),
    }
}

fn rand_summary(rng: &mut TraceRng) -> RunSummary {
    let stats = rand_core_stats(rng);
    RunSummary {
        config: rand_string(rng),
        workload: rand_string(rng),
        cycles: rng.next_u64(),
        breakdown: stats.breakdown,
        counters: stats.counters,
        fabric: rand_fabric_stats(rng),
        histograms: rand_histograms(rng),
        speculation_fraction: rand_f64(rng),
    }
}

fn rand_machine_result(rng: &mut TraceRng) -> MachineResult {
    let cores = rng.range_usize(1..6);
    MachineResult {
        cycles: rng.next_u64() >> rng.range_u64(0..32),
        finished: rng.bool(0.8),
        deadlocked: rng.bool(0.2),
        deadlock_diagnostic: if rng.bool(0.5) { Some(rand_string(rng)) } else { None },
        per_core: (0..cores).map(|_| rand_core_stats(rng)).collect(),
        fabric: rand_fabric_stats(rng),
        histograms: rand_histograms(rng),
        load_results: (0..cores)
            .map(|_| {
                (0..rng.range_usize(0..8))
                    .map(|_| (rng.range_usize(0..1000), rng.next_u64()))
                    .collect()
            })
            .collect(),
        config_label: rand_string(rng),
    }
}

fn rand_spec(rng: &mut TraceRng) -> WorkloadSpec {
    let mut spec = WorkloadSpec::uniform(rand_string(rng));
    spec.description = rand_string(rng);
    spec.default_instructions = rng.range_usize(1..100_000);
    spec.mem_fraction = rng.f64();
    spec.store_fraction = rng.f64();
    spec.critical_section_rate = rng.f64() * 0.1;
    spec.critical_section_len = rng.range_usize(1..64);
    spec.locks = rng.range_usize(1..512);
    spec.shared_fraction = rng.f64();
    spec.shared_blocks = rng.range_usize(1..10_000);
    spec.private_blocks = rng.range_usize(1..10_000);
    spec.store_burst_rate = rng.f64() * 0.05;
    spec.store_burst_len = rng.range_usize(1..16);
    spec.fence_rate = rng.f64() * 0.01;
    spec
}

fn rand_workload(rng: &mut TraceRng) -> Workload {
    if rng.bool(0.5) {
        Workload::Steady(rand_spec(rng))
    } else {
        Workload::Phased(PhasedWorkload {
            name: rand_string(rng),
            description: rand_string(rng),
            phases: (0..rng.range_usize(1..4))
                .map(|_| WorkloadPhase {
                    spec: rand_spec(rng),
                    instructions: rng.range_usize(1..10_000),
                })
                .collect(),
        })
    }
}

#[test]
fn machine_results_roundtrip_byte_identically() {
    let mut rng = TraceRng::seed_from_u64(0xC0DE_C001);
    for round in 0..ROUNDS {
        assert_roundtrip(&rand_machine_result(&mut rng), &format!("MachineResult[{round}]"));
    }
}

#[test]
fn run_summaries_roundtrip_byte_identically() {
    let mut rng = TraceRng::seed_from_u64(0xC0DE_C002);
    for round in 0..ROUNDS {
        assert_roundtrip(&rand_summary(&mut rng), &format!("RunSummary[{round}]"));
    }
}

#[test]
fn every_config_struct_roundtrips_byte_identically() {
    let mut rng = TraceRng::seed_from_u64(0xC0DE_C003);
    for round in 0..ROUNDS {
        let cfg = rand_machine(&mut rng);
        assert_roundtrip(&cfg, &format!("MachineConfig[{round}]"));
        // The components individually, too — they are separately persisted
        // by future tooling and separately decoded on errors.
        assert_roundtrip(&cfg.core, &format!("CoreConfig[{round}]"));
        assert_roundtrip(&cfg.l1, &format!("CacheConfig[{round}]"));
        assert_roundtrip(&cfg.l2, &format!("L2Config[{round}]"));
        assert_roundtrip(&cfg.dram, &format!("DramConfig[{round}]"));
        assert_roundtrip(&cfg.store_buffer, &format!("StoreBufferConfig[{round}]"));
        assert_roundtrip(&cfg.interconnect, &format!("InterconnectConfig[{round}]"));
        assert_roundtrip(&cfg.speculation, &format!("SpeculationConfig[{round}]"));
        assert_roundtrip(&cfg.engine, &format!("EngineKind[{round}]"));
    }
}

#[test]
fn workloads_roundtrip_byte_identically() {
    let mut rng = TraceRng::seed_from_u64(0xC0DE_C004);
    for round in 0..ROUNDS {
        assert_roundtrip(&rand_workload(&mut rng), &format!("Workload[{round}]"));
    }
}

#[test]
fn keys_of_equal_inputs_are_equal_and_decode_independent() {
    // The cache key is a hash of encoded bytes; byte-identity of the codec
    // implies key stability across encode/decode cycles. Spot-check that a
    // config surviving a round trip produces the same key.
    let mut rng = TraceRng::seed_from_u64(0xC0DE_C005);
    for _ in 0..16 {
        let cfg = rand_machine(&mut rng);
        let workload = rand_workload(&mut rng);
        let key_a = ifence_store::CellKey::new(&cfg, &workload, 1000, 1_000_000);
        let decoded = MachineConfig::from_json(&Json::parse(&cfg.to_json().encode()).unwrap())
            .expect("config decodes");
        let key_b = ifence_store::CellKey::new(&decoded, &workload, 1000, 1_000_000);
        assert_eq!(key_a, key_b, "keys must survive a codec round trip");
    }
}
