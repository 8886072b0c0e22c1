//! Host-speed calibration. The shared host this benchmark runs on changes
//! speed by a quarter and more over minutes, which moves every host time
//! alike. A fixed loop that uses none of the simulator's code is timed
//! before every cell; scaling host times by it reports them at the speed
//! where the loop takes [`REFERENCE_MS`], so runs made at different host
//! speeds compare.
//!
//! The loop grows, probes and sorts about a megabyte of fresh data: of the
//! loops tried, the one whose run-level mean moved most like the
//! simulator's KIPS (a pointer chase, streaming updates over 4–64 MB and
//! pure arithmetic moved less like it). Its allocations add up to about
//! 1.5 MB to the process's peak memory, varying from run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

/// The loop's time, in milliseconds, at the host speed results are
/// scaled to.
pub const REFERENCE_MS: f64 = 10.0;

/// Fixed work: 150k map updates and probes over 50k keys, then a sort of
/// the values. Deterministic (unkeyed hasher, fixed xorshift stream); the
/// result only keeps the work from being optimised away. The map and the
/// vector are built afresh on every run: with buffers reused across runs
/// the loop tracked the simulator, which builds a fresh machine per cell,
/// far worse (ten-run spread of scaled KIPS 0.10 instead of 0.05).
pub fn run() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for i in 0..150_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 50_000).or_insert(0) += i;
        if let Some(v) = map.get(&(x % 7_919)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut values: Vec<u64> = map.into_values().collect();
    values.sort_unstable();
    acc.wrapping_add(values[values.len() / 2])
}
