//! Host-speed reference.
//!
//! The shared host this benchmark runs on changes speed by itself — up
//! to 2× over minutes, for every process alike. A fixed reference kernel
//! that no code of the repository touches is timed between passes; the
//! median of its samples, over its time on a nominal host, is the run's
//! speed factor, and host times are reported divided by it ("nominal-host
//! seconds"). A change to the simulator moves the measured times but not
//! the kernel, so it still shows in full; a slow phase of the host moves
//! both, and cancels.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The kernel's time on the nominal host.
pub const NOMINAL_KERNEL_S: f64 = 0.080;

/// Bytes between the offsets the streaming phase validates from.
const STREAM_STEP: usize = 32;

/// A random cyclic permutation of `n` words.
fn make_ring(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut z = 0x2545_f491_4f6c_dd1du64;
    for i in (1..n).rev() {
        z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        order.swap(i, (z >> 33) as usize % (i + 1));
    }
    let mut next = vec![0u32; n];
    for w in 0..n {
        next[order[w] as usize] = order[(w + 1) % n];
    }
    next
}

/// A 2 MiB ring (beyond the caches) and a 64 KiB one (within them),
/// built once.
fn rings() -> &'static (Vec<u32>, Vec<u32>) {
    static RINGS: OnceLock<(Vec<u32>, Vec<u32>)> = OnceLock::new();
    RINGS.get_or_init(|| (make_ring(1 << 19), make_ring(1 << 14)))
}

/// 256 KiB of ASCII letters, built once.
fn text() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        (0..1 << 18)
            .map(|_| {
                z = lcg(z);
                b'a' + ((z >> 33) % 26) as u8
            })
            .collect()
    })
}

fn lcg(z: u64) -> u64 {
    z.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// One run of the reference kernel, in three phases the benchmark's work
/// sits between: a dependent walk over the large ring with ordered- and
/// hashed-map churn (memory-latency bound), then queue and small-map
/// traffic steered by the small ring (cache-resident, branchy), then
/// UTF-8 validation of the text from successive offsets (streaming, as
/// the JSON parser scans a snapshot). On one recorded trace of a shared
/// host, the first phase alone tracked a fabric run's slowdowns with a
/// quartile spread of 0.16, the second alone 0.11, both together 0.03.
/// The streaming phase joined when the host's streaming speed was seen
/// to drift by a third, apart from the other two: across eight
/// processes, parse + restore of a snapshot spread 0.11 unscaled, 0.06
/// over the first two phases, 0.03 over the streaming one alone.
pub fn kernel() -> Duration {
    let (large, small) = rings();
    let t0 = Instant::now();
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..400_000 {
        at = large[at as usize];
        acc = acc.wrapping_add(u64::from(at));
    }
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut z = acc | 1;
    for i in 0..60_000u64 {
        z = lcg(z);
        ordered.insert(z >> 40, i);
        hashed.insert(z >> 30, i);
    }
    let mut queue: VecDeque<u64> = VecDeque::with_capacity(1024);
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for i in 0..300_000u64 {
        z = lcg(z);
        at = small[at as usize % small.len()];
        let key = ((z >> 40) as u32 ^ at) & 4095;
        if z & 3 == 0 {
            acc = acc.wrapping_add(queue.pop_front().unwrap_or(0));
        } else if queue.len() < 1000 {
            queue.push_back(i ^ acc);
        }
        match z & 7 {
            0..=2 => *counts.entry(key).or_insert(0) += 1,
            3 => {
                counts.remove(&key);
            }
            _ => {}
        }
    }
    let text = text();
    let mut valid = 0usize;
    for off in (0..text.len()).step_by(STREAM_STEP) {
        valid += std::str::from_utf8(black_box(&text[off..])).map_or(0, str::len);
    }
    black_box((
        acc,
        ordered.len(),
        hashed.len(),
        queue.len(),
        counts.len(),
        valid,
    ));
    t0.elapsed()
}

/// Runs the kernel `n` times and returns the samples in seconds.
pub fn samples(n: usize) -> Vec<f64> {
    (0..n).map(|_| kernel().as_secs_f64()).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn rings_are_single_cycles() {
        let (large, small) = super::rings();
        for ring in [large, small] {
            let (mut at, mut steps) = (0u32, 0usize);
            loop {
                at = ring[at as usize];
                steps += 1;
                if at == 0 {
                    break;
                }
            }
            assert_eq!(steps, ring.len());
        }
    }
}
