//! The host-speed adjustment. The benchmark's host is shared: the same
//! fixed work takes from 1x to 2x as long from one second to the next, with
//! no steal time reported, and a whole run can sit on a fast or a slow
//! stretch. So every timed stretch of a workload (an operation, a serve
//! round, a set-up repetition) is bracketed by runs of a fixed reference
//! that uses none of the engine's code, and its time is divided by how
//! much slower than nominal the reference ran around it. A change to the
//! program moves the adjusted times in full; a change of host speed mostly
//! cancels.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// The reference's time at nominal host speed: its median on the 2-core
/// host the benchmark was tuned on. Adjusted times are in ms at that speed.
pub const NOMINAL_MS: f64 = 6.0;

/// Readings on each side of a stretch that its factor takes the median of.
const WINDOW: usize = 2;

/// Keys the reference sorts and hashes: 1 MiB of `u64`.
const KEYS: usize = 1 << 17;
/// Slots of the reference's open-addressing hash table (half full).
const SLOTS: usize = 1 << 16;

/// Runs the reference once on the given buffers and returns its wall time
/// in ms. The work is the same on every call: fill `keys` from a fixed
/// seed and sort them, then insert every fourth key into `slots` by linear
/// probing and look every key up. It allocates nothing, so the state the
/// engine leaves the allocator in does not change its time.
fn reference_ms(keys: &mut [u64], slots: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for k in keys.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *k = state | 1;
    }
    keys.sort_unstable();
    slots.fill(0);
    let mask = slots.len() - 1;
    let home = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
    for &k in keys.iter().step_by(4) {
        let mut i = home(k);
        while slots[i] != 0 && slots[i] != k {
            i = (i + 1) & mask;
        }
        slots[i] = k;
    }
    let mut hits = 0usize;
    for &k in keys.iter() {
        let mut i = home(k);
        while slots[i] != 0 {
            if slots[i] == k {
                hits += 1;
                break;
            }
            i = (i + 1) & mask;
        }
    }
    black_box(hits);
    start.elapsed().as_secs_f64() * 1e3
}

/// Reference readings in time order: reading `k` is taken just before
/// stretch `k`, and one more after the last stretch.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    pub readings: Vec<f64>,
    keys: Vec<u64>,
    slots: Vec<u64>,
}

impl HostSpeed {
    /// Readings taken elsewhere, to compute factors from.
    #[cfg(test)]
    pub fn from_readings(readings: Vec<f64>) -> Self {
        HostSpeed {
            readings,
            ..HostSpeed::default()
        }
    }

    /// Takes one reading. The first allocates the reference's buffers.
    pub fn read(&mut self) {
        if self.keys.is_empty() {
            self.keys = vec![0; KEYS];
            self.slots = vec![0; SLOTS];
        }
        self.readings
            .push(reference_ms(&mut self.keys, &mut self.slots));
    }

    /// How much slower than nominal the host ran around stretch `k`: the
    /// median of the readings from `WINDOW` before it to `WINDOW` after it
    /// (clipped to the run), over [`NOMINAL_MS`]. 1 without readings.
    pub fn factor(&self, k: usize) -> f64 {
        let n = self.readings.len();
        if n == 0 {
            return 1.0;
        }
        let k = k.min(n - 1);
        let lo = k.saturating_sub(WINDOW - 1);
        let hi = (k + WINDOW + 1).min(n);
        stats::median(&self.readings[lo..hi]).expect("a non-empty window") / NOMINAL_MS
    }

    /// `ms` of stretch `k` at nominal host speed.
    pub fn adjust(&self, k: usize, ms: f64) -> f64 {
        ms / self.factor(k)
    }

    /// Median reading of the run, in ms; 0 without readings.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.readings).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_is_scaled_by_the_readings_around_it() {
        let (n, s) = (NOMINAL_MS, 2.0 * NOMINAL_MS);
        let speed = HostSpeed::from_readings(vec![n, n, s, s, s, n]);
        // Stretch 0 sees readings 0..=2 → median nominal.
        assert_eq!(speed.adjust(0, 100.0), 100.0);
        // Stretch 3 sees readings 2..=5 → median twice nominal.
        assert_eq!(speed.adjust(3, 100.0), 50.0);
        assert_eq!(speed.median_ms(), 1.5 * NOMINAL_MS);
        assert_eq!(HostSpeed::default().adjust(4, 7.0), 7.0);
    }

    #[test]
    fn readings_reuse_the_buffers() {
        let mut speed = HostSpeed::default();
        speed.read();
        let keys = speed.keys.as_ptr();
        speed.read();
        assert_eq!(speed.keys.as_ptr(), keys);
        assert!(speed.readings.iter().all(|&ms| ms > 0.0));
        assert!(speed.keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
