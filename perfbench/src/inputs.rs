//! Seeded input synthesis. Every payload is a pure function of the workload
//! seed and the payload's coordinates, so the same seed always yields the
//! same inputs and a payload can be regenerated for a check instead of kept.

/// SplitMix64: small, fast and good enough to drive payloads and schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream, derived from the seed and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Model parameters of one client update: `dim` values uniform in `[-1, 1)`.
/// `key` identifies the update within the workload (round and client).
pub fn params(seed: u64, key: u64, dim: usize) -> Vec<f32> {
    // A 64-bit LCG seeded from SplitMix, two values per step from its high
    // bits: payload synthesis must stay cheap next to the offers it feeds.
    let mut state = Rng::new(seed, key).next_u64();
    let mut out = vec![0.0f32; dim];
    for pair in out.chunks_mut(2) {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        for (value, shift) in pair.iter_mut().zip([40u32, 16]) {
            *value = ((state >> shift) & 0xFF_FFFF) as f32 / (1u32 << 23) as f32 - 1.0;
        }
    }
    out
}

/// The sample count (FedAvg weight) of one client update, in `1..=64`.
pub fn samples(seed: u64, key: u64) -> u64 {
    Rng::new(seed ^ 0x5A3B_01E5, key).range(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_are_seeded_bounded_and_sized() {
        let a = params(7, 3, 1001);
        assert_eq!(a.len(), 1001);
        assert_eq!(a, params(7, 3, 1001));
        assert_ne!(a, params(8, 3, 1001));
        assert_ne!(a, params(7, 4, 1001));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert!((1..=64).contains(&samples(7, 3)));
    }
}
