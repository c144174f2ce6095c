//! Seeded input generation. Every input the benchmark sends to the
//! program under test comes from here, so one `--seed` fixes the mix
//! order and the grids. The generator is the benchmark's own (not the
//! simulator's `DetRng`), so a change to the simulator can never change
//! the inputs.

/// The splitmix64 generator: a 64-bit counter passed through a mixing
/// function. Small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one purpose (`"sim-mix/order"`, ...)
    /// of the same seed, so adding a draw to one stream leaves the others
    /// unchanged.
    pub fn stream(seed: u64, purpose: &str) -> SplitMix64 {
        let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
        for &b in purpose.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        SplitMix64::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_sequence() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(42, "keys");
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(42, "keys");
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = SplitMix64::stream(43, "keys");
        assert_ne!(a[0], other.next_u64());
        let mut purpose = SplitMix64::stream(42, "arrivals");
        assert_ne!(a[0], purpose.next_u64());
    }

    #[test]
    fn splitmix_matches_the_reference_output() {
        // First outputs of splitmix64 seeded with 0 (Vigna's reference).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
