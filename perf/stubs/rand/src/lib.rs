//! Offline stand-in for `rand` 0.8 with the `small_rng` feature: `SmallRng`
//! is xoshiro256++ seeded through SplitMix64, and `Rng` has the three methods
//! the repository calls (`gen`, `gen_range`, `gen_bool`), written after the
//! published crate's sampling algorithms. Under it every `corpus/*.json`
//! entry replays to its pinned trace digest and availability floor.

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Widening multiply with a rejection zone: `low + uniform[0, span)`, or the
/// whole type when `span` wrapped to 0.
macro_rules! int_range {
    ($($ty:ty => $large:ty, $wide:ty);* $(;)?) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample_single(rng)
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = (*self.start(), *self.end());
                assert!(low <= high, "cannot sample empty range");
                let span = (high.wrapping_sub(low) as $large).wrapping_add(1);
                if span == 0 {
                    return <$large as Standard>::sample(rng) as $ty;
                }
                let zone = (span << span.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$large as Standard>::sample(rng);
                    let wide = v as $wide * span as $wide;
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    )*};
}

int_range! {
    i32 => u32, u64;
    u32 => u32, u64;
    i64 => u64, u128;
    u64 => u64, u128;
    usize => u64, u128;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (low, high) = (self.start, self.end);
        assert!(low < high, "cannot sample empty range");
        let scale = high - low;
        loop {
            // 52 random bits as the mantissa of a float in [1, 2).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | 0x3ff0_0000_0000_0000);
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
        }
    }
}

/// The user-facing methods, on every generator.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        if p == 1.0 {
            return true;
        }
        // p scaled to 64 bits; 2^64 as a float.
        self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
