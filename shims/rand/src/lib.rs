//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access and no vendored registry, so
//! this workspace ships the tiny subset of `rand` 0.8 it actually uses:
//! [`rngs::SmallRng`] (xoshiro256++ seeded via splitmix64), the [`Rng`]
//! extension trait (`gen`, `gen_range`, `gen_bool`, `gen_ratio`), the
//! [`SeedableRng::seed_from_u64`] constructor and
//! [`seq::SliceRandom::shuffle`]. Streams are deterministic per seed,
//! which is exactly what the simulation's reproducibility story needs;
//! nothing here is cryptographic.

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// Low-level uniform bit source.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding interface; only the `u64` convenience entry point is provided.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from the generator's raw bits (the shim's
/// analogue of sampling from the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges a value can be drawn from (`gen_range` argument).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u128;
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let f = <$t as Standard>::sample(rng);
                self.start + f * (self.end - self.start)
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// High-level sampling methods, blanket-implemented for every bit source.
pub trait Rng: RngCore {
    /// A uniformly distributed value of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A value drawn uniformly from `range`.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        self.gen::<f64>() < p
    }

    /// `true` with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool
    where
        Self: Sized,
    {
        assert!(denominator > 0 && numerator <= denominator, "gen_ratio: bad ratio");
        self.gen_range(0..denominator) < numerator
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(1..=100usize);
            assert!((1..=100).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn ratio_is_roughly_right() {
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_ratio(1, 4)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
