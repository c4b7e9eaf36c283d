//! Offline stand-in for `criterion`.
//!
//! Implements the harness surface the workspace's benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`] / [`Bencher::iter_custom`],
//! plus the [`criterion_group!`] / [`criterion_main!`] macros — with a
//! simple mean-of-samples timer instead of criterion's statistics.
//! Virtual-time benches report through `iter_custom`, so the numbers
//! printed here are exactly the simulator's own measurements.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-exported for convenience parity with criterion.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup (accepted, not acted upon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per measured iteration.
    PerIteration,
}

/// Top-level harness state.
#[derive(Debug)]
pub struct Criterion {
    filter: Option<String>,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Honour the substring filter `cargo bench -- <filter>` passes.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter, sample_size: 10 }
    }
}

impl Criterion {
    /// Accepted for compatibility; this shim never plots.
    pub fn without_plots(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup { criterion: self, name: name.into(), sample_size }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.sample_size;
        run_one(self.filter.as_deref(), name, sample_size, f);
        self
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_one(self.criterion.filter.as_deref(), &full, self.sample_size, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(filter: Option<&str>, name: &str, samples: usize, mut f: F) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    let mut bencher = Bencher { iters: 1, elapsed: Duration::ZERO };
    // Warm-up pass to settle caches and reach steady state.
    f(&mut bencher);
    let mut total = Duration::ZERO;
    let mut iters = 0u64;
    for _ in 0..samples.max(1) {
        bencher.elapsed = Duration::ZERO;
        f(&mut bencher);
        total += bencher.elapsed;
        iters += bencher.iters;
    }
    let per_iter = if iters == 0 { Duration::ZERO } else { total / iters.max(1) as u32 };
    println!("{name:<48} {:>12.3} us/iter ({iters} iters)", per_iter.as_secs_f64() * 1e6);
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iters = 16;
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over inputs built by `setup`, excluding setup time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.iters = 8;
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }

    /// Lets the routine measure itself (used for virtual-time results).
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        self.iters = 1;
        self.elapsed = routine(self.iters);
    }
}

/// Declares a group of benchmark functions, with or without a
/// configuration expression.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_modes_record_time() {
        let mut c = Criterion { filter: None, sample_size: 2 };
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        g.bench_function("iter", |b| b.iter(|| 1 + 1));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        g.bench_function("custom", |b| b.iter_custom(Duration::from_nanos));
        g.finish();
    }
}
