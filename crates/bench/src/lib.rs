//! Shared harness code for regenerating the paper's tables and figures.
//!
//! # Scaling
//!
//! The paper's evaluation uses 10 M (micro) / 50 M (YCSB) requests over a
//! 960 GB SSD. The reproduction shrinks every size-like parameter by a
//! single scale factor `S` (each sweep's pinned scale, override with
//! `fig … --scale N`):
//! request counts, SSTable sizes and level budgets all divide by `S`, so
//! the *tree shape* (number of levels, compactions per operation, sync
//! counts per byte) is preserved while runtime and memory stay
//! laptop-sized. Absolute µs/op numbers shift, but
//! the ratios between the seven systems — the paper's actual claims — are
//! preserved, and EXPERIMENTS.md records paper-vs-measured side by side.

#![forbid(unsafe_code)]

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::Options;

pub mod breakdown;
pub mod campaign;
pub mod compact;
pub mod output;
pub mod paper;
pub mod repl;
pub mod report;
pub mod scan;
pub mod scenarios;
pub mod server;
pub mod shards;
pub mod sweep;
pub mod timeline;

/// The benchmark package imports the JSON module by this path.
pub use nob_sim::json;

/// The paper's fixed workload parameters, before scaling.
pub const PAPER_MICRO_OPS: u64 = 10_000_000;
pub const PAPER_YCSB_RECORDS: u64 = 50_000_000;
pub const PAPER_YCSB_OPS: u64 = 10_000_000;
pub const PAPER_TABLE_LARGE: u64 = 64 << 20;
pub const PAPER_TABLE_SMALL: u64 = 2 << 20;
pub const PAPER_LEVEL1: u64 = 10 << 20;

/// Scaled experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// The divide-everything-by factor.
    pub factor: u64,
}

impl Scale {
    /// Creates a scale; `factor` must be ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(factor: u64) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        Scale { factor }
    }

    /// Reads the scale from the command line (`--scale N`); `None`
    /// without the flag (every sweep then runs at its own pinned scale).
    /// A missing, non-numeric or zero value is a usage error: the
    /// message goes to stderr and the process exits 2.
    pub fn from_args() -> Option<Self> {
        let args: Vec<String> = std::env::args().collect();
        Scale::parse_args(&args).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    fn parse_args(args: &[String]) -> Result<Option<Self>, String> {
        let Some(at) = args.iter().position(|a| a == "--scale") else {
            return Ok(None);
        };
        match args.get(at + 1).map(|v| v.parse::<u64>()) {
            Some(Ok(factor)) if factor >= 1 => Ok(Some(Scale::new(factor))),
            Some(_) => Err(format!("--scale takes an integer >= 1, got `{}`", args[at + 1])),
            None => Err("--scale takes a value: --scale N".to_string()),
        }
    }

    /// Scaled micro-benchmark request count.
    pub fn micro_ops(&self) -> u64 {
        (PAPER_MICRO_OPS / self.factor).max(1_000)
    }

    /// Scaled YCSB record count.
    pub fn ycsb_records(&self) -> u64 {
        (PAPER_YCSB_RECORDS / self.factor).max(2_000)
    }

    /// Scaled YCSB request count per workload.
    pub fn ycsb_ops(&self) -> u64 {
        (PAPER_YCSB_OPS / self.factor).max(1_000)
    }

    /// Scales a byte size, with a floor to stay functional.
    pub fn bytes(&self, paper_bytes: u64) -> u64 {
        (paper_bytes / self.factor).max(16 << 10)
    }

    /// Scales a duration (per-file or per-time-window fixed costs).
    pub fn duration(&self, paper: Nanos) -> Nanos {
        Nanos::from_nanos((paper.as_nanos() / self.factor).max(1))
    }

    /// The harness baseline [`Options`] for a paper table size
    /// (2 MB or 64 MB), scaled.
    ///
    /// Size-like knobs divide by the factor; so do *per-file* fixed costs
    /// (none live here) and the *per-time-window* reclamation interval —
    /// per-operation costs (CPU, WAL bytes, the 1 ms L0 slowdown, the
    /// unscaled value sizes) stay real. This keeps per-operation cost
    /// composition the same as the paper's full-scale runs.
    pub fn base_options(&self, paper_table: u64) -> Options {
        let mut o = Options::default().with_table_size(self.bytes(paper_table));
        // The level-1 budget scales like everything else but never below
        // one table: a budget smaller than a single file degenerates into
        // an extra full rewrite per level, inflating write amplification
        // beyond the paper's measured ≈6× (Table 1).
        o.level1_max_bytes = self.bytes(PAPER_LEVEL1).max(o.table_size);
        o.block_cache_bytes = self.bytes(8 << 20).max(1 << 20);
        o.reclaim_interval = self.duration(Nanos::from_secs(5));
        o
    }

    /// The filesystem configuration behind [`Scale::fresh_fs`], for
    /// callers that instantiate their own stacks (e.g. `nob-store` opens
    /// one filesystem per shard from a single [`Ext4Config`]).
    ///
    /// Per-file device costs (command setup, FLUSH) and the journal's
    /// commit interval scale with the factor: a scaled run has S× more
    /// files and S× less virtual time, so these fixed costs must shrink
    /// by S to keep their per-operation weight identical to the paper's.
    pub fn fs_config(&self) -> Ext4Config {
        let mut cfg = Ext4Config::default();
        cfg.ssd.cmd_latency = self.duration(cfg.ssd.cmd_latency);
        cfg.ssd.flush_latency = self.duration(cfg.ssd.flush_latency);
        cfg.commit_interval = self.duration(cfg.commit_interval);
        cfg.writeback_chunk = (cfg.writeback_chunk / self.factor).max(4 << 10);
        // The paper's server has 2 TB DRAM for a ≤ 60 GB working set: the
        // page cache never evicts. Keep that property at scale.
        cfg.page_cache_capacity = 64 << 30;
        cfg
    }

    /// A fresh filesystem sized like the paper's platform relative to the
    /// workload (DRAM far larger than the data set); see
    /// [`Scale::fs_config`] for the scaling rules.
    pub fn fresh_fs(&self) -> Ext4Fs {
        Ext4Fs::new(self.fs_config())
    }
}

/// Formats nanoseconds-per-op as the paper's µs/op metric.
pub fn us_per_op(total: Nanos, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total.as_micros_f64() / ops as f64
    }
}

/// Formats a byte count as GB with two decimals (Table 1's unit).
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_and_floors() {
        let s = Scale::new(100);
        assert_eq!(s.micro_ops(), 100_000);
        assert_eq!(s.ycsb_records(), 500_000);
        assert_eq!(s.bytes(64 << 20), (64 << 20) / 100);
        // Floors kick in at extreme scales.
        let huge = Scale::new(1_000_000);
        assert_eq!(huge.micro_ops(), 1_000);
        assert_eq!(huge.bytes(2 << 20), 16 << 10);
    }

    #[test]
    fn base_options_scale_consistently() {
        let s = Scale::new(64);
        let o = s.base_options(PAPER_TABLE_LARGE);
        assert_eq!(o.table_size, (64 << 20) / 64);
        assert_eq!(o.write_buffer_size, o.table_size);
        // The L1 budget scales but never drops below one table.
        assert_eq!(o.level1_max_bytes, o.table_size.max((10 << 20) / 64));
        let deep = Scale::new(4096);
        let o2 = deep.base_options(PAPER_TABLE_LARGE);
        assert_eq!(o2.level1_max_bytes, o2.table_size, "floored at one table");
    }

    #[test]
    fn helpers() {
        assert!((us_per_op(Nanos::from_millis(10), 1000) - 10.0).abs() < 1e-9);
        assert!((gb(61_550_000_000) - 61.55).abs() < 1e-9);
        assert_eq!(us_per_op(Nanos::ZERO, 0), 0.0);
    }

    #[test]
    fn scale_flag_is_parsed_strictly() {
        let args = |rest: &[&str]| -> Vec<String> {
            std::iter::once("fig").chain(rest.iter().copied()).map(String::from).collect()
        };
        assert_eq!(Scale::parse_args(&args(&["paper"])), Ok(None));
        assert_eq!(Scale::parse_args(&args(&["all", "--scale", "8"])), Ok(Some(Scale::new(8))));
        for bad in [&["--scale", "abc"][..], &["--scale", "0"], &["--scale"], &["--scale", "-3"]] {
            assert!(Scale::parse_args(&args(bad)).is_err(), "{bad:?} must be a usage error");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_scale_rejected() {
        let _ = Scale::new(0);
    }
}
