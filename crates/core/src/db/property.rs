//! Introspection: `GetProperty`-style strings and the gauges pushed to the
//! metrics hub.

use nob_sim::Nanos;

use super::Db;

impl Db {
    /// Engine introspection, LevelDB-style (`GetProperty`). Two names
    /// answer; every other name is `None`:
    ///
    /// * `"noblsm.stats"` — one-line engine counters, including read and
    ///   write amplification inputs;
    /// * `"noblsm.compaction-stats"` — the classic `leveldb.stats`-style
    ///   per-level table (files, size, compaction reads/writes/time).
    ///
    /// Single numbers have typed accessors instead:
    /// [`Db::last_sequence`], [`Db::level_file_counts`],
    /// [`Db::current_version`], and [`Db::fs`] for the filesystem and
    /// device below (`dirty_bytes`, `retained_bytes`, `stats`, `io_stats`).
    pub fn property(&self, name: &str) -> Option<String> {
        match name {
            "noblsm.stats" => {
                let s = &self.stats;
                let mut line = format!(
                    "writes={} gets={} minor={} major={} seek={} stalls={} stall_time={} \
shadows={} reclaimed={} files_read={} read_amp={:.2}",
                    s.writes,
                    s.gets,
                    s.minor_compactions,
                    s.major_compactions,
                    s.seek_compactions,
                    s.stalls,
                    s.stall_time,
                    s.shadow_files,
                    s.reclaimed_files,
                    s.files_read_per_get,
                    s.read_amplification()
                );
                line.push_str(&format!(
                    " debt={} lanes={}/{} preempt_l0={} backoff={}",
                    self.compaction_debt_bytes(),
                    self.sched.active_majors(),
                    self.sched.lanes(),
                    s.l0_preempts,
                    s.lane_backoffs,
                ));
                for (i, ls) in self.sched.lane_stats().iter().enumerate() {
                    line.push_str(&format!(
                        " lane{i}={}:{}:{}",
                        ls.jobs,
                        ls.busy.as_nanos(),
                        ls.bytes_written
                    ));
                }
                if let Some(sink) = &self.trace {
                    line.push_str(&format!(" trace_dropped={}", sink.dropped()));
                }
                Some(line)
            }
            "noblsm.compaction-stats" => {
                let v = self.versions.current();
                let levels = v.levels().max(self.stats.per_level.len());
                let mut out = String::from(
                    "                               Compactions\n\
                     level  files  size(MB)  count  read(MB)  write(MB)  time\n\
                     -------------------------------------------------------\n",
                );
                for level in 0..levels {
                    let files = v.num_files(level);
                    let bytes = v.level_bytes(level);
                    let pl = self.stats.per_level.get(level).copied().unwrap_or_default();
                    if files == 0 && pl.count == 0 {
                        continue;
                    }
                    out.push_str(&format!(
                        "{:>5}  {:>5}  {:>8.1}  {:>5}  {:>8.1}  {:>9.1}  {}\n",
                        level,
                        files,
                        bytes as f64 / (1 << 20) as f64,
                        pl.count,
                        pl.bytes_read as f64 / (1 << 20) as f64,
                        pl.bytes_written as f64 / (1 << 20) as f64,
                        pl.duration
                    ));
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Samples every due grid instant with the engine's pushed gauges.
    /// One branch when no hub is installed.
    pub(super) fn sample_metrics(&self, now: Nanos) {
        // Per-level gauge names are static so the disabled path stays
        // allocation-free and the enabled path allocates only the vector.
        const LEVEL_GAUGES: [(&str, &str); 7] = [
            ("engine.l0.files", "engine.l0.bytes"),
            ("engine.l1.files", "engine.l1.bytes"),
            ("engine.l2.files", "engine.l2.bytes"),
            ("engine.l3.files", "engine.l3.bytes"),
            ("engine.l4.files", "engine.l4.bytes"),
            ("engine.l5.files", "engine.l5.bytes"),
            ("engine.l6.files", "engine.l6.bytes"),
        ];
        let Some(hub) = &self.metrics else { return };
        let v = self.versions.current();
        let l0 = v.num_files(0);
        // Unified debt: over-threshold work net of in-flight claims, so
        // the gauge never double-counts with concurrent lanes.
        let debt = self.compaction_debt_bytes() as f64;
        let mut pushed: Vec<(&str, f64)> = Vec::with_capacity(26 + 2 * v.levels());
        for (level, (files, bytes)) in LEVEL_GAUGES.iter().enumerate().take(v.levels()) {
            pushed.push((files, v.num_files(level) as f64));
            pushed.push((bytes, v.level_bytes(level) as f64));
        }
        pushed.extend_from_slice(&[
            ("engine.mem_bytes", self.mem.approximate_bytes() as f64),
            ("engine.imm_bytes", self.imm.as_ref().map_or(0.0, |m| m.approximate_bytes() as f64)),
            (
                "engine.l0_slowdown_distance",
                self.opts.l0_slowdown_trigger.saturating_sub(l0) as f64,
            ),
            ("engine.l0_stop_distance", self.opts.l0_stop_trigger.saturating_sub(l0) as f64),
            ("engine.compaction_debt_bytes", debt),
            ("engine.shadow_files", self.deps.shadow_count() as f64),
            ("engine.reclaimed_files", self.stats.reclaimed_files as f64),
            (
                "engine.inflight_compactions",
                (self.sched.active_majors() + usize::from(self.minor_inflight)) as f64,
            ),
            ("engine.writes", self.stats.writes as f64),
            ("engine.stall_ns", self.stats.stall_time.as_nanos() as f64),
        ]);
        // Lane-scheduler state: admission pressure, occupancy, and the
        // cumulative per-stage time split of the staged pipeline.
        pushed.extend_from_slice(&[
            ("compact.lanes", self.sched.lanes() as f64),
            ("compact.active_majors", self.sched.active_majors() as f64),
            ("compact.idle_lanes", self.sched.idle_lanes(now) as f64),
            ("compact.pressure", self.sched.pressure(l0)),
            ("compact.debt_bytes", debt),
            ("compact.read_ns", self.stats.compact_read_time.as_nanos() as f64),
            ("compact.merge_ns", self.stats.compact_merge_time.as_nanos() as f64),
            ("compact.write_ns", self.stats.compact_write_time.as_nanos() as f64),
            ("compact.preempt_l0", self.stats.l0_preempts as f64),
            ("compact.backoffs", self.stats.lane_backoffs as f64),
        ]);
        hub.sample_due(now, &pushed);
    }
}
