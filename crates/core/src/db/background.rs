//! Background machinery: the event pump that applies finished jobs, the
//! scheduling of minor and major compactions onto the lanes, and the
//! entry points that wait for them.

use nob_ext4::InodeId;
use nob_sim::Nanos;
use nob_trace::EventClass;

use crate::compaction::{physical_files, run_major, write_table, CompactionOutput, MajorOutcome};
use crate::noblsm::Predecessor;
use crate::options::{SyncMode, NUM_LEVELS};
use crate::types::user_key;
use crate::version::{CompactionInputs, VersionEdit, MAX_FREE_HOT_FILES};
use crate::Result;

use super::{Db, DbEvent, PhysicalFiles};

impl Db {
    /// Processes the background completions and journal timers due by the
    /// shared clock's instant. A caller that lets time pass advances the
    /// clock first.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from applying completions.
    pub fn tick(&mut self) -> Result<()> {
        self.pump(self.clock.now())
    }

    /// Forces the current memtable to `L0` and waits for the flush,
    /// starting at the shared clock's instant and leaving the clock at the
    /// returned end.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and returns the recorded error of a
    /// failed background job (see [`Db::wait_idle`]).
    pub fn flush(&mut self) -> Result<Nanos> {
        let mut now = self.clock.now();
        if !self.mem.is_empty() {
            // Wait out any in-flight flush first.
            now = self.wait_for_flush(now)?;
            self.switch_memtable(now);
        }
        self.wait_for_flush(now)
    }

    /// Advances time until the immutable memtable, if any, has reached `L0`,
    /// moving the shared clock to each instant it drains to before it
    /// pumps there (see [`Db::wait_idle`]).
    fn wait_for_flush(&mut self, mut now: Nanos) -> Result<Nanos> {
        self.check_background()?;
        while self.imm.is_some() {
            let Some(t) = self.imm_done_at.or_else(|| self.events.next_at()) else { break };
            now = now.max(t);
            self.clock.advance_to(now);
            self.pump(now)?;
            self.check_background()?;
        }
        Ok(now)
    }

    /// Drains all scheduled background *compaction* work, advancing
    /// virtual time as needed, and returns the instant the engine went
    /// idle. NobLSM's pending reclamation polls are left armed — they are
    /// housekeeping, not work a benchmark should wait for.
    ///
    /// The shared clock follows the drain: it moves up to each instant the
    /// drain reaches just before the pump applies what is due there, and
    /// so ends at least at the returned instant. A drain asked for an
    /// instant past pending completions — a settle that jumped the clock —
    /// first pumps at each of their instants in order, so the journal
    /// commits due by one are issued before it is applied, and a deletion
    /// it makes joins the commit that follows it, not the one after the
    /// jump. Each pump raises the filesystem's crash horizon to its own
    /// instant once it has applied what is due there, so a deleted table
    /// is forgotten as soon as its deletion is durable, not only once the
    /// whole drain is over. Inside a drain the engine is the only actor,
    /// so nothing else sees the clock move.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. Once a background job has failed —
    /// a compaction that hit a corrupt input block, a flush whose table
    /// could not be written — its error is returned here and by every
    /// later [`Db::write`], [`Db::flush`] and [`Db::compact_range`]: the
    /// failed job applied nothing, reads keep serving the unchanged
    /// version, and reopening (or [`Db::repair`]) is the way forward.
    pub fn wait_idle(&mut self, now: Nanos) -> Result<Nanos> {
        let mut now = now;
        loop {
            self.clock.advance_to(now);
            while let Some(t) = self.events.next_at().filter(|&t| t < now) {
                self.pump(t)?;
            }
            self.pump(now)?;
            self.check_background()?;
            self.maybe_schedule(now);
            if self.sched.active_majors() == 0 && self.imm_done_at.is_none() {
                return Ok(now);
            }
            let Some(t) = self.events.next_at() else { return Ok(now) };
            now = now.max(t);
        }
    }

    /// Drains compactions *and* NobLSM reclamation from the shared clock's
    /// instant: advances time across commit intervals until no shadow
    /// files remain, and leaves the clock at the returned end. Used by
    /// tests and the crash harnesses.
    ///
    /// # Errors
    ///
    /// Same as [`Db::wait_idle`].
    pub fn settle(&mut self) -> Result<Nanos> {
        let mut now = self.wait_idle(self.clock.now())?;
        let mut guard = 0;
        while self.deps.pending_dependencies() > 0 {
            let t = self.events.next_at().unwrap_or(now + self.opts.reclaim_interval);
            now = now.max(t);
            self.pump(now)?;
            now = self.wait_idle(now)?;
            guard += 1;
            assert!(guard < 10_000, "reclamation failed to converge");
        }
        Ok(now)
    }

    /// Manually compacts every level whose files overlap
    /// `[begin, end]` (`None` = unbounded), pushing the data to the
    /// bottom-most populated level — LevelDB's `CompactRange`.
    ///
    /// # Errors
    ///
    /// Same as [`Db::wait_idle`].
    pub fn compact_range(
        &mut self,
        now: Nanos,
        begin: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Nanos> {
        self.clock.advance_to(now);
        let mut now = self.flush()?;
        now = self.wait_idle(now)?;
        let overlaps = |db: &Db, level: usize| -> bool {
            db.versions.current().files[level].iter().any(|f| {
                let lo_ok = end.is_none_or(|e| user_key(f.smallest.as_bytes()) <= e);
                let hi_ok = begin.is_none_or(|b| user_key(f.largest.as_bytes()) >= b);
                lo_ok && hi_ok
            })
        };
        for level in 0..NUM_LEVELS - 1 {
            let mut guard = 0;
            while overlaps(self, level) {
                let Some(inputs) = self.versions.manual_compaction(
                    level,
                    begin.unwrap_or(b""),
                    end,
                    self.sched.busy_levels(),
                ) else {
                    break;
                };
                self.schedule_major(now, inputs);
                now = self.wait_idle(now)?;
                guard += 1;
                assert!(guard < 10_000, "compact_range failed to converge");
            }
        }
        Ok(now)
    }

    /// Applies every background completion due by `now`. A completion
    /// that fails to apply is a background failure like a job that failed
    /// to run.
    ///
    /// Then raises the filesystem's crash horizon to the earlier of `now`
    /// and the shared clock's present: a power cut cannot happen in the
    /// past. Only after the completions due by `now` are applied, because
    /// applying one can issue a journal commit (a MANIFEST fsync, a
    /// deletion's) at its own instant, and a drain ([`Db::wait_idle`]) has
    /// already moved the clock to `now`. Not past `now`: a drain that
    /// steps through completions below the clock has not yet issued the
    /// commits due between `now` and the clock, and raising the horizon
    /// over them would break the promise
    /// [`Ext4Fs::advance_crash_horizon`](nob_ext4::Ext4Fs::advance_crash_horizon)
    /// asks for. Not past the clock either: a writer's stall pumps at a
    /// `now` ahead of it. Nor to the filesystem's tick instant, which
    /// compaction lanes run ahead of the clock.
    pub(super) fn pump(&mut self, now: Nanos) -> Result<()> {
        self.fs.tick(now);
        while let Some((t, ev)) = self.events.pop_due(now) {
            // Sample grid instants the event predates, so a gauge reads
            // its pre-completion value (e.g. L0 count before the merge
            // applied) exactly as a wall-clock scraper would have.
            self.sample_metrics(t);
            let applied = match ev {
                DbEvent::MinorDone { output, old_wal, new_log_number } => {
                    self.apply_minor(t, output, old_wal, new_log_number)
                }
                DbEvent::MajorDone { inputs, outcome, succ_files, job } => {
                    let started = job.start;
                    self.sched.finish(job);
                    self.apply_major(t, inputs, outcome, succ_files, started)
                }
                DbEvent::ReclaimPoll => {
                    self.apply_reclaim(t);
                    Ok(())
                }
            };
            if let Err(e) = applied {
                self.bg_error.get_or_insert_with(|| e.clone());
                return Err(e);
            }
        }
        self.fs.advance_crash_horizon(now.min(self.clock.now()));
        self.sample_metrics(now);
        Ok(())
    }

    fn apply_minor(
        &mut self,
        t: Nanos,
        output: Option<CompactionOutput>,
        old_wal: (u64, String),
        new_log_number: u64,
    ) -> Result<()> {
        let mut edit = VersionEdit::new();
        if let Some(o) = &output {
            edit.add_file(0, o.meta.clone());
        }
        self.versions.log_number = new_log_number;
        let t = self.versions.log_and_apply(edit, t, self.opts.sync_mode == SyncMode::Always)?;
        if let Some(o) = &output {
            self.refs.acquire(o.meta.physical, &o.physical_path);
        }
        // The WAL's deletion and the manifest edit land in the same Ext4
        // transaction, so a crash either sees both or neither — the
        // recovery path handles each side.
        let _ = self.fs.delete(&old_wal.1, t);
        self.imm = None;
        self.imm_done_at = None;
        self.maybe_schedule(t);
        Ok(())
    }

    fn apply_major(
        &mut self,
        t: Nanos,
        inputs: CompactionInputs,
        outcome: MajorOutcome,
        succ_files: PhysicalFiles,
        started: Nanos,
    ) -> Result<()> {
        let level = inputs.level;
        // Single accounting path for every major compaction — size-,
        // seek- and manually-triggered alike — so the global counters and
        // the per-level breakdown can never diverge.
        self.stats.record_major_compaction(
            level,
            inputs.from_seek,
            inputs.input_bytes(),
            outcome.bytes_written,
            t - started,
        );
        let mut edit = VersionEdit::new();
        for f in &inputs.inputs0 {
            edit.delete_file(level, f.number);
        }
        for f in &inputs.inputs1 {
            edit.delete_file(level + 1, f.number);
        }
        for o in &outcome.outputs {
            edit.add_file(level + 1, o.meta.clone());
        }
        // Hot outputs stay at the parent level (they will be reconsidered
        // when cold) — except for L0 parents, where re-adding files would
        // feed the L0 count trigger right back; those go to L1 flagged
        // hot, where overlap is tolerated.
        let hot_level = if level == 0 { 1 } else { level };
        for o in &outcome.hot_outputs {
            edit.add_file(hot_level, o.meta.clone());
        }
        if let Some(k) = &outcome.largest_compacted {
            edit.set_compact_pointer(level, k.clone());
        }
        let t = self.versions.log_and_apply(edit, t, self.opts.sync_mode == SyncMode::Always)?;
        for o in outcome.outputs.iter().chain(&outcome.hot_outputs) {
            self.refs.acquire(o.meta.physical, &o.physical_path);
        }

        match self.opts.sync_mode {
            SyncMode::NobLsm => {
                // §4.1: retain predecessors as shadows; register the
                // p-to-q dependency; ask Ext4 to track the successors.
                let inos: Vec<InodeId> = succ_files.iter().map(|(_, _, i)| *i).collect();
                self.fs.check_commit(&inos, t);
                let preds: Vec<Predecessor> = inputs
                    .inputs0
                    .iter()
                    .chain(&inputs.inputs1)
                    .map(|f| Predecessor { number: f.number, physical: f.physical })
                    .collect();
                self.deps.register(preds, inos);
                self.stats.shadow_files = self.deps.shadow_count() as u64;
                if !self.reclaim_armed {
                    self.reclaim_armed = true;
                    self.events.push(t + self.opts.reclaim_interval, DbEvent::ReclaimPoll);
                }
            }
            _ => {
                for f in inputs.inputs0.iter().chain(&inputs.inputs1) {
                    self.release_table(f.number, f.physical, t);
                }
            }
        }
        self.maybe_schedule(t);
        Ok(())
    }

    fn apply_reclaim(&mut self, t: Nanos) {
        self.reclaim_armed = false;
        let ready = self.deps.poll(&self.fs, t);
        for p in ready {
            self.release_table(p.number, p.physical, t);
            self.stats.reclaimed_files += 1;
        }
        self.stats.shadow_files = self.deps.shadow_count() as u64;
        if self.deps.pending_dependencies() > 0 {
            self.reclaim_armed = true;
            self.events.push(t + self.opts.reclaim_interval, DbEvent::ReclaimPoll);
        }
    }

    fn release_table(&mut self, number: u64, physical: u64, t: Nanos) {
        self.tables.evict(number);
        if let Some(path) = self.refs.release(physical) {
            self.tables.block_cache().forget_file(physical);
            let _ = self.fs.delete(&path, t);
        }
    }

    /// Flushes the immutable memtable to a new `L0` table on the
    /// earliest-free lane; the result applies at its completion instant.
    /// Minor compactions take priority over majors (LevelDB's background
    /// thread always flushes the immutable memtable first): they are
    /// scheduled directly from `switch_memtable`, never by
    /// [`Db::maybe_schedule`].
    pub(super) fn schedule_minor(
        &mut self,
        now: Nanos,
        old_wal: (u64, String),
        new_log_number: u64,
    ) {
        debug_assert!(self.imm_done_at.is_none());
        let number = self.versions.new_file_number();
        let (lane, start) = self.sched.pick(now);
        let mut t = start;
        let imm = self.imm.as_ref().expect("imm set before scheduling minor");
        let output = match write_table(&self.fs, &self.dir, &self.opts, number, imm.iter(), &mut t)
        {
            Ok(output) => output,
            Err(e) => {
                // Nothing applies: the memtable stays readable and its
                // WAL stays on disk for the next recovery.
                self.bg_error.get_or_insert(e);
                return;
            }
        };
        let bytes = output.as_ref().map_or(0, |o| o.meta.size);
        self.sched.occupy(lane, start, t, bytes);
        self.imm_done_at = Some(t);
        self.stats.minor_compactions += 1;
        if let Some(sink) = &self.trace {
            sink.emit(EventClass::MinorCompaction, now, t, bytes);
        }
        self.events.push(t, DbEvent::MinorDone { output, old_wal, new_log_number });
    }

    /// Starts every major compaction the scheduler admits at the current
    /// L0 count: the pending seek-triggered one first, then size-triggered
    /// ones, preempting toward L0→L1 work when the L0 count nears the
    /// slowdown trigger. Nothing new starts after a background failure.
    pub(super) fn maybe_schedule(&mut self, now: Nanos) {
        if self.bg_error.is_some() {
            return;
        }
        let l0 = self.versions.current().num_files(0);
        if self.sched.admits(l0) {
            if let Some((level, file)) = self.pending_seek.take() {
                let busy = self.sched.busy_levels();
                if let Some(c) = self.versions.pick_seek_compaction(level, &file, busy) {
                    self.schedule_major(now, c);
                }
            }
        }
        while self.sched.admits(l0) && self.bg_error.is_none() {
            let busy = self.sched.busy_levels();
            let preempted = if self.sched.prefer_l0(l0) {
                self.versions.pick_level_compaction(0, busy)
            } else {
                None
            };
            let c = match preempted {
                Some(c) => {
                    self.stats.l0_preempts += 1;
                    c
                }
                None => match self.versions.pick_compaction(busy) {
                    Some(c) => c,
                    None => break,
                },
            };
            self.schedule_major(now, c);
        }
        // Back-off accounting: admission held major-capable lanes idle
        // while eligible work existed.
        if self.sched.backed_off(l0)
            && self.versions.pick_compaction(self.sched.busy_levels()).is_some()
        {
            self.stats.lane_backoffs += 1;
        }
    }

    /// Runs `inputs` as a major compaction on the lane the scheduler
    /// assigns and queues its results. A merge that fails — a corrupt
    /// input block, a filesystem error — queues nothing: the scheduler's
    /// books are closed and the error is recorded.
    pub(super) fn schedule_major(&mut self, now: Nanos, inputs: CompactionInputs) {
        // The debt this job retires, in the unit `raw_debt_per_level`
        // counts it: one table's worth per L0 file, input bytes deeper.
        let claim_bytes = if inputs.level == 0 {
            (inputs.inputs0.len() as u64).saturating_mul(self.opts.table_size)
        } else {
            inputs.inputs0.iter().map(|f| f.size).sum()
        };
        let job = self.sched.begin(inputs.level, now, claim_bytes);
        let (outcome, succ_files, sync_cost) = match self.run_major_synced(&inputs, job.start) {
            Ok(done) => done,
            Err(e) => {
                self.sched.finish(job);
                self.bg_error.get_or_insert(e);
                return;
            }
        };
        // Staged completion: all I/O was priced serially on the device
        // timeline (honest cost), but the three stages overlap across
        // output granules, so the *job* finishes at the pipelined end —
        // never later than the serial end — plus the final group sync,
        // which cannot overlap anything.
        let (pipelined_end, intervals) = outcome.stages.pipeline(job.start);
        let done = pipelined_end + sync_cost;
        let (read_t, merge_t, write_t) = outcome.stages.stage_totals();
        self.stats.compact_read_time += read_t;
        self.stats.compact_merge_time += merge_t;
        self.stats.compact_write_time += write_t;
        // Stats are recorded in apply_major (the single accounting path),
        // when the completion event lands.
        if let Some(sink) = &self.trace {
            sink.emit(EventClass::MajorCompaction, now, done, outcome.bytes_written);
            for iv in &intervals {
                sink.emit(iv.class, iv.start, iv.end, iv.bytes);
            }
        }
        self.sched.occupy_major(&job, done, outcome.bytes_written, intervals);
        self.events.push(done, DbEvent::MajorDone { inputs, outcome, succ_files, job });
    }

    /// Merges `inputs` from `start`, priced serially on the device
    /// timeline, and applies the sync discipline to the new tables.
    /// Returns the outcome, the physical successor files and the cost of
    /// the final group sync.
    fn run_major_synced(
        &mut self,
        inputs: &CompactionInputs,
        start: Nanos,
    ) -> Result<(MajorOutcome, PhysicalFiles, Nanos)> {
        let mut t = start;
        let version = self.versions.current();
        let snapshot = self.smallest_snapshot();
        // Reserve a generous block of file numbers for the outputs.
        let bound = (inputs.input_bytes() / self.opts.table_size.max(1)) + 8;
        let base = self.versions.next_file_number;
        self.versions.next_file_number += bound;
        let mut counter = base;
        let end = base + bound;
        let mut alloc = move || {
            let n = counter;
            counter += 1;
            assert!(n < end, "output number reservation exhausted");
            n
        };
        // L2SM hot routing converges only while the destination level has
        // room for more hot files; at the cap, everything is pushed down
        // cold so consolidation makes progress.
        let hot_level = if inputs.level == 0 { 1 } else { inputs.level };
        let hot = self.hot.as_ref().filter(|_| {
            version
                .files
                .get(hot_level)
                .is_some_and(|fs| fs.iter().filter(|f| f.hot).count() < MAX_FREE_HOT_FILES)
        });
        let outcome = run_major(
            &self.fs,
            &self.dir,
            &self.opts,
            &self.tables,
            &version,
            inputs,
            snapshot,
            hot,
            &mut alloc,
            &mut t,
        )?;
        // Ungrouped outputs were already synced file-by-file inside the
        // compaction (LevelDB's behaviour); BoLT's grouped physical file
        // is synced exactly once here, after the whole compaction.
        let succ_files = physical_files(
            &outcome.outputs.iter().chain(&outcome.hot_outputs).cloned().collect::<Vec<_>>(),
        );
        let serial_end = t;
        if self.opts.sync_mode == SyncMode::Always && self.opts.grouped_output {
            for (_, path, _) in &succ_files {
                let h = self.fs.open(path, t)?;
                t = self.fs.fsync(h, t)?;
            }
        }
        Ok((outcome, succ_files, t - serial_end))
    }
}
