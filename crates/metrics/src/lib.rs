//! `nob-metrics`: cross-layer gauge timelines on the virtual clock.
//!
//! The trace layer (`nob-trace`) records *events* — spans with a start and
//! an end. This crate records *state*: each layer registers live probe
//! closures, and a sampler snapshots every metric on one shared
//! virtual-time grid into a compact [`Timeline`]. The timeline serializes
//! to deterministic JSON, renders as ASCII sparklines, and exposes its
//! latest sample in Prometheus text format.
//!
//! Like tracing, metrics are observation, not behaviour: a [`MetricsHub`]
//! hangs off each layer as an `Option<_>` hook, the disabled path is one
//! branch, and sampling never advances virtual time.
//!
//! ```
//! use nob_metrics::{MetricKind, MetricsHub};
//! use nob_sim::Nanos;
//!
//! let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
//! hub.register(MetricKind::Gauge, "demo.queue_ns", "queue backlog", |t| {
//!     t.as_nanos() as f64 / 2.0
//! });
//! hub.sample_due(Nanos::ZERO);
//! hub.sample_due(Nanos::from_millis(25));
//! let tl = hub.timeline();
//! assert_eq!(tl.samples, 3); // grid instants 0ms, 10ms, 20ms
//! assert_eq!(tl.series("demo.queue_ns").unwrap().values, [0.0, 5e6, 1e7]);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

use nob_sim::json::Json;
use nob_sim::Nanos;

/// Default sampling period: 100 ms of virtual time.
pub const DEFAULT_PERIOD: Nanos = Nanos::from_millis(100);

/// What a metric's values mean, LevelDB/Prometheus style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count (ops, bytes, stall time).
    Counter,
    /// Instantaneous level that can go up and down (dirty bytes, queue depth).
    Gauge,
}

impl MetricKind {
    /// Lower-case name, as used in JSON and Prometheus `# TYPE` lines.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One sampled metric: its identity plus one value per grid instant.
#[derive(Debug, Clone)]
pub struct Series {
    /// Dotted metric name, `<layer>.<metric>` (e.g. `ext4.dirty_bytes`).
    pub name: String,
    /// Counter or gauge.
    pub(crate) kind: MetricKind,
    /// One-line human description (Prometheus `# HELP`).
    pub(crate) help: String,
    /// One value per grid instant, aligned across all series.
    pub values: Vec<f64>,
}

impl Series {
    /// Latest sampled value, or 0.0 before the first sample.
    pub fn last(&self) -> f64 {
        self.values.last().copied().unwrap_or(0.0)
    }
}

/// A compact grid of samples: every registered metric, one value per
/// virtual-time grid instant. All series have the same length
/// ([`Timeline::samples`]); grid instant `i` is `start + period * i`.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// First grid instant.
    pub(crate) start: Nanos,
    /// Grid spacing in virtual time.
    pub(crate) period: Nanos,
    /// Number of grid instants sampled so far.
    pub samples: usize,
    /// Per-metric sample vectors, in the order their probes were first
    /// sampled.
    pub series: Vec<Series>,
}

impl Timeline {
    fn new(period: Nanos) -> Timeline {
        Timeline { start: Nanos::ZERO, period, samples: 0, series: Vec::new() }
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Grid index covering instant `t` (clamped to the sampled range), or
    /// `None` if nothing has been sampled yet. Used to cross-reference
    /// trace records (stalls, commits) onto the timeline.
    pub fn grid_index(&self, t: Nanos) -> Option<usize> {
        if self.samples == 0 || self.period == Nanos::ZERO {
            return None;
        }
        let off = t.saturating_sub(self.start).as_nanos() / self.period.as_nanos();
        Some((off as usize).min(self.samples - 1))
    }

    /// Deterministic JSON document. All structural numbers are integers;
    /// sample values print as integers when integral and via Rust's
    /// shortest-round-trip `f64` formatting otherwise, so byte equality
    /// across identical fixed-seed runs is meaningful.
    pub fn to_json(&self) -> Json {
        let series = |s: &Series| {
            Json::object([
                ("name", s.name.as_str().into()),
                ("kind", s.kind.name().into()),
                ("help", s.help.as_str().into()),
                ("values", Json::Array(s.values.iter().map(|&v| value_json(v)).collect())),
            ])
        };
        Json::object([
            ("start_ns", self.start.as_nanos().into()),
            ("period_ns", self.period.as_nanos().into()),
            ("samples", self.samples.into()),
            ("series", Json::Array(self.series.iter().map(series).collect())),
        ])
    }

    /// Renders every series as an ASCII sparkline, one row per metric,
    /// scaled per-series to its own min..max. `width` caps the number of
    /// glyphs; longer timelines are bucketed (each glyph shows the bucket
    /// maximum, so short spikes stay visible).
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline: {} samples x {} series, period {}, span {}",
            self.samples,
            self.series.len(),
            self.period,
            self.period * self.samples.saturating_sub(1) as u64,
        );
        let name_w = self.series.iter().map(|s| s.name.len()).max().unwrap_or(0);
        for s in &self.series {
            let _ = writeln!(
                out,
                "  {:name_w$}  {}  [{} .. {}]",
                s.name,
                sparkline(&s.values, width),
                fmt_value(min_of(&s.values)),
                fmt_value(max_of(&s.values)),
            );
        }
        out
    }

    /// Prometheus text exposition of the *latest* sample of every series:
    /// `# HELP` / `# TYPE` headers plus one `noblsm_<name> <value>` line
    /// each, dots and dashes mapped to underscores.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            let name = prom_name(&s.name);
            let _ = writeln!(out, "# HELP {name} {}", prom_help(&s.help));
            let _ = writeln!(out, "# TYPE {name} {}", s.kind.name());
            let _ = writeln!(out, "{name} {}", fmt_value(s.last()));
        }
        out
    }
}

/// `# HELP` text per the exposition format: backslash and line feed are
/// the only escapes (a raw newline would start a bogus exposition line).
fn prom_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `noblsm_`-prefixed Prometheus metric name: dots and dashes become
/// underscores, anything else non-alphanumeric is dropped.
pub(crate) fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("noblsm_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else if c == '.' || c == '-' {
            out.push('_');
        }
    }
    out
}

/// A sample value as JSON: an integer when integral, else Rust's
/// shortest-round-trip `f64` form (`null` unless finite).
fn value_json(v: f64) -> Json {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9.0e15 {
        Json::from(v as i64)
    } else {
        Json::shortest(v)
    }
}

/// [`value_json`]'s text, for the text forms; a non-finite value prints
/// as Rust does (`NaN`, `inf`), which Prometheus parses.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        value_json(v).to_string()
    } else {
        v.to_string()
    }
}

fn min_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// One sparkline over `values`, at most `width` glyphs wide. Longer inputs
/// are bucketed; each glyph shows its bucket's maximum.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let buckets = width.min(values.len());
    let mut maxima = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * values.len() / buckets;
        let hi = ((b + 1) * values.len() / buckets).max(lo + 1);
        maxima.push(values[lo..hi].iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
    let lo = maxima.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = maxima.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    maxima
        .iter()
        .map(|&v| {
            if !v.is_finite() || span <= 0.0 {
                GLYPHS[0]
            } else {
                let idx = ((v - lo) / span * 7.0).round() as usize;
                GLYPHS[idx.min(7)]
            }
        })
        .collect()
}

type ProbeFn = Box<dyn Fn(Nanos) -> f64 + Send>;

struct Probe {
    name: String,
    kind: MetricKind,
    help: String,
    read: ProbeFn,
}

struct HubState {
    period: Nanos,
    /// Next grid instant to sample; `None` until the first `sample_due`.
    next: Option<Nanos>,
    probes: Vec<Probe>,
    timeline: Timeline,
}

impl HubState {
    fn sample_at(&mut self, t: Nanos) {
        let HubState { probes, timeline, .. } = self;
        for p in probes.iter() {
            let v = (p.read)(t);
            match timeline.series.iter_mut().find(|s| s.name == p.name) {
                Some(s) => s.values.push(v),
                // A series born mid-run backfills zeros so the grid stays
                // shared.
                None => {
                    let mut values = vec![0.0; timeline.samples];
                    values.push(v);
                    let (name, help) = (p.name.clone(), p.help.clone());
                    timeline.series.push(Series { name, kind: p.kind, help, values });
                }
            }
        }
        self.timeline.samples += 1;
        // Series of unregistered probes (e.g. a stack a crash took down)
        // repeat their last value to stay grid-aligned.
        for s in &mut self.timeline.series {
            if s.values.len() < self.timeline.samples {
                let fill = s.values.last().copied().unwrap_or(0.0);
                s.values.push(fill);
            }
        }
    }
}

/// Cloneable handle to a shared metric registry + virtual-time sampler.
///
/// [`MetricsHub::register`] is the one way in: every layer installs a
/// probe per instrument, and [`MetricsHub::sample_due`] evaluates every
/// probe at every due grid instant, whichever layer calls it. Layers
/// behind `Arc`s (the filesystem and device) read their state directly;
/// the engine and the server, which own theirs, publish it into cells
/// their probes read.
///
/// A handle may carry a name prefix (see [`MetricsHub::scoped`]): every
/// name it registers or unregisters is prefixed transparently,
/// which is how N shards share one hub without their fixed gauge names
/// (`ext4.dirty_bytes`, `engine.writes`, …) colliding.
#[derive(Clone)]
pub struct MetricsHub {
    inner: Arc<Mutex<HubState>>,
    /// Prepended to every metric name this handle touches ("" = none).
    prefix: Arc<str>,
}

impl Default for MetricsHub {
    fn default() -> MetricsHub {
        MetricsHub { inner: Arc::default(), prefix: Arc::from("") }
    }
}

impl Default for HubState {
    fn default() -> HubState {
        HubState {
            period: DEFAULT_PERIOD,
            next: None,
            probes: Vec::new(),
            timeline: Timeline::new(DEFAULT_PERIOD),
        }
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsHub")
    }
}

impl MetricsHub {
    /// A hub with the default 100 ms virtual sampling period.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Sets the sampling period. Call before the first sample; changing
    /// the period re-labels the grid of any samples already taken.
    pub fn with_period(self, period: Nanos) -> MetricsHub {
        {
            let mut st = self.lock();
            assert!(period > Nanos::ZERO, "sampling period must be positive");
            st.period = period;
            st.timeline.period = period;
        }
        self
    }

    fn lock(&self) -> MutexGuard<'_, HubState> {
        // Metrics must never take the database down: recover from a
        // poisoned lock (a panicking sampler thread) instead of cascading.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A handle over the same registry and grid whose metric names are
    /// all prefixed with `prefix` (conventionally ending in `.`, e.g.
    /// `"shard0."`). Scopes nest: `hub.scoped("a.").scoped("b.")`
    /// prefixes `a.b.`. The layers underneath keep registering their
    /// fixed names — the prefix is applied inside the hub, so per-shard
    /// stacks need no code changes.
    pub fn scoped(&self, prefix: &str) -> MetricsHub {
        MetricsHub {
            inner: Arc::clone(&self.inner),
            prefix: format!("{}{prefix}", self.prefix).into(),
        }
    }

    fn full_name(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// Registers (or replaces, by name) a live probe evaluated at every
    /// grid instant. The closure receives the grid instant, so
    /// time-derived gauges (queue backlog, busy fraction) stay exact even
    /// when several due instants are sampled in one call.
    pub fn register<F>(&self, kind: MetricKind, name: &str, help: &str, read: F)
    where
        F: Fn(Nanos) -> f64 + Send + 'static,
    {
        let name = self.full_name(name);
        let mut st = self.lock();
        let probe =
            Probe { name: name.clone(), kind, help: help.to_string(), read: Box::new(read) };
        match st.probes.iter().position(|p| p.name == name) {
            // Re-registration (e.g. after crash recovery reopens the same
            // stack) swaps the closure but keeps the series history.
            Some(i) => st.probes[i] = probe,
            None => st.probes.push(probe),
        }
    }

    /// Removes a probe by name; its series stops growing but keeps its
    /// history (grid alignment pads it with its last value).
    pub fn unregister(&self, name: &str) {
        let name = self.full_name(name);
        let mut st = self.lock();
        st.probes.retain(|p| p.name != name);
    }

    /// Samples every grid instant that is due at virtual time `now`,
    /// evaluating every registered probe — under any scope — at each
    /// instant. The first call anchors the grid at `now`. Returns how
    /// many grid instants were sampled; with none due it allocates
    /// nothing.
    pub fn sample_due(&self, now: Nanos) -> usize {
        let mut st = self.lock();
        if st.next.is_none() {
            st.next = Some(now);
            st.timeline.start = now;
        }
        let mut taken = 0;
        while let Some(t) = st.next {
            if t > now {
                break;
            }
            st.sample_at(t);
            st.next = Some(t + st.period);
            taken += 1;
        }
        taken
    }

    /// Snapshot of the timeline accumulated so far.
    pub fn timeline(&self) -> Timeline {
        self.lock().timeline.clone()
    }

    /// Number of grid instants sampled so far.
    pub fn samples(&self) -> usize {
        self.lock().timeline.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_anchored_at_first_sample_and_spaced_by_period() {
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        hub.register(MetricKind::Gauge, "t_ms", "grid instant in ms", |t| t.as_millis() as f64);
        assert_eq!(hub.sample_due(Nanos::from_millis(5)), 1);
        assert_eq!(hub.sample_due(Nanos::from_millis(36)), 3);
        let tl = hub.timeline();
        assert_eq!(tl.start, Nanos::from_millis(5));
        assert_eq!(tl.samples, 4);
        // Probes see the grid instant, not the call instant.
        assert_eq!(tl.series("t_ms").unwrap().values, vec![5.0, 15.0, 25.0, 35.0]);
    }

    #[test]
    fn pushed_values_land_on_the_same_grid() {
        // A layer that owns its state publishes it into a cell its probe
        // reads, then samples.
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        hub.register(MetricKind::Gauge, "probe", "", |_| 1.0);
        let cell = Arc::new(Mutex::new(0.0));
        let read = Arc::clone(&cell);
        hub.register(MetricKind::Counter, "pushed", "pushed count", move |_| *read.lock().unwrap());
        for (t, v) in [(0, 41.0), (10, 42.0)] {
            *cell.lock().unwrap() = v;
            hub.sample_due(Nanos::from_millis(t));
        }
        let tl = hub.timeline();
        assert_eq!(tl.series("probe").unwrap().values.len(), 2);
        let series = tl.series("pushed").unwrap();
        assert_eq!(series.values, vec![41.0, 42.0]);
        assert_eq!((series.kind, series.help.as_str()), (MetricKind::Counter, "pushed count"));
    }

    #[test]
    fn late_series_backfills_and_absent_series_repeats() {
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        hub.register(MetricKind::Gauge, "early", "", |_| 1.0);
        hub.sample_due(Nanos::ZERO);
        hub.register(MetricKind::Counter, "late", "", |_| 2.0);
        hub.sample_due(Nanos::from_millis(10));
        hub.unregister("early");
        hub.sample_due(Nanos::from_millis(20));
        let tl = hub.timeline();
        assert_eq!(tl.series("late").unwrap().values, vec![0.0, 2.0, 2.0]);
        assert_eq!(tl.series("early").unwrap().values, vec![1.0, 1.0, 1.0]);
        assert_eq!(tl.series("late").unwrap().kind, MetricKind::Counter);
    }

    #[test]
    fn reregistration_replaces_the_closure_but_keeps_history() {
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        hub.register(MetricKind::Gauge, "g", "", |_| 1.0);
        hub.sample_due(Nanos::ZERO);
        hub.register(MetricKind::Gauge, "g", "", |_| 9.0);
        hub.sample_due(Nanos::from_millis(10));
        assert_eq!(hub.timeline().series("g").unwrap().values, vec![1.0, 9.0]);
    }

    #[test]
    fn json_is_deterministic_and_integer_friendly() {
        let mk = || {
            let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
            hub.register(MetricKind::Gauge, "a.b", "bytes", |t| t.as_nanos() as f64);
            hub.register(MetricKind::Counter, "c", "", |_| 0.5);
            hub.sample_due(Nanos::from_millis(7));
            hub.sample_due(Nanos::from_millis(17));
            hub.timeline().to_json().to_string()
        };
        let (j1, j2) = (mk(), mk());
        assert_eq!(j1, j2, "identical runs must serialize byte-identically");
        assert!(j1.contains("\"period_ns\": 10000000"));
        assert!(j1.contains("[7000000, 17000000]"), "{j1}");
        assert!(j1.contains("[0.5, 0.5]"), "{j1}");
    }

    #[test]
    fn grid_index_maps_instants_onto_samples() {
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        hub.register(MetricKind::Gauge, "g", "", |_| 0.0);
        hub.sample_due(Nanos::from_millis(55)); // start = 55ms
        hub.sample_due(Nanos::from_millis(85)); // samples at 55,65,75,85
        let tl = hub.timeline();
        assert_eq!(tl.grid_index(Nanos::from_millis(55)), Some(0));
        assert_eq!(tl.grid_index(Nanos::from_millis(64)), Some(0));
        assert_eq!(tl.grid_index(Nanos::from_millis(66)), Some(1));
        assert_eq!(tl.grid_index(Nanos::from_millis(500)), Some(3), "clamped to range");
        assert_eq!(tl.grid_index(Nanos::ZERO), Some(0), "before start clamps to 0");
        assert_eq!(Timeline::new(DEFAULT_PERIOD).grid_index(Nanos::ZERO), None);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let hub = MetricsHub::new();
        hub.register(MetricKind::Counter, "engine.writes", "user writes", |_| 12.0);
        hub.register(MetricKind::Gauge, "ssd.busy-permille", "", |_| 1.5);
        hub.sample_due(Nanos::ZERO);
        let text = hub.timeline().prometheus();
        assert!(text.contains("# HELP noblsm_engine_writes user writes\n"));
        assert!(text.contains("# TYPE noblsm_engine_writes counter\n"));
        assert!(text.contains("\nnoblsm_engine_writes 12\n"));
        assert!(text.contains("noblsm_ssd_busy_permille 1.5\n"));
        // Every non-comment line is `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            assert!(name.starts_with("noblsm_"), "{line}");
            assert!(parts.next().unwrap().parse::<f64>().is_ok(), "{line}");
            assert!(parts.next().is_none(), "{line}");
        }
    }

    #[test]
    fn sparkline_buckets_and_scales() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[5.0], 10), "\u{2581}", "flat series renders low");
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(line, "\u{2581}\u{2582}\u{2583}\u{2584}\u{2585}\u{2586}\u{2587}\u{2588}");
        // Bucketing keeps spikes: 16 values into 4 glyphs, spike survives.
        let mut v = vec![0.0; 16];
        v[5] = 100.0;
        let line = sparkline(&v, 4);
        assert_eq!(line.chars().filter(|&c| c == '\u{2588}').count(), 1);
    }

    #[test]
    fn render_lists_every_series() {
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        hub.register(MetricKind::Gauge, "a", "", |t| t.as_millis() as f64);
        hub.register(MetricKind::Gauge, "b.long_name", "", |_| 2.0);
        hub.sample_due(Nanos::from_millis(30));
        let text = hub.timeline().render(32);
        assert!(text.contains("a "), "{text}");
        assert!(text.contains("b.long_name"), "{text}");
        assert!(text.contains("1 samples x 2 series"), "{text}");
    }

    #[test]
    fn scoped_handles_prefix_probes_and_pushed_values() {
        let hub = MetricsHub::new().with_period(Nanos::from_millis(10));
        let s0 = hub.scoped("shard0.");
        let s1 = hub.scoped("shard1.");
        s0.register(MetricKind::Gauge, "ext4.dirty_bytes", "", |_| 10.0);
        s1.register(MetricKind::Gauge, "ext4.dirty_bytes", "", |_| 20.0);
        s1.register(MetricKind::Counter, "engine.writes", "user writes", |_| 3.0);
        // Any handle samples every scope's probes.
        s0.sample_due(Nanos::ZERO);
        let tl = hub.timeline();
        assert_eq!(tl.series("shard0.ext4.dirty_bytes").unwrap().values, vec![10.0]);
        assert_eq!(tl.series("shard1.ext4.dirty_bytes").unwrap().values, vec![20.0]);
        let writes = tl.series("shard1.engine.writes").unwrap();
        assert_eq!((writes.values.as_slice(), writes.kind), (&[3.0][..], MetricKind::Counter));
        assert!(tl.series("ext4.dirty_bytes").is_none(), "no unscoped collision");
        // Unregister through the same scope removes only that shard's probe.
        s0.unregister("ext4.dirty_bytes");
        s0.sample_due(Nanos::from_millis(10));
        let tl = hub.timeline();
        assert_eq!(tl.series("shard1.ext4.dirty_bytes").unwrap().values, vec![20.0, 20.0]);
        // Scopes nest and report their prefix.
        assert_eq!(&*hub.scoped("a.").scoped("b.").prefix, "a.b.");
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("ext4.dirty_bytes"), "noblsm_ext4_dirty_bytes");
        assert_eq!(prom_name("l0-stop"), "noblsm_l0_stop");
        assert_eq!(prom_name("weird name!"), "noblsm_weirdname");
    }
}

/// Property tests for the Prometheus exposition a hostile metric name or
/// help string could corrupt (line structure, metric-name validity,
/// `# HELP` escaping); the JSON document's string escaping is
/// `nob_sim::json`'s, tested there.
#[cfg(test)]
mod format_properties {
    use super::*;
    use proptest::prelude::*;

    /// Maps raw bytes onto a charset chosen to stress every escaping
    /// path: exposition escapes, name sanitisation,
    /// controls and multi-byte unicode.
    fn hostile(bytes: Vec<u8>) -> String {
        const CHARSET: [char; 22] = [
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            ' ',
            '!',
            '#',
            '.',
            '-',
            '/',
            '{',
            '}',
            'a',
            'Z',
            '9',
            '_',
            '\u{e9}',
            '\u{1f980}',
            'x',
        ];
        bytes.into_iter().map(|b| CHARSET[b as usize % CHARSET.len()]).collect()
    }

    proptest! {
        /// Sanitised metric names are always valid Prometheus names, no
        /// matter what the layer called its metric.
        #[test]
        fn prom_names_are_always_valid(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let name = prom_name(&hostile(bytes));
            prop_assert!(name.starts_with("noblsm_"), "{:?}", name);
            prop_assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "invalid char in {:?}",
                name
            );
        }

        /// One hostile series still expositions as exactly three
        /// well-formed lines — a newline smuggled through the help text
        /// or name must not fabricate extra exposition lines, and the
        /// value line must stay `name value` with a parseable value
        /// (NaN/inf bit patterns included).
        #[test]
        fn exposition_stays_line_structured_under_hostile_series(
            name_bytes in proptest::collection::vec(any::<u8>(), 0..24),
            help_bytes in proptest::collection::vec(any::<u8>(), 0..48),
            value_bits in any::<u64>(),
        ) {
            let (name, help) = (hostile(name_bytes), hostile(help_bytes));
            let value = f64::from_bits(value_bits);
            let hub = MetricsHub::new();
            hub.register(MetricKind::Gauge, &name, &help, move |_| value);
            hub.sample_due(Nanos::ZERO);
            let text = hub.timeline().prometheus();
            let lines: Vec<&str> = text.lines().collect();
            prop_assert_eq!(lines.len(), 3, "series must expose exactly 3 lines: {:?}", text);
            let prom = prom_name(&name);
            prop_assert!(lines[0].starts_with(&format!("# HELP {prom} ")), "{:?}", lines[0]);
            prop_assert!(!lines[0].contains('\n'));
            prop_assert_eq!(lines[1], format!("# TYPE {prom} gauge").as_str());
            let mut parts = lines[2].split(' ');
            prop_assert_eq!(parts.next(), Some(prom.as_str()));
            let v = parts.next();
            prop_assert!(
                v.is_some_and(|v| v.parse::<f64>().is_ok()),
                "value must parse: {:?}",
                lines[2]
            );
            prop_assert!(parts.next().is_none(), "trailing junk: {:?}", lines[2]);
        }
    }
}
