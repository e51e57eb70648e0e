//! TelePlane: windowed time-series telemetry and an anomaly-triggered
//! flight recorder.
//!
//! End-of-run aggregates ([`crate::metrics`]) answer "how much in
//! total"; an operator diagnosing an SLO breach needs "when, and what
//! else was happening". This module adds the time-resolved layer:
//!
//! * [`TimeSeries`] — named counters, gauges and histograms bucketed
//!   into fixed sim-time windows. Every window is a [`MetricsRegistry`]:
//!   the open one, a bounded ring of closed ones, and one registry that
//!   folds the counters of windows evicted from the ring. A counter's
//!   lifetime total is the sum over those three, so window conservation
//!   (no count double-counted or dropped by a roll) holds by
//!   construction. Exports are canonical JSON and the series has
//!   [`Snapshot`]/[`Restore`] support. Everything is driven by
//!   simulated time, so exports are byte-identical at any
//!   `ECOSCALE_THREADS`/`ECOSCALE_SHARDS` setting.
//! * [`FlightRecorder`] — a bounded ring of recent trace events.
//!   Every anomaly class ([`TriggerKind`]: SLO-breach windows,
//!   queue saturation, CheckPlane violations, resilience quarantine)
//!   latches a [`TriggerFire`], after which the ring plus the
//!   time-series tail form a deterministic evidence bundle.
//!
//! Both rings have fixed depths: [`SERIES_RETAIN`] closed windows and
//! [`FLIGHT_EVENTS`] flight events.

use std::collections::{BTreeMap, VecDeque};

use crate::json;
use crate::metrics::{Instrument, MetricsRegistry};
use crate::snap::{malformed, Restore, RestoreError, SnapReader, SnapWriter, Snapshot};
use crate::stats::{Counter, Histogram};
use crate::time::{Duration, Time};

/// Closed windows a [`TimeSeries`] retains.
pub const SERIES_RETAIN: usize = 64;

/// Events a [`FlightRecorder`] holds.
pub const FLIGHT_EVENTS: usize = 128;

/// Named instruments bucketed into fixed sim-time windows.
///
/// Callers drive the clock explicitly: [`TimeSeries::advance`] closes
/// every window that ends at or before `now`, pushing it into a bounded
/// ring; recording calls then land in the open window. Counters and
/// histograms start each window empty, gauges are sampled levels that
/// persist across rolls. Histograms stay raw in the ring so series
/// merge exactly.
///
/// # Example
///
/// ```
/// use ecoscale_sim::{Duration, Time, TimeSeries};
///
/// let mut ts = TimeSeries::new(Duration::from_us(10));
/// ts.incr("req", 3);
/// ts.advance(Time::ZERO + Duration::from_us(25));
/// ts.incr("req", 1);
/// ts.finish(Time::ZERO + Duration::from_us(25));
/// assert_eq!(ts.lifetime("req"), 4);
/// assert_eq!(ts.windows().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    width: Duration,
    /// Index of the open window, which is also the number of windows
    /// closed so far.
    open: u64,
    /// The open window. A roll keeps every name, so it names every
    /// instrument the series has seen.
    cur: MetricsRegistry,
    /// Closed windows `(index, window)`, oldest first.
    ring: VecDeque<(u64, MetricsRegistry)>,
    /// Non-zero counters of the windows evicted from the ring.
    evicted: MetricsRegistry,
}

impl TimeSeries {
    /// Creates a series with the given window width, retaining up to
    /// [`SERIES_RETAIN`] closed windows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: Duration) -> TimeSeries {
        assert!(!width.is_zero(), "window width must be non-zero");
        TimeSeries {
            width,
            open: 0,
            cur: MetricsRegistry::new(),
            ring: VecDeque::with_capacity(SERIES_RETAIN),
            evicted: MetricsRegistry::new(),
        }
    }

    /// Number of windows closed so far.
    pub fn rolled(&self) -> u64 {
        self.open
    }

    /// Adds `n` to the counter `name` in the open window.
    pub fn incr(&mut self, name: &str, n: u64) {
        self.cur.add(name, n);
    }

    /// Sets the gauge `name` to level `v` (persists across rolls).
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        self.cur.set_gauge(name, v);
    }

    /// Records `v` into the open window's histogram `name`.
    pub fn record(&mut self, name: &str, v: u64) {
        self.cur.record(name, v);
    }

    /// Merges a pre-accumulated histogram into the open window's
    /// histogram `name` (how drivers hand over a window's worth of
    /// latencies in one call).
    pub fn merge_hist(&mut self, name: &str, h: &Histogram) {
        self.cur.merge_hist(name, h);
    }

    /// The index of the window containing `t`.
    pub fn window_index(&self, t: Time) -> u64 {
        t.as_ps() / self.width.as_ps()
    }

    /// Lifetime total of the counter `name`: the open window, the
    /// retained ring and the evicted windows summed.
    pub fn lifetime(&self, name: &str) -> u64 {
        let count = |w: &MetricsRegistry| w.counter(name).unwrap_or(0);
        count(&self.cur)
            + count(&self.evicted)
            + self.ring.iter().map(|(_, w)| count(w)).sum::<u64>()
    }

    /// Closes every window that ends at or before `now`.
    pub fn advance(&mut self, now: Time) {
        let w = self.width.as_ps();
        while (self.open + 1).saturating_mul(w) <= now.as_ps() {
            self.close_open();
        }
    }

    /// Rolls up to `now`, then closes the partial open window too.
    /// Call once at end of run so the tail is exported.
    pub fn finish(&mut self, now: Time) {
        self.advance(now);
        self.close_open();
    }

    fn close_open(&mut self) {
        let closed = self.cur.clone();
        self.cur.roll();
        self.push_window(self.open, closed);
        self.open += 1;
    }

    fn push_window(&mut self, index: u64, window: MetricsRegistry) {
        if self.ring.len() == SERIES_RETAIN {
            let (_, old) = self.ring.pop_front().expect("ring non-empty at capacity");
            for (name, n) in counters(&old) {
                if n > 0 {
                    self.evicted.add(name, n);
                }
            }
        }
        self.ring.push_back((index, window));
    }

    /// Iterates retained closed windows `(index, window)`, oldest first
    /// (window `i` covers `[i*width, (i+1)*width)`).
    pub fn windows(&self) -> impl Iterator<Item = (u64, &MetricsRegistry)> {
        self.ring.iter().map(|(i, w)| (*i, w))
    }

    /// Folds another series into this one (cell-order merge). Windows
    /// merge index-by-index as registries: counters and gauges add,
    /// histograms merge raw.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.width, other.width,
            "cannot merge time series with different window widths"
        );
        self.cur.merge(&other.cur);
        self.evicted.merge(&other.evicted);
        let mut by_index: BTreeMap<u64, MetricsRegistry> = self.ring.drain(..).collect();
        for (i, w) in &other.ring {
            by_index.entry(*i).or_default().merge(w);
        }
        for (i, w) in by_index {
            self.push_window(i, w);
        }
        self.open = self.open.max(other.open);
    }

    /// Renders the series as canonical JSON: window parameters,
    /// lifetime counter totals, then retained windows oldest-first with
    /// counters/gauges in name order and histogram summaries
    /// (`count`/`p50`/`p99`/`max`) computed from the raw windowed
    /// histograms. Deterministic byte-for-byte for a deterministic
    /// simulation.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.ring.len() * 128);
        out.push_str("{\"width_ns\":");
        out.push_str(&self.width.as_ns().to_string());
        out.push_str(",\"retain\":");
        out.push_str(&SERIES_RETAIN.to_string());
        out.push_str(",\"windows_rolled\":");
        out.push_str(&self.open.to_string());
        out.push_str(",\"lifetime\":{");
        push_levels(
            &mut out,
            counters(&self.cur).map(|(name, _)| (name, self.lifetime(name))),
        );
        out.push_str("},\"windows\":[");
        self.push_windows(&mut out, self.ring.len());
        out.push_str("]}");
        out
    }

    /// Renders the last `n` retained windows (oldest-first) as a JSON
    /// array of window objects — the "series tail" a flight-recorder
    /// evidence bundle carries alongside the trace ring.
    pub fn tail_json(&self, n: usize) -> String {
        let mut out = String::with_capacity(64 + n * 128);
        out.push('[');
        self.push_windows(&mut out, n);
        out.push(']');
        out
    }

    /// Appends the last `n` retained windows as comma-separated JSON
    /// objects.
    fn push_windows(&self, out: &mut String, n: usize) {
        let width_ns = self.width.as_ns();
        let skip = self.ring.len().saturating_sub(n);
        for (wi, (index, w)) in self.ring.iter().skip(skip).enumerate() {
            if wi > 0 {
                out.push(',');
            }
            out.push_str("{\"index\":");
            out.push_str(&index.to_string());
            out.push_str(",\"start_ns\":");
            out.push_str(&(index * width_ns).to_string());
            out.push_str(",\"end_ns\":");
            out.push_str(&((index + 1) * width_ns).to_string());
            out.push_str(",\"counters\":{");
            push_levels(out, counters(w));
            out.push_str("},\"gauges\":{");
            push_levels(out, gauges(w));
            out.push_str("},\"hists\":{");
            for (hi, (name, h)) in hists(w).enumerate() {
                if hi > 0 {
                    out.push(',');
                }
                json::escape(out, name);
                out.push_str(":{\"count\":");
                out.push_str(&h.count().to_string());
                out.push_str(",\"p50\":");
                out.push_str(&h.percentile(50.0).to_string());
                out.push_str(",\"p99\":");
                out.push_str(&h.percentile(99.0).to_string());
                out.push_str(",\"max\":");
                out.push_str(&h.max().to_string());
                out.push('}');
            }
            out.push_str("}}");
        }
    }
}

/// A window's counters `(name, count)` in name order.
fn counters(w: &MetricsRegistry) -> impl Iterator<Item = (&str, u64)> {
    w.iter().filter_map(|(name, inst)| match inst {
        Instrument::Counter(c) => Some((name, c.get())),
        _ => None,
    })
}

/// A window's gauges `(name, level)` in name order.
fn gauges(w: &MetricsRegistry) -> impl Iterator<Item = (&str, u64)> {
    w.iter().filter_map(|(name, inst)| match inst {
        Instrument::Gauge(g) => Some((name, *g)),
        _ => None,
    })
}

/// A window's histograms in name order.
fn hists(w: &MetricsRegistry) -> impl Iterator<Item = (&str, &Histogram)> {
    w.iter().filter_map(|(name, inst)| match inst {
        Instrument::Histogram(h) => Some((name, h)),
        _ => None,
    })
}

/// Appends `"name":value` pairs, comma-separated.
fn push_levels<'a>(out: &mut String, pairs: impl Iterator<Item = (&'a str, u64)>) {
    for (i, (name, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape(out, name);
        out.push(':');
        out.push_str(&v.to_string());
    }
}

/// Writes a length-prefixed section of `(name, value)` pairs.
fn put_section<'a, T>(
    w: &mut SnapWriter,
    pairs: impl Iterator<Item = (&'a str, T)>,
    put: impl Fn(&mut SnapWriter, T),
) {
    let pairs: Vec<(&str, T)> = pairs.collect();
    w.put_usize(pairs.len());
    for (name, v) in pairs {
        w.put_str(name);
        put(w, v);
    }
}

/// Writes a window's gauge and histogram sections.
fn put_gauges_hists(w: &mut SnapWriter, reg: &MetricsRegistry) {
    put_section(w, gauges(reg), |w, v| w.put_u64(v));
    put_section(w, hists(reg), |w, h| h.snapshot(w));
}

/// Reads a window's gauge and histogram sections into `reg`.
fn get_gauges_hists(r: &mut SnapReader<'_>, reg: &mut MetricsRegistry) -> Result<(), RestoreError> {
    for _ in 0..r.get_usize()? {
        let name = r.get_str()?;
        reg.insert_new(name, Instrument::Gauge(r.get_u64()?))?;
    }
    for _ in 0..r.get_usize()? {
        let name = r.get_str()?;
        reg.insert_new(name, Instrument::Histogram(Histogram::restore(r)?))?;
    }
    Ok(())
}

fn counter(n: u64) -> Instrument {
    let mut c = Counter::new();
    c.add(n);
    Instrument::Counter(c)
}

/// Each counter of the open window is stored as `(open count, lifetime,
/// evicted)`, then come its gauges and histograms, then the ring. The
/// lifetime slot holds the computed sum, which keeps the layout at
/// snapshot version 1; restore refuses a lifetime that disagrees.
impl Snapshot for TimeSeries {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_duration(self.width);
        w.put_usize(SERIES_RETAIN);
        w.put_u64(self.open);
        w.put_u64(self.open);
        let slots = |(name, n)| {
            let gone = self.evicted.counter(name).unwrap_or(0);
            (name, [n, self.lifetime(name), gone])
        };
        put_section(w, counters(&self.cur).map(slots), |w, slots| {
            slots.into_iter().for_each(|v| w.put_u64(v))
        });
        put_gauges_hists(w, &self.cur);
        w.put_usize(self.ring.len());
        for (index, reg) in &self.ring {
            w.put_u64(*index);
            put_section(w, counters(reg), |w, n| w.put_u64(n));
            put_gauges_hists(w, reg);
        }
    }
}

impl Restore for TimeSeries {
    fn restore(r: &mut SnapReader<'_>) -> Result<TimeSeries, RestoreError> {
        let width = r.get_duration()?;
        if width.is_zero() {
            return Err(malformed("time series window width is zero"));
        }
        let retain = r.get_usize()?;
        if retain != SERIES_RETAIN {
            return Err(malformed(format!(
                "time series retains {retain} windows, not {SERIES_RETAIN}"
            )));
        }
        let open = r.get_u64()?;
        let rolled = r.get_u64()?;
        if rolled != open {
            return Err(malformed(format!(
                "time series rolled {rolled} windows but window {open} is open"
            )));
        }
        let mut cur = MetricsRegistry::new();
        let mut evicted = MetricsRegistry::new();
        let mut totals = Vec::new();
        for _ in 0..r.get_usize()? {
            let name = r.get_str()?;
            let (count, total, gone) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
            if gone > 0 {
                evicted.add(&name, gone);
            }
            totals.push((name.clone(), total));
            cur.insert_new(name, counter(count))?;
        }
        get_gauges_hists(r, &mut cur)?;
        let n = r.get_usize()?;
        if n > retain {
            return Err(malformed(format!(
                "ring holds {n} windows, retain is {retain}"
            )));
        }
        let mut ring = VecDeque::with_capacity(SERIES_RETAIN);
        for _ in 0..n {
            let index = r.get_u64()?;
            if index >= open {
                return Err(malformed(format!(
                    "ring window {index} not before open window {open}"
                )));
            }
            if ring.back().is_some_and(|(prev, _)| index <= *prev) {
                return Err(malformed("ring windows out of order"));
            }
            let mut reg = MetricsRegistry::new();
            for _ in 0..r.get_usize()? {
                let name = r.get_str()?;
                reg.insert_new(name, counter(r.get_u64()?))?;
            }
            get_gauges_hists(r, &mut reg)?;
            // the open window names every instrument, each with its kind
            let stray = |(name, inst): &(&str, &Instrument)| {
                cur.get(name).map(Instrument::kind) != Some(inst.kind())
            };
            if let Some((name, _)) = reg.iter().find(stray) {
                return Err(malformed(format!(
                    "window {index} holds `{name}` unlike the open window"
                )));
            }
            ring.push_back((index, reg));
        }
        for (name, total) in totals {
            let count = |w: &MetricsRegistry| u128::from(w.counter(&name).unwrap_or(0));
            let sum =
                count(&cur) + count(&evicted) + ring.iter().map(|(_, w)| count(w)).sum::<u128>();
            if sum != u128::from(total) {
                return Err(malformed(format!(
                    "telemetry counter `{name}`: stored lifetime {total}, its windows sum to {sum}"
                )));
            }
        }
        Ok(TimeSeries {
            width,
            open,
            cur,
            ring,
            evicted,
        })
    }
}

/// An anomaly class that fires the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Window latency p99 exceeded the deadline.
    SloBreach,
    /// Admission shed on a saturated queue this window.
    QueueSaturation,
    /// CheckPlane recorded a violation.
    CheckViolation,
    /// A resilience domain was quarantined.
    Quarantine,
}

impl TriggerKind {
    /// Every trigger class, in snapshot-slot order.
    const ALL: [TriggerKind; 4] = [
        TriggerKind::SloBreach,
        TriggerKind::QueueSaturation,
        TriggerKind::CheckViolation,
        TriggerKind::Quarantine,
    ];

    /// Stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::SloBreach => "slo_breach",
            TriggerKind::QueueSaturation => "queue_saturation",
            TriggerKind::CheckViolation => "check_violation",
            TriggerKind::Quarantine => "quarantine",
        }
    }
}

/// Writes the per-class trigger flags of the snapshot layout: every
/// class is always armed, so one `true` per [`TriggerKind`].
pub fn put_trigger_slot(w: &mut SnapWriter) {
    for _ in TriggerKind::ALL {
        w.put_bool(true);
    }
}

/// Reads the slot [`put_trigger_slot`] writes.
///
/// # Errors
///
/// [`RestoreError`] when the slot is truncated or disarms a class.
pub fn check_trigger_slot(r: &mut SnapReader<'_>) -> Result<(), RestoreError> {
    for kind in TriggerKind::ALL {
        if !r.get_bool()? {
            return Err(malformed(format!(
                "snapshot disarms the `{}` trigger; every trigger is armed",
                kind.name()
            )));
        }
    }
    Ok(())
}

/// One event in the flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated time of the event.
    pub time: Time,
    /// Short stable category (`"exemplar"`, `"window"`, ...).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A latched trigger: when, which window, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerFire {
    /// Simulated time the trigger fired.
    pub time: Time,
    /// Index of the window that tripped it.
    pub window: u64,
    /// [`TriggerKind::name`] of the cause.
    pub reason: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A bounded ring of recent events plus latched triggers.
///
/// The ring holds at most [`FLIGHT_EVENTS`] events; a full ring drops
/// its oldest event (counted in `dropped`) so memory stays fixed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    dropped: u64,
    triggers: Vec<TriggerFire>,
}

impl FlightRecorder {
    /// Records an event, dropping the oldest one when the ring is full.
    pub fn note(&mut self, time: Time, kind: &str, detail: impl FnOnce() -> String) {
        if self.ring.len() == FLIGHT_EVENTS {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightEvent {
            time,
            kind: kind.to_owned(),
            detail: detail(),
        });
    }

    /// Latches a trigger.
    pub fn trigger(
        &mut self,
        time: Time,
        window: u64,
        kind: TriggerKind,
        detail: impl FnOnce() -> String,
    ) {
        self.triggers.push(TriggerFire {
            time,
            window,
            reason: kind.name().to_owned(),
            detail: detail(),
        });
    }

    /// All latched triggers, in firing order.
    pub fn triggers(&self) -> &[TriggerFire] {
        &self.triggers
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the recorder as canonical JSON: ring depth, drop count,
    /// the event ring oldest-first, and latched triggers in firing
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.ring.len() * 96);
        out.push_str("{\"armed\":true,\"cap\":");
        out.push_str(&FLIGHT_EVENTS.to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str(",\"events\":[");
        for (i, ev) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"t_ns\":");
            out.push_str(&ev.time.as_ns().to_string());
            out.push_str(",\"kind\":");
            json::escape(&mut out, &ev.kind);
            out.push_str(",\"detail\":");
            json::escape(&mut out, &ev.detail);
            out.push('}');
        }
        out.push_str("],\"triggers\":[");
        for (i, t) in self.triggers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"t_ns\":");
            out.push_str(&t.time.as_ns().to_string());
            out.push_str(",\"window\":");
            out.push_str(&t.window.to_string());
            out.push_str(",\"reason\":");
            json::escape(&mut out, &t.reason);
            out.push_str(",\"detail\":");
            json::escape(&mut out, &t.detail);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// The armed flag, ring depth and trigger flags are fixed; they are still
/// written, which keeps the layout at snapshot version 1, and restore
/// refuses any other value.
impl Snapshot for FlightRecorder {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_bool(true);
        w.put_usize(FLIGHT_EVENTS);
        put_trigger_slot(w);
        w.put_u64(self.dropped);
        w.put_usize(self.ring.len());
        for ev in &self.ring {
            w.put_time(ev.time);
            w.put_str(&ev.kind);
            w.put_str(&ev.detail);
        }
        w.put_usize(self.triggers.len());
        for t in &self.triggers {
            w.put_time(t.time);
            w.put_u64(t.window);
            w.put_str(&t.reason);
            w.put_str(&t.detail);
        }
    }
}

impl Restore for FlightRecorder {
    fn restore(r: &mut SnapReader<'_>) -> Result<FlightRecorder, RestoreError> {
        if !r.get_bool()? {
            return Err(malformed("flight recorder is disarmed"));
        }
        let cap = r.get_usize()?;
        if cap != FLIGHT_EVENTS {
            return Err(malformed(format!(
                "flight ring holds {cap} events, not {FLIGHT_EVENTS}"
            )));
        }
        check_trigger_slot(r)?;
        let mut fr = FlightRecorder {
            dropped: r.get_u64()?,
            ..FlightRecorder::default()
        };
        let n = r.get_usize()?;
        if n > cap {
            return Err(malformed(format!(
                "flight ring holds {n} events, cap is {cap}"
            )));
        }
        for _ in 0..n {
            fr.ring.push_back(FlightEvent {
                time: r.get_time()?,
                kind: r.get_str()?,
                detail: r.get_str()?,
            });
        }
        for _ in 0..r.get_usize()? {
            fr.triggers.push(TriggerFire {
                time: r.get_time()?,
                window: r.get_u64()?,
                reason: r.get_str()?,
                detail: r.get_str()?,
            });
        }
        Ok(fr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Time {
        Time::ZERO + Duration::from_us(n)
    }

    fn hist<'a>(w: &'a MetricsRegistry, name: &str) -> &'a Histogram {
        match w.get(name) {
            Some(Instrument::Histogram(h)) => h,
            other => panic!("`{name}` is not a histogram: {other:?}"),
        }
    }

    #[test]
    fn windows_roll_on_fixed_boundaries() {
        let mut ts = TimeSeries::new(Duration::from_us(10));
        ts.incr("ev", 2);
        ts.advance(us(9)); // still inside window 0
        assert_eq!(ts.rolled(), 0);
        ts.advance(us(10)); // window 0 closes exactly at its end
        assert_eq!(ts.rolled(), 1);
        ts.incr("ev", 5);
        ts.advance(us(35)); // windows 1 and 2 close
        assert_eq!(ts.rolled(), 3);
        ts.finish(us(35)); // partial window 3 closes
        assert_eq!(ts.rolled(), 4);
        let w: Vec<_> = ts.windows().collect();
        assert_eq!(w.len(), 4);
        assert_eq!(w.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(w[0].1.counter("ev"), Some(2));
        assert_eq!(w[1].1.counter("ev"), Some(5));
        assert_eq!(w[2].1.counter("ev"), Some(0));
        assert_eq!(ts.lifetime("ev"), 7);
    }

    #[test]
    fn gauges_persist_and_hists_reset_per_window() {
        let mut ts = TimeSeries::new(Duration::from_us(10));
        ts.set_gauge("queue", 3);
        ts.record("lat", 100);
        ts.advance(us(10));
        ts.record("lat", 9_000);
        ts.finish(us(15));
        let w: Vec<_> = ts.windows().map(|(_, w)| w).collect();
        assert_eq!(w[0].gauge("queue"), Some(3));
        assert_eq!(w[1].gauge("queue"), Some(3), "gauge level persists");
        assert_eq!(hist(w[0], "lat").count(), 1);
        assert_eq!(hist(w[1], "lat").count(), 1);
        assert_eq!(hist(w[1], "lat").max(), 9_000);
    }

    #[test]
    fn conservation_holds_through_ring_eviction() {
        let mut ts = TimeSeries::new(Duration::from_us(1));
        let n = SERIES_RETAIN as u64 + 8;
        for i in 0..n {
            ts.incr("ev", i + 1);
            ts.advance(us(i + 1));
        }
        assert_eq!(ts.windows().count(), SERIES_RETAIN, "ring stays bounded");
        let ring: u64 = ts.windows().map(|(_, w)| w.counter("ev").unwrap()).sum();
        assert_eq!(
            ring,
            (9..=n).sum::<u64>(),
            "the ring keeps the newest windows"
        );
        assert_eq!(ts.lifetime("ev"), (1..=n).sum::<u64>());
    }

    #[test]
    fn merge_equals_recording_into_one_series() {
        let mut a = TimeSeries::new(Duration::from_us(10));
        let mut b = TimeSeries::new(Duration::from_us(10));
        let mut whole = TimeSeries::new(Duration::from_us(10));
        let n = SERIES_RETAIN as u64 + 2;
        for i in 0..n {
            a.incr("ev", i);
            b.incr("ev", 10 * i);
            whole.incr("ev", 11 * i);
            a.record("lat", 100 + i);
            b.record("lat", 5_000 + i);
            whole.record("lat", 100 + i);
            whole.record("lat", 5_000 + i);
            a.advance(us((i + 1) * 10));
            b.advance(us((i + 1) * 10));
            whole.advance(us((i + 1) * 10));
        }
        a.finish(us(n * 10));
        b.finish(us(n * 10));
        whole.finish(us(n * 10));
        a.merge(&b);
        assert_eq!(a.to_json(), whole.to_json());
        assert_eq!(a, whole, "evicted windows merge too");
        assert_eq!(a.lifetime("ev"), 11 * (0..n).sum::<u64>());
    }

    #[test]
    fn json_is_well_formed_and_reruns_identically() {
        let mut ts = TimeSeries::new(Duration::from_us(10));
        ts.incr("req", 3);
        ts.set_gauge("queue", 2);
        ts.record("lat", 150);
        ts.finish(us(25));
        let text = ts.to_json();
        let doc = json::parse(&text).expect("series JSON parses");
        assert_eq!(doc.get("width_ns").unwrap().as_f64(), Some(10_000.0));
        let windows = doc.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(
            windows[0]
                .get("counters")
                .unwrap()
                .get("req")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(ts.to_json(), text, "export is stable");
    }

    fn evicting_series() -> TimeSeries {
        let mut ts = TimeSeries::new(Duration::from_us(2));
        for i in 0..SERIES_RETAIN as u64 + 5 {
            ts.incr("ev", i);
            ts.set_gauge("g", 100 - i);
            ts.record("lat", 1_000 * (i + 1));
            ts.advance(us(2 * (i + 1)));
        }
        ts
    }

    fn snapshot_bytes(ts: &TimeSeries) -> Vec<u8> {
        let mut w = SnapWriter::new();
        ts.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn series_snapshot_round_trips() {
        let ts = evicting_series();
        let bytes = snapshot_bytes(&ts);
        let mut r = SnapReader::new(&bytes);
        let back = TimeSeries::restore(&mut r).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(back, ts);
        assert_eq!(back.to_json(), ts.to_json());
        assert_eq!(
            snapshot_bytes(&back),
            bytes,
            "re-serialize is byte-identical"
        );
    }

    /// Byte offset of the `ev` counter's `(open, lifetime, evicted)`
    /// slots in an [`evicting_series`] snapshot: width, retain, open,
    /// rolled, the counter count, then the name.
    fn ev_slots(bytes: &[u8]) -> usize {
        let name = b"ev";
        bytes
            .windows(name.len())
            .position(|w| w == name)
            .expect("counter name in the stream")
            + name.len()
    }

    #[test]
    fn restore_refuses_a_lifetime_its_windows_do_not_sum_to() {
        let ts = evicting_series();
        let mut bytes = snapshot_bytes(&ts);
        let at = ev_slots(&bytes) + 8;
        let stored = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(stored, ts.lifetime("ev"), "lifetime slot located");
        bytes[at..at + 8].copy_from_slice(&(stored + 1).to_le_bytes());
        match TimeSeries::restore(&mut SnapReader::new(&bytes)) {
            Err(RestoreError::Malformed { context }) => {
                assert!(context.contains("stored lifetime"), "{context}")
            }
            other => panic!("a non-conserving lifetime restored: {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_one_name_under_two_kinds() {
        let mut ts = TimeSeries::new(Duration::from_us(2));
        ts.incr("ev", 1);
        ts.set_gauge("gv", 7);
        ts.advance(us(2));
        let bytes = snapshot_bytes(&ts);
        // same-length rename: the gauge now shares the counter's name
        let mut clash = bytes.clone();
        let at = clash.windows(2).position(|w| w == b"gv").unwrap();
        clash[at..at + 2].copy_from_slice(b"ev");
        match TimeSeries::restore(&mut SnapReader::new(&clash)) {
            Err(RestoreError::Malformed { context }) => {
                assert!(context.contains("`ev` is already a counter"), "{context}")
            }
            other => panic!("a two-kind name restored: {other:?}"),
        }
        // the same clash inside a closed window is refused too
        let mut clash = bytes;
        let at = clash.windows(2).rposition(|w| w == b"gv").unwrap();
        clash[at..at + 2].copy_from_slice(b"ev");
        assert!(matches!(
            TimeSeries::restore(&mut SnapReader::new(&clash)),
            Err(RestoreError::Malformed { .. })
        ));
    }

    #[test]
    fn armed_ring_is_bounded_and_counts_drops() {
        let mut fr = FlightRecorder::default();
        for i in 0..FLIGHT_EVENTS as u64 + 2 {
            fr.note(us(i), "tick", || format!("event {i}"));
        }
        assert_eq!(fr.events().count(), FLIGHT_EVENTS);
        assert_eq!(fr.dropped(), 2);
        let first = fr.events().next().unwrap().time;
        assert_eq!(first, us(2), "oldest events dropped first");
    }

    #[test]
    fn every_trigger_class_latches() {
        let mut fr = FlightRecorder::default();
        fr.trigger(us(1), 0, TriggerKind::SloBreach, || "p99".into());
        fr.trigger(us(2), 1, TriggerKind::Quarantine, || "domain 3".into());
        let reasons: Vec<&str> = fr.triggers().iter().map(|t| t.reason.as_str()).collect();
        assert_eq!(reasons, ["slo_breach", "quarantine"]);
        assert_eq!(fr.triggers()[0].window, 0);
    }

    #[test]
    fn recorder_snapshot_round_trips() {
        let mut fr = FlightRecorder::default();
        for i in 0..FLIGHT_EVENTS as u64 + 2 {
            fr.note(us(i), "tick", || format!("event {i}"));
        }
        fr.trigger(us(9), 2, TriggerKind::CheckViolation, || "boom".into());
        let mut w = SnapWriter::new();
        fr.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = FlightRecorder::restore(&mut r).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(back, fr);
        assert_eq!(back.dropped(), 2);

        // another ring depth is refused
        let mut bad = bytes.clone();
        bad[1] = 3;
        assert!(FlightRecorder::restore(&mut SnapReader::new(&bad)).is_err());
        // a disarmed trigger class in the policy slot is refused
        let mut bad = bytes.clone();
        bad[1 + 8 + 2] = 0; // armed flag, cap, then the third class
        match FlightRecorder::restore(&mut SnapReader::new(&bad)) {
            Err(RestoreError::Malformed { context }) => {
                assert!(context.contains("check_violation"), "{context}")
            }
            other => panic!("a disarmed trigger restored: {other:?}"),
        }

        // so is a snapshot of a disarmed recorder
        let mut bad = bytes;
        bad[0] = 0;
        assert!(FlightRecorder::restore(&mut SnapReader::new(&bad)).is_err());
    }

    #[test]
    fn flight_json_parses() {
        let mut fr = FlightRecorder::default();
        fr.note(us(1), "exemplar", || "req 7 \"quoted\"".into());
        fr.trigger(us(2), 0, TriggerKind::SloBreach, || {
            "p99 300us > 250us".into()
        });
        let doc = json::parse(&fr.to_json()).expect("flight JSON parses");
        assert_eq!(
            doc.get("events").unwrap().as_arr().unwrap()[0]
                .get("kind")
                .unwrap()
                .as_str(),
            Some("exemplar")
        );
        assert_eq!(
            doc.get("triggers").unwrap().as_arr().unwrap()[0]
                .get("reason")
                .unwrap()
                .as_str(),
            Some("slo_breach")
        );
    }
}
