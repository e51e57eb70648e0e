//! In-memory span log for the traced run.
//!
//! Spans are recorded on the benchmark's side of each call into a
//! layer's public API: name, start, end and the span that caused it.
//! Every layer span is a child of the pass span it ran in, and layer
//! spans never nest, so a layer's time is the sum of its spans and the
//! part of a pass no layer span covers is the benchmark's own overhead.
//! Spans, and the per-layer metrics built from them, are on the wall
//! clock; end-to-end costs are process CPU time (see `cpu.rs`). A
//! disabled log costs one branch per call.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use crate::cpu;

/// Name of the root span around one traced pass.
pub const PASS: &str = "bench.pass";
/// Name of the span around a pass's closing `export_metrics` + `to_json`.
pub const EXPORT: &str = "sim.metrics.export";

/// Spans kept for the written log; totals keep counting past this.
const KEEP: usize = 20_000;

/// One recorded span. `parent` is 0 for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Host time of one timed call: process CPU time, which end-to-end
/// metrics use, and wall time, which spans and per-layer metrics use.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub cpu: Duration,
    pub wall: Duration,
}

#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    // the current pass: id, start, and whether its span is closed
    pass: Option<(u32, Instant, bool)>,
    kept: Vec<Span>,
    dropped: u64,
    // (name, total ns, spans)
    totals: Vec<(&'static str, u64, u64)>,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn off() -> SpanLog {
        SpanLog {
            enabled: false,
            origin: Instant::now(),
            next_id: 1,
            pass: None,
            kept: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    /// A recording log.
    pub fn on() -> SpanLog {
        SpanLog {
            enabled: true,
            ..SpanLog::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens the pass span the following layer spans belong to.
    pub fn begin_pass(&mut self) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            self.pass = Some((id, Instant::now(), false));
        }
    }

    /// Closes the current pass span. Spans recorded afterwards, from
    /// timestamps buffered during the pass, still belong to it.
    pub fn end_pass(&mut self) {
        if let Some((id, start, closed)) = self.pass.as_mut() {
            if !*closed {
                *closed = true;
                let (id, start) = (*id, *start);
                self.push(id, 0, PASS, start, Instant::now());
            }
        }
    }

    /// Records a `name` span over `[start, end]` under the current pass.
    #[inline]
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            let parent = self.pass.map_or(0, |(p, _, _)| p);
            self.push(id, parent, name, start, end);
        }
    }

    /// Runs `f` as one call into layer `name`: records its span and
    /// returns its result with its host time on both clocks.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Lap) {
        let c0 = cpu::now();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let c1 = cpu::now();
        self.record(name, t0, t1);
        (
            r,
            Lap {
                cpu: c1 - c0,
                wall: t1 - t0,
            },
        )
    }

    fn push(&mut self, id: u32, parent: u32, name: &'static str, start: Instant, end: Instant) {
        let d = end.saturating_duration_since(start).as_nanos() as u64;
        // Names are `&'static str` constants: compare addresses first.
        match self
            .totals
            .iter_mut()
            .find(|t| std::ptr::eq(t.0, name) || t.0 == name)
        {
            Some(t) => {
                t.1 += d;
                t.2 += 1;
            }
            None => self.totals.push((name, d, 1)),
        }
        if self.kept.len() < KEEP {
            let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
            self.kept.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns + d,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Total nanoseconds recorded under `name`.
    pub fn ns(&self, name: &str) -> u64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0, |t| t.1)
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0, |t| t.2)
    }

    /// Share of pass time that no layer span covers.
    pub fn other_share(&self) -> f64 {
        let wall = self.ns(PASS) as f64;
        let covered: u64 = self
            .totals
            .iter()
            .filter(|t| t.0 != PASS)
            .map(|t| t.1)
            .sum();
        if wall > 0.0 {
            (1.0 - covered as f64 / wall).max(0.0)
        } else {
            0.0
        }
    }

    /// Writes the kept spans as tab-separated
    /// `workload id parent name start_ns end_ns` lines.
    pub fn write_tsv(&self, w: &mut impl Write, workload: &str) -> io::Result<()> {
        for s in &self.kept {
            writeln!(
                w,
                "{workload}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(
                w,
                "# {workload}: {} further spans counted, not kept",
                self.dropped
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn coverage_and_parents() {
        let mut log = SpanLog::on();
        log.begin_pass();
        let t0 = Instant::now();
        log.record("a", t0, t0 + Duration::from_micros(30));
        log.record(
            "b",
            t0 + Duration::from_micros(30),
            t0 + Duration::from_micros(60),
        );
        std::thread::sleep(Duration::from_micros(100));
        log.end_pass();
        assert_eq!(log.count("a"), 1);
        assert_eq!(log.ns("b"), 30_000);
        let pass = log.kept.iter().find(|s| s.name == PASS).unwrap();
        assert!(log
            .kept
            .iter()
            .filter(|s| s.name != PASS)
            .all(|s| s.parent == pass.id));
        let share = log.other_share();
        assert!(share > 0.0 && share < 1.0, "{share}");
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::off();
        log.begin_pass();
        let t = Instant::now();
        log.record("a", t, t);
        log.end_pass();
        assert_eq!(log.count("a"), 0);
        assert_eq!(log.count(PASS), 0);
    }
}
