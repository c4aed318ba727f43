//! The traced run: spans recorded around the benchmark's own calls into
//! each layer's public entry points, and the layer-by-layer "peel" that
//! turns per-level latencies into per-layer self times.
//!
//! The same request stream is sent in at each level of the stack, from
//! the outermost (TCP through the router) to the innermost
//! (`Simulator::run_batch_into`). A layer's self time is the difference
//! between the median latencies of the level that includes it and the
//! level just below it. No span is recorded inside the program.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per traced run; later spans are counted, not stored.
const MAX_SPANS: usize = 50_000;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Entry point or phase name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// The request the span belongs to (`u64::MAX` when none).
    pub request: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    level: &'static str,
    spans: Vec<Span>,
    roots: HashMap<u64, u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            level: "",
            spans: Vec::new(),
            roots: HashMap::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off (the untraced and traced halves of the
    /// overhead measurement share one tracer).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Names the peel level subsequent request spans belong to.
    pub fn set_level(&mut self, level: &'static str) {
        self.level = level;
        self.roots.clear();
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as u32)
    }

    /// Opens the root span of request `request`, sent at `at`.
    pub fn begin_request(&mut self, request: u64, at: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: self.level,
            start_ns: self.ns(at),
            end_ns: self.ns(at),
            parent: None,
            request,
        };
        if let Some(id) = self.push(span) {
            self.roots.insert(request, id);
        }
    }

    /// Closes request `request`'s root span at `at`.
    pub fn end_request(&mut self, request: u64, at: Instant) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.roots.remove(&request) {
            let end = self.ns(at);
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Records a call into a layer's entry point on behalf of
    /// `request`, as a child of that request's root span.
    pub fn child(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.roots.get(&request).copied(),
            request,
        };
        self.push(span);
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated
    /// `id parent request name start_ns end_ns` lines after `header`.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_to(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "{header}")?;
        writeln!(out, "# spans={} dropped={}", self.spans.len(), self.dropped)?;
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let request = if s.request == u64::MAX {
                "-".to_string()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{request}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Writes the traced run's spans to `.bench_out/spans-<workload>.tsv`.
///
/// # Errors
/// File-system failures.
pub fn write_spans(tracers: &[&Tracer], workload: &str) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}.tsv"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let header = format!(
        "# workload={workload} host: {}",
        crate::report::fingerprint()
    );
    for t in tracers {
        t.write_to(&mut out, &header)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// Self time of each peel level, outermost first: level `i`'s median
/// minus level `i + 1`'s; the innermost level's self time is its whole
/// median. A negative difference (the outer level measured faster than
/// the inner one: noise, or under load an inner level with less
/// parallelism than the one above it) is reported as measured.
pub fn self_times(level_medians: &[f64]) -> Vec<f64> {
    level_medians
        .iter()
        .enumerate()
        .map(|(i, &m)| m - level_medians.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_difference_of_adjacent_medians() {
        let medians = [52.0, 40.0, 11.5, 6.0, 0.1];
        let own = self_times(&medians);
        let expect = [12.0, 28.5, 5.5, 5.9, 0.1];
        for (a, b) in own.iter().zip(expect) {
            assert!((a - b).abs() < 1e-9, "{own:?}");
        }
        // The self times add back up to the outermost latency.
        assert!((own.iter().sum::<f64>() - 52.0).abs() < 1e-9);
    }

    #[test]
    fn noise_can_make_a_self_time_negative() {
        assert_eq!(self_times(&[5.0, 6.0]), vec![-1.0, 6.0]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn child_spans_point_at_their_request_root() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.set_level("tcp_direct");
        let t0 = epoch + Duration::from_micros(10);
        t.begin_request(7, t0);
        t.child("Frame::encode", 7, t0, t0 + Duration::from_micros(1));
        t.end_request(7, t0 + Duration::from_micros(30));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "tcp_direct");
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 30_000);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.begin_request(1, Instant::now());
        t.child("x", 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
