//! Load generation: a closed loop with a fixed window and an
//! event-driven open loop on a fixed schedule, both on one thread and
//! both driving any [`Sink`] (a level of the serving stack).
//!
//! Every response is checked against the oracle as it arrives; a
//! mismatch is a correctness failure of the run, never a statistic.

use crate::peel::Tracer;
use crate::schedule::{backlog_bound, Schedule};
use hybriddnn_model::Tensor;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Closed-loop latency samples kept per phase: plenty for the medians
/// the peel reads, and a ceiling on the generator's own memory so the
/// process's peak RSS does not grow with the system's throughput.
const MAX_CLOSED_SAMPLES: usize = 200_000;

/// The open loop holds a request back while this many are in flight:
/// the server's default admission queue (256 requests) would refuse it.
/// It binds only when a host stall or an overloaded probe has already
/// built a queue; a held request is still timed from its due time, so
/// the hold shows as latency, never as lower offered load.
const MAX_INFLIGHT: u64 = 192;

/// How long a phase may wait for its last responses before the run is
/// declared hung.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// What a level answered for one request.
#[derive(Debug, Clone)]
pub struct Out {
    /// Simulated accelerator cycles.
    pub cycles: f64,
    /// The output tensor (functional requests only).
    pub output: Option<Tensor>,
}

/// One completed request, stamped when the generator observed it.
#[derive(Debug)]
pub struct Done {
    /// The generator's request tag.
    pub tag: u64,
    /// When the response was observed.
    pub at: Instant,
    /// The response, or the typed rejection rendered as text.
    pub result: Result<Out, String>,
}

/// One level of the stack the generator can send requests into.
pub trait Sink {
    /// Sends request `tag` carrying input `input` without waiting for
    /// its answer.
    ///
    /// # Errors
    /// A transport failure (not a typed rejection, which arrives as a
    /// [`Done`] with an `Err` result).
    fn submit(&mut self, tag: u64, input: usize) -> Result<(), String>;

    /// Collects completions into `out`, waiting up to `timeout` for the
    /// first one.
    ///
    /// # Errors
    /// A transport failure.
    fn poll(&mut self, timeout: Duration, out: &mut Vec<Done>) -> Result<(), String>;

    /// Whether `poll` executes the submitted work on the calling thread
    /// (the simulator level). The generator is then blocked while the
    /// work runs, so its lateness is queueing, not generator lag.
    fn synchronous(&self) -> bool {
        false
    }

    /// The span recorder this level's calls are traced into.
    fn tracer(&mut self) -> &mut Tracer;
}

/// The reference every response is checked against.
pub struct Oracle {
    /// Timing-only `total_cycles`; every response must carry exactly
    /// this (the cycle model is data-independent).
    pub cycles: f64,
    /// Per-input output bits, for functional workloads.
    pub outputs: Option<Vec<Vec<u32>>>,
}

impl Oracle {
    /// Checks one response for input `input`.
    ///
    /// # Errors
    /// A description of the mismatch.
    pub fn check(&self, input: usize, out: &Out) -> Result<(), String> {
        if out.cycles.to_bits() != self.cycles.to_bits() {
            return Err(format!(
                "input {input}: {} cycles, oracle {}",
                out.cycles, self.cycles
            ));
        }
        if let Some(outputs) = &self.outputs {
            let want = &outputs[input % outputs.len()];
            let got = out
                .output
                .as_ref()
                .ok_or_else(|| format!("input {input}: response carries no tensor"))?;
            let same = got.as_slice().len() == want.len()
                && got
                    .as_slice()
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == *b);
            if !same {
                return Err(format!("input {input}: output differs from the oracle"));
            }
        }
        Ok(())
    }
}

/// What a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-request latencies in microseconds, in completion order.
    pub latencies_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered correctly.
    pub ok: u64,
    /// Requests refused or failed (typed rejections).
    pub failed: u64,
    /// The first refusal's reason.
    pub first_error: Option<String>,
    /// Output mismatches against the oracle.
    pub mismatches: Vec<String>,
    /// Seconds from the first send to the last completion.
    pub elapsed_s: f64,
    /// How late each open-loop send ran behind its due time, in
    /// microseconds.
    pub lag_us: Vec<f64>,
    /// The open-loop probe stopped because its backlog outgrew the
    /// latency limit (see [`backlog_bound`]).
    pub backlog_exceeded: bool,
}

impl Phase {
    /// Completions per second over the phase.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.ok as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    fn record(&mut self, oracle: &Oracle, input: usize, sent_at: Instant, done: &Done, keep: bool) {
        match &done.result {
            Ok(out) => match oracle.check(input, out) {
                Ok(()) => {
                    self.ok += 1;
                    if keep {
                        self.latencies_us
                            .push(done.at.saturating_duration_since(sent_at).as_secs_f64() * 1e6);
                    }
                }
                Err(e) => self.mismatches.push(e),
            },
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.clone());
            }
        }
    }
}

/// The pool input request `tag` carries: a phase cycles through the
/// pool in tag order, so every level sees the same request stream.
fn input_of(tag: u64, first_tag: u64, n_inputs: usize) -> usize {
    ((tag - first_tag) % n_inputs as u64) as usize
}

/// A closed loop: `window` requests outstanding at all times for
/// `duration`, each completion immediately replaced; then the last
/// window drains. Tags run from `first_tag`.
///
/// # Errors
/// Transport failures or a phase that never drains.
pub fn closed_loop(
    sink: &mut dyn Sink,
    oracle: &Oracle,
    n_inputs: usize,
    window: usize,
    duration: Duration,
    first_tag: u64,
) -> Result<Phase, String> {
    // Reserved up front: growing by doubling would make the peak RSS
    // jump with whether throughput crossed a power of two.
    let mut phase = Phase {
        latencies_us: Vec::with_capacity(MAX_CLOSED_SAMPLES),
        ..Phase::default()
    };
    let mut sent_at: HashMap<u64, Instant> = HashMap::with_capacity(window);
    let mut next = first_tag;
    let start = Instant::now();
    let stop = start + duration;
    let mut done = Vec::new();
    let mut last = start;
    let send = |sink: &mut dyn Sink, next: &mut u64, sent_at: &mut HashMap<u64, Instant>| {
        let now = Instant::now();
        sink.tracer().begin_request(*next, now);
        sent_at.insert(*next, now);
        let r = sink.submit(*next, input_of(*next, first_tag, n_inputs));
        *next += 1;
        r
    };
    for _ in 0..window {
        send(sink, &mut next, &mut sent_at)?;
    }
    let mut inflight = window as u64;
    while inflight > 0 {
        let wait = if Instant::now() < stop {
            Duration::from_millis(100)
        } else {
            DRAIN_TIMEOUT
        };
        done.clear();
        sink.poll(wait, &mut done)?;
        if done.is_empty() && wait == DRAIN_TIMEOUT {
            return Err(format!("closed loop: {inflight} requests never answered"));
        }
        for d in &done {
            let sent = sent_at
                .remove(&d.tag)
                .ok_or_else(|| format!("response for unknown request {}", d.tag))?;
            sink.tracer().end_request(d.tag, d.at);
            let keep = phase.latencies_us.len() < MAX_CLOSED_SAMPLES;
            phase.record(oracle, input_of(d.tag, first_tag, n_inputs), sent, d, keep);
            inflight -= 1;
            last = last.max(d.at);
        }
        for _ in 0..done.len() {
            if Instant::now() < stop {
                send(sink, &mut next, &mut sent_at)?;
                inflight += 1;
            }
        }
    }
    phase.sent = next - first_tag;
    phase.elapsed_s = last.duration_since(start).as_secs_f64();
    Ok(phase)
}

/// An open loop: requests sent at `rate` per second for `duration`,
/// each timed from its due time, held back only while
/// [`MAX_INFLIGHT`] are in flight. A `probe` (of the max-rate search)
/// gives up once a quarter of its requests are overdue and unanswered.
///
/// `backlog_exceeded` reports a queue still growing when the schedule
/// ends: more requests unanswered than both the Little's-law bound for
/// `limit` (see [`backlog_bound`]) and a twentieth of the phase. A
/// stall spikes the backlog, but it drains again.
///
/// # Errors
/// Transport failures or a phase that never drains.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    sink: &mut dyn Sink,
    oracle: &Oracle,
    n_inputs: usize,
    rate: f64,
    duration: Duration,
    limit: Duration,
    in_service: u64,
    probe: bool,
    first_tag: u64,
) -> Result<Phase, String> {
    let schedule = Schedule::new(rate);
    let total = schedule.count_in(duration);
    let bound = backlog_bound(rate, limit, in_service).max(total / 20);
    let mut phase = Phase::default();
    let mut done = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    let mut completed = 0u64;
    let mut last = start;
    let mut stopped = false;
    while completed < k || !stopped {
        let now = Instant::now();
        let due_now = schedule.due_by(now.duration_since(start)).min(total);
        if !stopped {
            while k < due_now && k - completed < MAX_INFLIGHT {
                let due = start + schedule.due(k);
                let tag = first_tag + k;
                sink.tracer().begin_request(tag, due);
                phase
                    .lag_us
                    .push(now.duration_since(due).as_secs_f64() * 1e6);
                sink.submit(tag, input_of(tag, first_tag, n_inputs))?;
                k += 1;
            }
            if probe && due_now - completed > total / 4 {
                phase.backlog_exceeded = true;
                stopped = true;
            } else if k == total {
                phase.backlog_exceeded = k - completed > bound;
                stopped = true;
            }
        }
        if stopped && completed == k {
            break;
        }
        let wait = if stopped {
            DRAIN_TIMEOUT
        } else if k < due_now {
            // Held back: wait for a completion to free a slot.
            Duration::from_millis(1)
        } else {
            (start + schedule.due(k)).saturating_duration_since(Instant::now())
        };
        done.clear();
        sink.poll(wait, &mut done)?;
        if done.is_empty() && wait == DRAIN_TIMEOUT {
            return Err(format!(
                "open loop: {} requests never answered",
                k - completed
            ));
        }
        for d in &done {
            let due = start + schedule.due(d.tag - first_tag);
            sink.tracer().end_request(d.tag, d.at);
            phase.record(oracle, input_of(d.tag, first_tag, n_inputs), due, d, true);
            completed += 1;
            last = last.max(d.at);
        }
    }
    phase.sent = k;
    phase.elapsed_s = last.duration_since(start).as_secs_f64();
    Ok(phase)
}
