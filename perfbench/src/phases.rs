//! The measured phases every workload runs against its front level:
//! a closed loop for throughput, an open loop at the workload's fixed
//! rate for latency, and a search over open-loop probes for the highest
//! rate that meets the latency limit.

use crate::load::{closed_loop, open_loop, Oracle, Phase, Sink};
use crate::report::{peak_rss_mb, reset_peak_rss, Report};
use crate::schedule::crossing_rate;
use crate::stats::{beyond, median, percentile, sorted};
use std::time::Duration;

/// A workload's load shape, frozen in the benchmark.
pub struct Load {
    /// Requests outstanding in the closed loop.
    pub window: usize,
    /// The fixed open-loop rate (requests per second).
    pub rate: f64,
    /// The limit on the tail percentile that `max_rate_rps` is judged
    /// against.
    pub limit: Duration,
}

/// The gated upper percentile. On a 2-vCPU virtual machine,
/// millisecond scheduler stalls and hypervisor steal delay several
/// percent of requests, so the p99, p95 and even p90 measured the host:
/// across ten runs of the same code their spread (interquartile range
/// over median) was 70-1000%, against 5-12% for the p75. The p90 and
/// p99 are printed beside it, ungated.
pub const TAIL_Q: f64 = 0.75;

/// Times the max-rate search raises its first probe (1.25 times the
/// closed-loop throughput) by half again while probes still pass.
const RAISES: usize = 3;

/// Steps of the max-rate search down from a failing first probe, each
/// to this share of the last rate.
const DESCENTS: usize = 4;
const DESCENT: f64 = 0.85;

/// Bisection steps of the max-rate search between a pass and a fail.
const BISECTIONS: usize = 4;

/// How the measured phases share a run. The host's speed drifts by
/// 10-20% over a few seconds, so the closed and fixed-rate open loops
/// run as alternating parts spread over the run, and each metric is the
/// median over the parts: a slow stretch moves a few parts, not the
/// result.
pub struct Budget {
    /// Rounds of one closed-loop part and one fixed-rate open-loop part.
    pub rounds: usize,
    /// Each round's closed-loop part.
    pub closed: Duration,
    /// Each round's fixed-rate open-loop part.
    pub open: Duration,
    /// Each max-rate probe.
    pub probe: Duration,
}

/// Alternating untraced and traced parts behind `bench.trace_overhead_pct`.
const OVERHEAD_PARTS: usize = 6;

/// Hands out disjoint request-tag ranges so every phase of a run uses
/// fresh request ids.
#[derive(Default)]
pub struct Tags(u64);

impl Tags {
    /// The first tag of a new phase; reserves generously.
    pub fn next(&mut self) -> u64 {
        self.0 += 1 << 32;
        self.0
    }
}

/// Folds a phase's counts and correctness into the report.
pub fn account(report: &mut Report, phase: &Phase) {
    report.attempted += phase.sent;
    report.failed += phase.failed;
    if let Some(e) = &phase.first_error {
        report.note(format!("{} request(s) refused, first: {e}", phase.failed));
    }
    for m in &phase.mismatches {
        report.mismatch(m.clone());
    }
}

/// A phase's latency percentile in microseconds, with its support.
pub fn latency(phase: &Phase, q: f64) -> (f64, usize) {
    let s = sorted(phase.latencies_us.clone());
    (percentile(&s, q).unwrap_or(f64::INFINITY), beyond(&s, q))
}

fn tail(phase: &Phase) -> f64 {
    latency(phase, TAIL_Q).0
}

/// The p99 of how late a phase's sends ran, in microseconds.
pub fn lag_p99(phase: &Phase) -> f64 {
    percentile(&sorted(phase.lag_us.clone()), 0.99).unwrap_or(0.0)
}

fn passes(phase: &Phase, load: &Load) -> bool {
    !phase.backlog_exceeded && phase.failed == 0 && tail(phase) <= load.limit.as_secs_f64() * 1e6
}

/// Runs the measured phases against `sink` and sets `throughput_rps`
/// (closed loop), `latency_p50_us` and `latency_p75_us` (open loop at
/// the fixed rate, each the median over rounds of the round's
/// percentile), and prints `max_rate_rps`. Calls `between` after each round
/// (the workload's own work to spread over the run). Returns the
/// process's peak RSS (MiB) during each closed-loop part: the watermark
/// is reset before each part, so a burst that grows buffers moves one
/// part's figure, not the run's median.
///
/// # Errors
/// Transport failures, phases that never drain, or `between`'s errors.
#[allow(clippy::too_many_arguments)]
pub fn serving_metrics(
    sink: &mut dyn Sink,
    oracle: &Oracle,
    n_inputs: usize,
    load: &Load,
    budget: &Budget,
    between: &mut dyn FnMut(&mut Report) -> Result<(), String>,
    tags: &mut Tags,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let (mut parts, mut rss) = (Vec::new(), Vec::new());
    let (mut p50s, mut tails, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lags, mut gated_lags) = (Vec::new(), Vec::new());
    let (mut sent, mut round_passes) = (0, 0);
    for _ in 0..budget.rounds {
        reset_peak_rss();
        let part = closed_loop(
            sink,
            oracle,
            n_inputs,
            load.window,
            budget.closed,
            tags.next(),
        )?;
        rss.push(peak_rss_mb());
        account(report, &part);
        parts.push(part.throughput());

        let fixed = open_loop(
            sink,
            oracle,
            n_inputs,
            load.rate,
            budget.open,
            load.limit,
            load.window as u64,
            false,
            tags.next(),
        )?;
        account(report, &fixed);
        p50s.push(latency(&fixed, 0.5).0);
        tails.push(tail(&fixed));
        p99s.push(latency(&fixed, 0.99).0);
        let lag = sorted(fixed.lag_us.clone());
        lags.push(percentile(&lag, 0.99).unwrap_or(0.0));
        gated_lags.push(percentile(&lag, TAIL_Q).unwrap_or(0.0));
        sent += fixed.sent;
        round_passes += usize::from(passes(&fixed, load));
        between(report)?;
    }
    let throughput = median(&parts).expect("rounds ran");
    let (p50, fixed_tail) = (
        median(&p50s).expect("rounds ran"),
        median(&tails).expect("rounds ran"),
    );
    report.set("throughput_rps", throughput);
    report.set("latency_p50_us", p50);
    report.set("latency_p75_us", fixed_tail);
    let (lag99, gated_lag) = (
        median(&lags).expect("rounds ran"),
        median(&gated_lags).expect("rounds ran"),
    );
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    };
    report.note(format!(
        "closed loop: window {}, {} parts of {:.2} s, {:?} req/s, peak RSS {:?} MiB",
        load.window,
        budget.rounds,
        budget.closed.as_secs_f64(),
        round(&parts),
        round(&rss),
    ));
    report.note(format!(
        "open loop: {:.0} req/s, {} parts of {:.2} s, {sent} sent; per part p50 {:?} us, \
         p75 {:?} us, ungated p99 {:?} us; generator lag p75 {gated_lag:.1} us, p99 {lag99:.1} us (median part){}",
        load.rate,
        budget.rounds,
        budget.open.as_secs_f64(),
        round(&p50s),
        round(&tails),
        round(&p99s),
        if sink.synchronous() {
            " (synchronous level: lag is queueing)"
        } else {
            ""
        },
    ));
    // The phase is invalid when the generator alone would break the
    // latency limit at the gated percentile: it then no longer offers
    // the fixed rate, its latencies must not be compared, and the run
    // fails. Lag is read like the latencies it qualifies, as the median
    // over parts. The p99 lag is not the bound: millisecond host stalls
    // delay about 1% of sends while the gated percentiles still measure
    // the system.
    let lag_bound = load.limit.as_secs_f64() * 1e6;
    if !sink.synchronous() && gated_lag > lag_bound {
        report.invalid(format!(
            "open loop at {:.0} req/s: generator lag p75 {gated_lag:.1} us is over its bound \
             of {lag_bound:.0} us",
            load.rate
        ));
    }

    // Max rate: the fixed-rate phase is the first passing probe. The
    // search starts just above the closed-loop throughput and walks up
    // (while probes pass) or down (while they fail) to a pass next to a
    // fail, bisects between them, and interpolates the tail's crossing
    // of the limit. Walking down from above finds the top of the passing
    // region: a batching service can fail at a rate just above what
    // small batches sustain and pass again higher up, once its batches
    // grow, so a search from below would stop at whichever side one
    // probe landed on.
    let limit_us = load.limit.as_secs_f64() * 1e6;
    let mut probe_at = |rate: f64, report: &mut Report| -> Result<(bool, f64), String> {
        // A probe fails only if it fails twice: one host stall must not
        // end the search.
        let mut probe = Phase::default();
        for _ in 0..2 {
            probe = open_loop(
                sink,
                oracle,
                n_inputs,
                rate,
                budget.probe,
                load.limit,
                load.window as u64,
                true,
                tags.next(),
            )?;
            account(report, &probe);
            if passes(&probe, load) {
                break;
            }
        }
        let ok = passes(&probe, load);
        let probe_tail = tail(&probe);
        report.note(format!(
            "probe {rate:.0} req/s: p75 {probe_tail:.1} us, {}",
            if ok {
                "pass"
            } else if probe.backlog_exceeded {
                "fail (growing backlog)"
            } else {
                "fail"
            }
        ));
        Ok((ok, probe_tail))
    };
    // The fixed rate passes when most of its parts do.
    let max_rate = if 2 * round_passes > budget.rounds {
        let mut pass = (load.rate, fixed_tail);
        let mut fail = None;
        let mut rate = (throughput * 1.25).max(load.rate * 1.5);
        let (first_ok, first_tail) = probe_at(rate, report)?;
        if first_ok {
            pass = (rate, first_tail);
            for _ in 0..RAISES {
                rate *= 1.5;
                let (ok, probe_tail) = probe_at(rate, report)?;
                if !ok {
                    fail = Some((rate, probe_tail));
                    break;
                }
                pass = (rate, probe_tail);
            }
        } else {
            fail = Some((rate, first_tail));
            for _ in 0..DESCENTS {
                rate *= DESCENT;
                if rate <= load.rate {
                    break;
                }
                let (ok, probe_tail) = probe_at(rate, report)?;
                if ok {
                    pass = (rate, probe_tail);
                    break;
                }
                fail = Some((rate, probe_tail));
            }
        }
        for _ in 0..BISECTIONS {
            let Some(f) = fail else { break };
            let rate = (pass.0 + f.0) / 2.0;
            let (ok, probe_tail) = probe_at(rate, report)?;
            if ok {
                pass = (rate, probe_tail);
            } else {
                fail = Some((rate, probe_tail));
            }
        }
        crossing_rate(pass, fail.filter(|f| f.1.is_finite()), limit_us)
    } else {
        0.0
    };
    report.note(format!(
        "metric max_rate_rps = {max_rate} 1/s (printed, not gated; see report::END_TO_END)"
    ));
    Ok(rss)
}

/// Tracing overhead at window 1: untraced and traced closed-loop parts of
/// `part` each alternate, so host drift moves both sides alike. Returns
/// the untraced median latency (us; the median over parts of each
/// part's median) and the traced one's excess over it (%).
///
/// # Errors
/// Transport failures or phases that never drain.
pub fn trace_overhead(
    sink: &mut dyn Sink,
    oracle: &Oracle,
    n_inputs: usize,
    part: Duration,
    tags: &mut Tags,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PARTS {
        for (on, medians) in [(false, &mut plain), (true, &mut traced)] {
            sink.tracer().set_enabled(on);
            let phase = closed_loop(sink, oracle, n_inputs, 1, part, tags.next())?;
            account(report, &phase);
            medians.push(latency(&phase, 0.5).0);
        }
    }
    sink.tracer().set_enabled(false);
    let (p, t) = (
        median(&plain).expect("parts ran"),
        median(&traced).expect("parts ran"),
    );
    Ok((p, (t - p) / p * 100.0))
}
