//! The `flow` workload: the paper's Steps 1–4 for VGG16 on both
//! devices, a 12-bit vgg_tiny design validated bit-exactly against the
//! golden reference, and Step-4 inferences on that design's simulator.
//! The compiler dominates; the serving layers do nothing.

use crate::design::{run_design, DesignMetrics, Device};
use crate::load::{closed_loop, open_loop, Oracle, Sink};
use crate::peel::Tracer;
use crate::phases::{
    account, lag_p99, latency, serving_metrics, trace_overhead, Budget, Load, Tags,
};
use crate::report::{peak_rss_mb, Report};
use crate::sinks::SimSink;
use crate::stats::median;
use hybriddnn::parser::{parse_fpga, parse_model};
use hybriddnn::report::golden_quantized;
use hybriddnn_compiler::QuantSpec;
use hybriddnn_model::{synth, Network, Tensor};
use hybriddnn_sim::{SimMode, Simulator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Step-4 load on the 12-bit vgg_tiny design: one designer running
/// inferences back to back, and an open loop at about a quarter of one
/// session's capacity on a 2-vCPU Xeon virtual machine (170-190
/// inferences/s).
const LOAD: Load = Load {
    window: 1,
    rate: 50.0,
    limit: Duration::from_millis(50),
};

/// Setup rounds whose median is `setup_s`.
const SETUP_ROUNDS: usize = 3;
/// VGG16 design points (Steps 2-4 on one device, 3-4 s each on a
/// 2-vCPU Xeon virtual machine) in an untraced run, one after every
/// other round of the Step-4 phases, alternating devices.
const VGG16_POINTS: usize = 4;
/// Rounds of the Step-4 phases in an untraced run.
const ROUNDS: usize = 2 * VGG16_POINTS;
/// Inputs in the Step-4 request pool.
const N_INPUTS: usize = 16;

struct Specs {
    vgg16: Network,
    vgg_tiny: Network,
    vu9p: Device,
    pynq: Device,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Step 1: parse the model and device specs and bind the synthetic
/// weights the seed selects.
fn step1(seed: u64) -> Result<Specs, String> {
    let model = |path: &str| -> Result<Network, String> {
        let mut net = parse_model(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        synth::bind_random(&mut net, seed).map_err(|e| e.to_string())?;
        Ok(net)
    };
    let fpga = |path: &str| parse_fpga(&read(path)?).map_err(|e| format!("{path}: {e}"));
    Ok(Specs {
        vgg16: model("specs/vgg16.hdnn")?,
        vgg_tiny: model("specs/vgg_tiny.hdnn")?,
        vu9p: Device::vu9p(fpga("specs/vu9p.fpga")?),
        pynq: Device::pynq(fpga("specs/pynq_z1.fpga")?),
    })
}

/// Runs the workload for about `seconds`.
///
/// # Errors
/// Missing spec files or failures of the flow itself.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut specs = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        specs = Some(step1(seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let specs = specs.expect("at least one setup round");
    report.attempted += SETUP_ROUNDS as u64;

    // The 12-bit vgg_tiny design: bit-exact against the golden
    // reference, then served to its own simulator (Step 4).
    let design = run_design(&specs.vgg_tiny, &specs.pynq, QuantSpec::paper_12bit())?;
    let compiled = Arc::new(design.compiled);
    let inputs: Arc<Vec<Tensor>> = Arc::new(
        (0..N_INPUTS)
            .map(|i| synth::tensor(specs.vgg_tiny.input_shape(), seed ^ (0xF00D + i as u64)))
            .collect(),
    );
    let mut reference_ms = Vec::new();
    let mut golden = Vec::new();
    for input in inputs.iter() {
        let t = Instant::now();
        let g = golden_quantized(&specs.vgg_tiny, &compiled, input);
        reference_ms.push(t.elapsed().as_secs_f64() * 1e3);
        golden.push(
            g.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
        );
    }
    let oracle = Oracle {
        cycles: design.total_cycles,
        outputs: Some(golden),
    };
    // The simulator's default host threads, as the CLI's Step 4 uses
    // them. A one-thread session ran at the speed of whichever vCPU it
    // landed on: its throughput spread 28% (interquartile range over
    // median) across ten runs.
    let sim = Simulator::new(&compiled, SimMode::Functional, design.bandwidth);
    let mut sink = SimSink::new(
        sim,
        Arc::clone(&compiled),
        Arc::clone(&inputs),
        true,
        Tracer::new(false, start),
    );
    let mut tags = Tags::default();
    // Validation pass: every pool input once, checked bit for bit.
    let check = closed_loop(
        &mut sink,
        &oracle,
        N_INPUTS,
        N_INPUTS,
        Duration::ZERO,
        tags.next(),
    )?;
    account(report, &check);
    report.note(format!(
        "validation: vgg_tiny 12-bit on pynq, {}/{} outputs bit-exact against the golden \
         reference, simulated cycles {}",
        check.ok, check.sent, design.total_cycles
    ));

    let devices = [specs.vu9p.clone(), specs.pynq.clone()];
    let mut vgg16 = DesignMetrics::new("vgg16", &specs.vgg16, &devices, true, trace);
    if trace {
        report.set(
            "model.reference_ms",
            median(&reference_ms).expect("pool is non-empty"),
        );
        trace_step4(&mut sink, &oracle, seconds, &mut tags, report)?;
        vgg16.run_all(1, report)?;
    } else {
        report.set("setup_s", median(&setups).expect("setup rounds ran"));
        // Each round is a Step-4 closed part and a Step-4 open part,
        // every other one followed by a VGG16 design point; the max-rate
        // probes follow.
        let budget = Budget {
            rounds: ROUNDS,
            closed: Duration::from_secs_f64(seconds * 0.02),
            open: Duration::from_secs_f64(seconds * 0.025),
            probe: Duration::from_secs_f64(seconds * 0.017),
        };
        let mut peaks = Vec::new();
        let mut round = 0;
        let mut design_point = |report: &mut Report| {
            round += 1;
            if round % 2 == 0 {
                vgg16.run((round / 2) % devices.len(), report)?;
                // The VGG16 compile sets the flow's peak.
                peaks.push(peak_rss_mb());
            }
            Ok(())
        };
        serving_metrics(
            &mut sink,
            &oracle,
            N_INPUTS,
            &LOAD,
            &budget,
            &mut design_point,
            &mut tags,
            report,
        )?;
        report.set("peak_rss_mb", peaks.iter().copied().fold(0.0, f64::max));
    }
    vgg16.finish(report)
}

/// Per-layer figures of the Step-4 simulator: batched per-element cost,
/// tracing overhead, and generator lag.
fn trace_step4(
    sink: &mut SimSink,
    oracle: &Oracle,
    seconds: f64,
    tags: &mut Tags,
    report: &mut Report,
) -> Result<(), String> {
    let d = Duration::from_secs_f64(seconds * 0.06);
    sink.tracer().set_level("sim");
    let (b1, overhead) = trace_overhead(sink, oracle, N_INPUTS, d / 4, tags, report)?;
    report.set("sim.run_us_b1", b1);
    report.set("bench.trace_overhead_pct", overhead);
    let b8 = closed_loop(sink, oracle, N_INPUTS, 8, d, tags.next())?;
    account(report, &b8);
    report.set("sim.run_us_b8", latency(&b8, 0.5).0 / 8.0);
    let open = open_loop(
        sink,
        oracle,
        N_INPUTS,
        LOAD.rate,
        d,
        LOAD.limit,
        LOAD.window as u64,
        false,
        tags.next(),
    )?;
    account(report, &open);
    report.set("bench.gen_lag_p99_us", lag_p99(&open));
    crate::peel::write_spans(&[&*sink.tracer()], "flow")?;
    Ok(())
}
