//! The paper's design flow (Steps 2–4) timed step by step through each
//! crate's public entry points.

use crate::report::Report;
use crate::stats::{mean, median_of_groups};
use hybriddnn::report::{AccuracyReport, LayerAccuracy};
use hybriddnn_compiler::{CompiledNetwork, Compiler, MappingStrategy, QuantSpec};
use hybriddnn_dse::DseEngine;
use hybriddnn_estimator::Profile;
use hybriddnn_fpga::FpgaSpec;
use hybriddnn_model::{Network, Tensor};
use hybriddnn_sim::{SimMode, Simulator};
use std::time::{Duration, Instant};

/// A target device with its estimator calibration.
#[derive(Clone)]
pub struct Device {
    /// Short name used in metric names (`vu9p`, `pynq`).
    pub name: &'static str,
    /// The device spec.
    pub spec: FpgaSpec,
    /// The estimator profile.
    pub profile: Profile,
}

impl Device {
    /// The paper's cloud board.
    pub fn vu9p(spec: FpgaSpec) -> Device {
        Device {
            name: "vu9p",
            spec,
            profile: Profile::vu9p(),
        }
    }

    /// The paper's embedded board.
    pub fn pynq(spec: FpgaSpec) -> Device {
        Device {
            name: "pynq",
            spec,
            profile: Profile::pynq_z1(),
        }
    }
}

/// One design point pushed through Steps 2–4.
pub struct DesignRun {
    /// `DseEngine::explore` host milliseconds.
    pub explore_ms: f64,
    /// `Compiler::compile` host milliseconds.
    pub compile_ms: f64,
    /// `Simulator::new` host milliseconds.
    pub session_new_ms: f64,
    /// First (timing-only) `Simulator::run` host milliseconds.
    pub first_run_ms: f64,
    /// DRAM words the compiler staged.
    pub dram_words: u64,
    /// Instructions the compiler emitted.
    pub instructions: u64,
    /// Simulated cycles per inference.
    pub total_cycles: f64,
    /// Simulated per-stage cycles, in stage order.
    pub stage_cycles: Vec<f64>,
    /// Simulated device GOPS (all `NI` instances).
    pub gops: f64,
    /// Estimated vs simulated cycles, per layer.
    pub accuracy: AccuracyReport,
    /// The compiled network (dropped by callers that only need numbers).
    pub compiled: CompiledNetwork,
    /// The per-instance DDR bandwidth share (words/cycle).
    pub bandwidth: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Steps 2–4 for `net` on `device`: explore, compile, open a session,
/// and run one timing-only inference.
///
/// # Errors
/// Rendered DSE, compile, or simulator failures.
pub fn run_design(net: &Network, device: &Device, quant: QuantSpec) -> Result<DesignRun, String> {
    let t = Instant::now();
    let dse = DseEngine::new(device.spec.clone(), device.profile)
        .explore(net)
        .map_err(|e| e.to_string())?;
    let explore_ms = ms_since(t);

    let t = Instant::now();
    let strategy = MappingStrategy::new(dse.strategy_choices());
    let compiled = Compiler::new(dse.design.accel)
        .with_quant(quant)
        .compile(net, &strategy)
        .map_err(|e| e.to_string())?;
    let compile_ms = ms_since(t);

    let bandwidth = device.spec.instance_bandwidth(dse.design.ni);
    let t = Instant::now();
    let mut sim = Simulator::new(&compiled, SimMode::TimingOnly, bandwidth);
    let session_new_ms = ms_since(t);

    let input = Tensor::zeros(compiled.input_shape());
    let t = Instant::now();
    let run = sim.run(&compiled, &input).map_err(|e| e.to_string())?;
    let first_run_ms = ms_since(t);
    // The cycle model is deterministic: a second run of the same session
    // must simulate exactly the same cycles, stage by stage.
    let again = sim.run(&compiled, &input).map_err(|e| e.to_string())?;
    let repeats = run.stage_stats.len() == again.stage_stats.len()
        && run
            .stage_stats
            .iter()
            .zip(&again.stage_stats)
            .all(|(a, b)| a.cycles.to_bits() == b.cycles.to_bits());
    if !repeats {
        return Err(format!(
            "{} cycles on the first run, {} on the second: simulated cycles do not repeat",
            run.total_cycles, again.total_cycles
        ));
    }

    let accuracy = AccuracyReport {
        per_layer: dse
            .per_layer
            .iter()
            .zip(&run.stage_stats)
            .map(|(choice, stats)| LayerAccuracy {
                name: choice.name.clone(),
                estimated: choice.estimate.cycles,
                simulated: stats.cycles,
            })
            .collect(),
    };
    Ok(DesignRun {
        explore_ms,
        compile_ms,
        session_new_ms,
        first_run_ms,
        dram_words: compiled.memory_map().total_words(),
        instructions: compiled.instruction_count() as u64,
        total_cycles: run.total_cycles,
        stage_cycles: run.stage_stats.iter().map(|s| s.cycles).collect(),
        gops: run.gops(device.spec.freq_mhz()) * dse.design.ni as f64,
        accuracy,
        compiled,
        bandwidth,
    })
}

/// Groups the repetitions of each device are summarized over.
const GROUPS: usize = 10;

/// Steps 2–4 for one network on each of its devices, repeated as often
/// as the caller asks, in batches the caller may spread over a run so
/// that a slow stretch of the host moves few of them. [`finish`] sets
/// `flow_s` (the sum over devices and steps of the step's host time:
/// per device, the median over ten consecutive groups of samples of the
/// group's mean), `sim_gops_<device>`, and `estimator_err_pct`
/// (worse device) for an end-to-end report; for a traced one, the
/// per-step breakdown summed over devices, the worst per-layer
/// estimator error, and — with `table` — each stage's simulated and
/// estimated cycles on the first device as `layer.<name>.<stage>.*`.
/// Simulated cycles must repeat exactly across repetitions.
///
/// [`finish`]: DesignMetrics::finish
pub struct DesignMetrics<'a> {
    name: &'a str,
    net: &'a Network,
    devices: &'a [Device],
    table: bool,
    trace: bool,
    /// Per device, explore, compile, session and first-run milliseconds:
    /// one sample per repetition, or per timed batch of repetitions.
    times: Vec<Vec<[f64; 4]>>,
    /// Per device, the first repetition's per-stage cycles.
    first: Vec<Option<Vec<f64>>>,
    words: f64,
    insts: f64,
    errs: Vec<f64>,
    layer_errs: Vec<f64>,
}

impl<'a> DesignMetrics<'a> {
    /// No repetitions yet.
    pub fn new(
        name: &'a str,
        net: &'a Network,
        devices: &'a [Device],
        table: bool,
        trace: bool,
    ) -> DesignMetrics<'a> {
        DesignMetrics {
            name,
            net,
            devices,
            table,
            trace,
            times: vec![Vec::new(); devices.len()],
            first: vec![None; devices.len()],
            words: 0.0,
            insts: 0.0,
            errs: Vec::new(),
            layer_errs: Vec::new(),
        }
    }

    /// Runs `reps` repetitions on every device.
    ///
    /// # Errors
    /// Failures of the flow itself.
    pub fn run_all(&mut self, reps: usize, report: &mut Report) -> Result<(), String> {
        for _ in 0..reps {
            for dev in 0..self.devices.len() {
                self.run(dev, report)?;
            }
        }
        Ok(())
    }

    /// Runs repetitions on every device until `budget` has passed (at
    /// least one), and keeps each device's mean step times over them as
    /// one sample: memory stays flat however many repetitions fit.
    ///
    /// # Errors
    /// Failures of the flow itself.
    pub fn run_for(&mut self, budget: Duration, report: &mut Report) -> Result<(), String> {
        let start = Instant::now();
        let mut sums = vec![[0.0; 4]; self.devices.len()];
        let mut reps = 0.0;
        loop {
            for (dev, sum) in sums.iter_mut().enumerate() {
                for (s, t) in sum.iter_mut().zip(self.rep(dev, report)?) {
                    *s += t;
                }
            }
            reps += 1.0;
            if start.elapsed() >= budget {
                break;
            }
        }
        for (times, sum) in self.times.iter_mut().zip(sums) {
            times.push(sum.map(|s| s / reps));
        }
        Ok(())
    }

    /// Runs one repetition on device `dev`.
    ///
    /// # Errors
    /// Failures of the flow itself.
    pub fn run(&mut self, dev: usize, report: &mut Report) -> Result<(), String> {
        let times = self.rep(dev, report)?;
        self.times[dev].push(times);
        Ok(())
    }

    /// One repetition on device `dev`: checks it and returns its
    /// explore, compile, session and first-run milliseconds.
    fn rep(&mut self, dev: usize, report: &mut Report) -> Result<[f64; 4], String> {
        let (name, device) = (self.name, &self.devices[dev]);
        let d = run_design(self.net, device, QuantSpec::float32())?;
        report.attempted += 1;
        let times = [d.explore_ms, d.compile_ms, d.session_new_ms, d.first_run_ms];
        match &self.first[dev] {
            Some(stages) if *stages != d.stage_cycles => report.mismatch(format!(
                "{name} on {}: simulated cycles changed between repetitions",
                device.name
            )),
            Some(_) => {}
            None => {
                self.words += d.dram_words as f64;
                self.insts += d.instructions as f64;
                self.errs.push(d.accuracy.total_error_pct());
                self.layer_errs.push(d.accuracy.max_error_pct());
                report.note(format!(
                    "{name} on {}: {} GOPS simulated, {} cycles, estimator error {:.2}% \
                     (worst layer {:.2}%), {} instructions, {} DRAM words",
                    device.name,
                    d.gops,
                    d.total_cycles,
                    d.accuracy.total_error_pct(),
                    d.accuracy.max_error_pct(),
                    d.instructions,
                    d.dram_words
                ));
                if !self.trace {
                    report.set(&format!("sim_gops_{}", device.name), d.gops);
                }
                if self.trace && self.table && dev == 0 {
                    for (layer, cycles) in d.accuracy.per_layer.iter().zip(&d.stage_cycles) {
                        let key = format!("layer.{name}.{}", layer.name);
                        report.set(&format!("{key}.sim_cycles"), *cycles);
                        report.set(&format!("{key}.est_cycles"), layer.estimated);
                    }
                }
                self.first[dev] = Some(d.stage_cycles);
            }
        }
        Ok(times)
    }

    /// Sets the metrics.
    ///
    /// # Errors
    /// A device that never ran (a benchmark bug).
    pub fn finish(self, report: &mut Report) -> Result<(), String> {
        if self.times.iter().any(Vec::is_empty) {
            return Err(format!("{}: a device never ran Steps 2-4", self.name));
        }
        let worst = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let col = |step: usize| -> f64 {
            self.times
                .iter()
                .map(|reps| {
                    let t: Vec<f64> = reps.iter().map(|r| r[step]).collect();
                    median_of_groups(&t, GROUPS, mean).unwrap_or(0.0)
                })
                .sum()
        };
        let flow_s = (0..4).map(col).sum::<f64>() / 1e3;
        if self.trace {
            report.set("dse.explore_ms", col(0));
            report.set("compiler.compile_ms", col(1));
            report.set("sim.session_new_ms", col(2));
            report.set("sim.first_run_ms", col(3));
            report.set("compiler.dram_words", self.words);
            report.set("compiler.instructions", self.insts);
            report.set("estimator.layer_err_pct_max", worst(&self.layer_errs));
        } else {
            report.set("flow_s", flow_s);
            report.set("estimator_err_pct", worst(&self.errs));
        }
        report.note(format!(
            "{} Steps 2-4: {:?} sample(s) per device, {flow_s:.6} s summed over devices",
            self.name,
            self.times.iter().map(Vec::len).collect::<Vec<_>>(),
        ));
        Ok(())
    }
}
