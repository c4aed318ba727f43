//! The serving workloads: a model loaded over the wire into a `Server`
//! (optionally behind a cluster `Router`), driven by closed-loop,
//! open-loop and max-rate phases, and peeled level by level in the
//! traced run.

use crate::design::{DesignMetrics, Device};
use crate::load::{closed_loop, open_loop, Oracle, Sink};
use crate::peel::{self_times, Tracer};
use crate::phases::{
    account, lag_p99, latency, serving_metrics, trace_overhead, Budget, Load, Tags,
};
use crate::report::Report;
use crate::sinks::{encode_requests, RegistrySink, ServiceSink, SimSink, TcpSink};
use crate::stats::median;
use hybriddnn_cluster::{Router, RouterConfig};
use hybriddnn_compiler::{Compiler, MappingStrategy};
use hybriddnn_dse::DseEngine;
use hybriddnn_fpga::FpgaSpec;
use hybriddnn_model::{synth, Network, Tensor};
use hybriddnn_runtime::{InferenceService, ServiceConfig};
use hybriddnn_server::protocol::{
    Body, Frame, ModelState, OutputBody, StreamDecoder, TimingBody, MAX_PAYLOAD,
};
use hybriddnn_server::registry::BuiltModel;
use hybriddnn_server::{build_model, zoo_resolver, Client, LoadRequest, Registry, ResolvedModel};
use hybriddnn_server::{Server, ServerConfig};
use hybriddnn_sim::{RunResult, SimMode, Simulator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serving workload, frozen in the benchmark.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Zoo model served.
    pub model: &'static str,
    /// Builtin device it is built for.
    pub device: &'static str,
    /// Functional `INFER` (real tensors) or `INFER_TIMING`.
    pub functional: bool,
    /// Requests pass through a cluster router in front of the server.
    pub via_router: bool,
    /// Worker replicas of the model's service.
    pub workers: u32,
    /// Server reactor threads.
    pub io_threads: usize,
    /// The load shape.
    pub load: Load,
}

/// `tiny-cnn` on vu9p, timing-only, through the router: the simulated
/// work is under 1% of a request, so every serving layer shows in full.
/// One reactor and one worker keep the stack from oversubscribing a
/// 2-vCPU machine. On a 2-vCPU Xeon virtual machine the closed loop
/// saturates at 45-55k req/s and the limit holds to about 30k; the
/// fixed rate is a quarter of that, because at 15k the tail was set by
/// queueing behind host scheduler stalls.
pub const SERVE_TIMING: Workload = Workload {
    name: "serve_timing",
    model: "tiny-cnn",
    device: "vu9p",
    functional: false,
    via_router: true,
    workers: 1,
    io_threads: 1,
    load: Load {
        window: 32,
        rate: 8_000.0,
        limit: Duration::from_millis(1),
    },
};

/// `vgg-tiny` on pynq-z1, functional, direct to the server with 2
/// workers: simulator kernels and batched dispatch are ~95% of each
/// request. The open-loop rate is about 30% of the closed-loop
/// saturation on a 2-vCPU Xeon virtual machine (330-390 req/s).
pub const SERVE_FUNCTIONAL: Workload = Workload {
    name: "serve_functional",
    model: "vgg-tiny",
    device: "pynq-z1",
    functional: true,
    via_router: false,
    workers: 2,
    io_threads: 2,
    load: Load {
        window: 16,
        rate: 100.0,
        limit: Duration::from_millis(50),
    },
};

/// Setup rounds whose median is `setup_s`.
const SETUP_ROUNDS: usize = 5;
/// Steps 2–4 repetitions per device in a traced run (milliseconds each
/// for the small served models).
const DESIGN_REPS: usize = 200;
/// Rounds of the measured phases in an untraced run.
const ROUNDS: usize = 10;
/// Inputs in the request pool.
const N_INPUTS: usize = 64;
/// Tolerance of the per-DNN-layer self-check (sum of one-layer host
/// times against the whole network's).
const LAYER_SUM_TOLERANCE_PCT: f64 = 25.0;

/// Client connections of the load generator (the host has 2 vCPUs).
const CONNS: usize = 2;

/// The model name the benchmark loads under.
const MODEL_NAME: &str = "bench";

struct Stack {
    server: Server,
    registry: Arc<Registry>,
    router: Option<Router>,
    server_addr: String,
    front_addr: String,
    server_model: u32,
    front_model: u32,
}

impl Stack {
    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        self.server.shutdown();
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Starts the server, loads the model over the wire, starts the router
/// (with its default configuration) in front of it and waits for the
/// router to route the model, and gets the first response through the
/// front. Returns the stack and the seconds from LOAD_MODEL to that
/// first response. The router starts after the load: a running router
/// would see the model only at its next gauge refresh (every 100 ms by
/// default), a wait set by the refresh phase rather than by the code,
/// while a starting router asks each backend for its models at once.
fn start_stack(w: &Workload, seed: u64, first: &Tensor) -> Result<(Stack, f64), String> {
    let registry = Arc::new(Registry::new(zoo_resolver()));
    let config = ServerConfig {
        io_threads: w.io_threads,
        ..ServerConfig::default()
    };
    let server =
        Server::bind(Arc::clone(&registry), "127.0.0.1:0", config).map_err(err("bind server"))?;
    let server_addr = server.local_addr().to_string();
    let mut control = Client::connect(&server_addr).map_err(err("connect"))?;

    let t0 = Instant::now();
    let mut req = LoadRequest::new(MODEL_NAME, w.model, w.device);
    req.seed = seed;
    req.workers = w.workers;
    req.functional = w.functional;
    let server_model = control.load_model(req).map_err(err("LOAD_MODEL"))?;
    let router = if w.via_router {
        let config = RouterConfig::new(vec![server_addr.clone()]);
        Some(Router::bind("127.0.0.1:0", config).map_err(err("bind router"))?)
    } else {
        None
    };
    let front_addr = router
        .as_ref()
        .map_or(server_addr.clone(), |r| r.local_addr().to_string());
    let mut front = Client::connect(&front_addr).map_err(err("connect"))?;
    let front_model = if w.via_router {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let models = front.list_models().map_err(err("LIST_MODELS"))?;
            if let Some(m) = models
                .iter()
                .find(|m| m.name == MODEL_NAME && m.state == ModelState::Ready)
            {
                break m.model_id;
            }
            if Instant::now() > deadline {
                return Err("the router never saw the model Ready".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    } else {
        server_model
    };
    if w.functional {
        front
            .infer(front_model, first.clone(), 0)
            .map_err(err("first INFER"))?;
    } else {
        front
            .infer_timing(front_model, first.clone(), 0)
            .map_err(err("first INFER_TIMING"))?;
    }
    let setup = t0.elapsed().as_secs_f64();
    Ok((
        Stack {
            server,
            registry,
            router,
            server_addr,
            front_addr,
            server_model,
            front_model,
        },
        setup,
    ))
}

fn mode(w: &Workload) -> SimMode {
    if w.functional {
        SimMode::Functional
    } else {
        SimMode::TimingOnly
    }
}

/// The local oracle: the same artifacts the server builds, simulated
/// directly.
fn oracle(w: &Workload, built: &BuiltModel, inputs: &[Tensor], report: &mut Report) -> Oracle {
    let zero = Tensor::zeros(built.compiled.input_shape());
    let mut timing = Simulator::new(&built.compiled, SimMode::TimingOnly, built.bandwidth);
    let cycles = timing
        .run(&built.compiled, &zero)
        .map(|r| r.total_cycles)
        .unwrap_or(f64::NAN);
    let outputs = w.functional.then(|| {
        let mut sim = Simulator::new(&built.compiled, SimMode::Functional, built.bandwidth);
        inputs
            .iter()
            .map(|input| match sim.run(&built.compiled, input) {
                Ok(run) => {
                    if run.total_cycles.to_bits() != cycles.to_bits() {
                        report.mismatch(format!(
                            "oracle: functional run took {} cycles, timing-only {cycles}",
                            run.total_cycles
                        ));
                    }
                    run.output.as_slice().iter().map(|v| v.to_bits()).collect()
                }
                Err(e) => {
                    report.mismatch(format!("oracle run failed: {e}"));
                    Vec::new()
                }
            })
            .collect()
    });
    Oracle { cycles, outputs }
}

/// Runs a serving workload for about `seconds`.
///
/// # Errors
/// Failures to build, bind, load, or drive the stack.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let resolved: ResolvedModel = (zoo_resolver())(w.model, w.device, seed)?;
    let devices = [
        Device::vu9p(FpgaSpec::vu9p()),
        Device::pynq(FpgaSpec::pynq_z1()),
    ];
    let mut design = DesignMetrics::new(w.model, &resolved.net, &devices, false, trace);
    if trace {
        design.run_all(DESIGN_REPS, report)?;
    }
    let built = build_model(&resolved)?;
    let inputs: Arc<Vec<Tensor>> = Arc::new(
        (0..N_INPUTS)
            .map(|i| synth::tensor(resolved.net.input_shape(), seed ^ (0xBEEF + i as u64)))
            .collect(),
    );
    let oracle = oracle(w, &built, &inputs, report);

    let mut setups = Vec::new();
    let mut stack = None;
    for round in 0..SETUP_ROUNDS {
        if trace && round > 0 {
            break;
        }
        if let Some(s) = stack.take() {
            Stack::shutdown(s);
        }
        let (s, setup) = start_stack(w, seed, &inputs[0])?;
        report.attempted += 1;
        setups.push(setup);
        stack = Some(s);
    }
    let stack = stack.expect("a setup round ran");
    let result = if trace {
        trace_run(
            w, &stack, &built, &resolved, &inputs, &oracle, seconds, report,
        )
    } else {
        report.set("setup_s", median(&setups).expect("setup rounds ran"));
        untraced(w, &stack, &inputs, &oracle, seconds, &mut design, report)
    };
    stack.shutdown();
    result?;
    design.finish(report)
}

fn front_sink(
    w: &Workload,
    stack: &Stack,
    inputs: &[Tensor],
    epoch: Instant,
) -> Result<TcpSink, String> {
    TcpSink::connect(
        &stack.front_addr,
        CONNS,
        encode_requests(inputs, stack.front_model, w.functional),
        Tracer::new(false, epoch),
    )
}

fn untraced(
    w: &Workload,
    stack: &Stack,
    inputs: &[Tensor],
    oracle: &Oracle,
    seconds: f64,
    design: &mut DesignMetrics,
    report: &mut Report,
) -> Result<(), String> {
    let mut sink = front_sink(w, stack, inputs, Instant::now())?;
    let mut tags = Tags::default();
    let warm = closed_loop(
        &mut sink,
        oracle,
        N_INPUTS,
        w.load.window,
        Duration::from_secs_f64(seconds * 0.03),
        tags.next(),
    )?;
    account(report, &warm);
    let budget = Budget {
        rounds: ROUNDS,
        closed: Duration::from_secs_f64(seconds * 0.025),
        open: Duration::from_secs_f64(seconds * 0.035),
        probe: Duration::from_secs_f64(seconds * 0.035),
    };
    // The model's own Steps 2-4 share the rounds. Each round repeats
    // them for a fixed time, so the first, cache-cold repetitions after
    // a serving part weigh little.
    let design_time = Duration::from_secs_f64(seconds * 0.005);
    let mut design_reps = |report: &mut Report| design.run_for(design_time, report);
    let rss = serving_metrics(
        &mut sink,
        oracle,
        N_INPUTS,
        &w.load,
        &budget,
        &mut design_reps,
        &mut tags,
        report,
    )?;
    report.set("peak_rss_mb", median(&rss).expect("closed-loop parts ran"));
    Ok(())
}

/// Median nanoseconds per call of `f`, over batches of `reps` calls.
fn ns_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&batches).expect("batches ran")
}

/// `Frame::encode` of this workload's response frame and
/// `StreamDecoder::next_frame` of its request frame, as the server runs
/// them.
fn codec_costs(w: &Workload, inputs: &[Tensor], oracle: &Oracle, report: &mut Report) {
    let out_shape_len = oracle.outputs.as_ref().map_or(0, |o| o[0].len());
    let body = if w.functional {
        Body::Output(OutputBody {
            tensor: Tensor::from_vec(
                hybriddnn_model::Shape::new(out_shape_len, 1, 1),
                vec![0.5; out_shape_len],
            )
            .expect("shape matches data"),
            total_cycles: oracle.cycles,
            latency_nanos: 1,
            batch_size: 1,
            worker: 0,
            degraded: false,
        })
    } else {
        Body::Timing(TimingBody {
            total_cycles: oracle.cycles,
            latency_nanos: 1,
            batch_size: 1,
            worker: 0,
            degraded: false,
        })
    };
    let response = Frame::new(1, body);
    let request = encode_requests(&inputs[..1], 1, w.functional).remove(0);
    let mut decoder = StreamDecoder::new(MAX_PAYLOAD);
    report.set(
        "server.encode_ns",
        ns_per_call(200, || {
            std::hint::black_box(std::hint::black_box(&response).encode());
        }),
    );
    report.set(
        "server.decode_ns",
        ns_per_call(200, || {
            decoder.extend(std::hint::black_box(&request));
            std::hint::black_box(decoder.next_frame().expect("well-formed frame"));
        }),
    );
}

/// Level names, outermost first, and the self-time metric each maps to.
const LEVELS: &[(&str, &str)] = &[
    ("tcp_router", "cluster.router_us"),
    ("tcp_direct", "server.tcp_us"),
    ("registry", "server.registry_us"),
    ("service", "runtime.overhead_us"),
    ("sim", "sim.self_us"),
];

#[allow(clippy::too_many_arguments)]
fn trace_run(
    w: &Workload,
    stack: &Stack,
    built: &BuiltModel,
    resolved: &ResolvedModel,
    inputs: &Arc<Vec<Tensor>>,
    oracle: &Oracle,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let epoch = Instant::now();
    let mut tags = Tags::default();
    codec_costs(w, inputs, oracle, report);

    // The levels, outermost first, each fed the same request stream.
    let mut levels: Vec<(&str, &str, Box<dyn Sink>)> = Vec::new();
    let tracer = || Tracer::new(true, epoch);
    if w.via_router {
        levels.push((
            LEVELS[0].0,
            LEVELS[0].1,
            Box::new(front_sink(w, stack, inputs, epoch)?),
        ));
    }
    levels.push((
        LEVELS[1].0,
        LEVELS[1].1,
        Box::new(TcpSink::connect(
            &stack.server_addr,
            CONNS,
            encode_requests(inputs, stack.server_model, w.functional),
            tracer(),
        )?),
    ));
    levels.push((
        LEVELS[2].0,
        LEVELS[2].1,
        Box::new(RegistrySink::new(
            Arc::clone(&stack.registry),
            stack.server_model,
            Arc::clone(inputs),
            w.functional,
            tracer(),
        )),
    ));
    // The same service configuration the registry starts on LOAD_MODEL.
    let config = ServiceConfig::new(mode(w), built.bandwidth)
        .with_workers(w.workers as usize)
        .with_cost_hint(built.predicted_cycles);
    let service = InferenceService::try_start(Arc::clone(&built.compiled), config)
        .map_err(err("start service"))?;
    levels.push((
        LEVELS[3].0,
        LEVELS[3].1,
        Box::new(ServiceSink::new(
            service,
            Arc::clone(inputs),
            w.functional,
            tracer(),
        )),
    ));
    let sim = Simulator::new(&built.compiled, mode(w), built.bandwidth);
    levels.push((
        LEVELS[4].0,
        LEVELS[4].1,
        Box::new(SimSink::new(
            sim,
            Arc::clone(&built.compiled),
            Arc::clone(inputs),
            w.functional,
            tracer(),
        )),
    ));
    for (name, _, sink) in &mut levels {
        sink.tracer().set_level(name);
        sink.tracer().set_enabled(false);
    }

    let n_phases = 2 * levels.len() + 4;
    let d = Duration::from_secs_f64(seconds * 0.8 / n_phases as f64);
    for (window, suffix) in [(1usize, ""), (w.load.window, "_loaded")] {
        let mut medians = Vec::new();
        for (i, (name, _, sink)) in levels.iter_mut().enumerate() {
            let before = stack.registry.stats();
            sink.tracer().set_enabled(true);
            let phase = closed_loop(sink.as_mut(), oracle, N_INPUTS, window, d, tags.next())?;
            sink.tracer().set_enabled(false);
            if i == 0 && window > 1 {
                // The runtime's own counters over the outermost level at
                // the workload's window.
                let after = stack.registry.stats();
                let batches = (after.batches - before.batches).max(1) as f64;
                report.set(
                    "runtime.mean_batch_size",
                    (after.completed - before.completed) as f64 / batches,
                );
                report.set(
                    "runtime.batched_dispatches",
                    (after.batched_dispatches - before.batched_dispatches) as f64,
                );
                report.set(
                    "runtime.rejected",
                    (after.rejected + after.rejected_overload
                        - before.rejected
                        - before.rejected_overload) as f64,
                );
                report.set("runtime.retries", (after.retries - before.retries) as f64);
            }
            account(report, &phase);
            let m = latency(&phase, 0.5).0;
            report.note(format!(
                "peel window {window}: {name} median {m:.2} us over {} requests",
                phase.ok
            ));
            medians.push(m);
        }
        for ((_, metric, _), own) in levels.iter().zip(self_times(&medians)) {
            report.set(&format!("{metric}{suffix}"), own);
        }
        if window == 1 {
            report.set("sim.run_us_b1", *medians.last().expect("sim level"));
        }
    }
    let (_, _, sim) = levels.last_mut().expect("sim level");
    let b8 = closed_loop(sim.as_mut(), oracle, N_INPUTS, 8, d, tags.next())?;
    account(report, &b8);
    report.set("sim.run_us_b8", latency(&b8, 0.5).0 / 8.0);

    // Tracing overhead: the outermost level unloaded.
    let (_, _, top) = &mut levels[0];
    let (_, overhead) = trace_overhead(top.as_mut(), oracle, N_INPUTS, d / 6, &mut tags, report)?;
    report.set("bench.trace_overhead_pct", overhead);

    let open = open_loop(
        top.as_mut(),
        oracle,
        N_INPUTS,
        w.load.rate,
        d,
        w.load.limit,
        w.load.window as u64,
        false,
        tags.next(),
    )?;
    account(report, &open);
    report.set("bench.gen_lag_p99_us", lag_p99(&open));

    if w.functional {
        layer_table(resolved, built, inputs, seconds, report)?;
    }
    let tracers: Vec<&Tracer> = levels.iter_mut().map(|(_, _, s)| &*s.tracer()).collect();
    crate::peel::write_spans(&tracers, w.name)
}

/// Fig. 6 carried to the host: each vgg-tiny stage compiled as a
/// one-layer network from its input shape and timed through
/// `Simulator::run_into`, beside its simulated and estimated cycles.
/// The whole network (`run_batch_into`, one element) is timed in the
/// same rounds, interleaved with the stages, so the self-check compares
/// figures taken under the same host conditions; that measurement is
/// also `sim.run_us_b1`.
fn layer_table(
    resolved: &ResolvedModel,
    built: &BuiltModel,
    inputs: &[Tensor],
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    struct Stage {
        name: String,
        compiled: hybriddnn_compiler::CompiledNetwork,
        sim: Simulator,
        input: Tensor,
        samples: Vec<f64>,
    }
    let net = &resolved.net;
    let dse = DseEngine::new(resolved.device.clone(), resolved.profile)
        .explore(net)
        .map_err(|e| e.to_string())?;
    let choices = dse.strategy_choices();
    let mut stages = Vec::new();
    let mut i = 0;
    while i < net.layers().len() {
        if !net.layers()[i].is_compute() {
            i += 1;
            continue;
        }
        let stage = stages.len();
        let mut layers = vec![net.layers()[i].clone()];
        if built.compiled.layers()[stage].plan().pool >= 2 {
            layers.push(net.layers()[i + 1].clone());
        }
        let fused = layers.len();
        let mut one = Network::new(net.layer_input_shape(i), layers).map_err(|e| e.to_string())?;
        let binding = net.binding(i).ok_or("unbound layer")?;
        one.bind(0, binding.weights.clone(), binding.bias.clone())
            .map_err(|e| e.to_string())?;
        let compiled = Compiler::new(dse.design.accel)
            .compile(&one, &MappingStrategy::new(vec![choices[stage]]))
            .map_err(|e| e.to_string())?;
        stages.push(Stage {
            name: net.layers()[i].name().to_string(),
            sim: Simulator::new(&compiled, SimMode::Functional, built.bandwidth),
            input: synth::tensor(one.input_shape(), 0x5EED + stage as u64),
            compiled,
            samples: Vec::new(),
        });
        i += fused;
    }

    let mut full = Simulator::new(&built.compiled, SimMode::Functional, built.bandwidth);
    let run = full
        .run(&built.compiled, &inputs[0])
        .map_err(|e| e.to_string())?;
    let mut outs = Vec::new();
    let mut out = RunResult::empty();
    let mut whole = Vec::new();
    let budget = Duration::from_secs_f64(seconds * 0.1);
    let start = Instant::now();
    // Round 0 warms every session; it is not kept.
    for round in 0.. {
        if round > 5 && start.elapsed() > budget {
            break;
        }
        let t = Instant::now();
        for status in full.run_batch_into(&built.compiled, &inputs[..1], &mut outs) {
            status.map_err(|e| e.to_string())?;
        }
        let whole_us = t.elapsed().as_secs_f64() * 1e6;
        for st in &mut stages {
            let t = Instant::now();
            st.sim
                .run_into(&st.compiled, &st.input, &mut out)
                .map_err(|e| e.to_string())?;
            if round > 0 {
                st.samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        if round > 0 {
            whole.push(whole_us);
        }
    }
    let mut sum_us = 0.0;
    for (k, st) in stages.iter().enumerate() {
        let host_us = median(&st.samples).expect("rounds ran");
        sum_us += host_us;
        let key = format!("layer.vgg_tiny.{}", st.name);
        report.set(&format!("{key}.host_us"), host_us);
        report.set(&format!("{key}.sim_cycles"), run.stage_stats[k].cycles);
        report.set(
            &format!("{key}.est_cycles"),
            dse.per_layer[k].estimate.cycles,
        );
    }
    let whole = median(&whole).expect("rounds ran");
    report.set("sim.run_us_b1", whole);
    let residual = (sum_us - whole) / whole * 100.0;
    report.set("layer.vgg_tiny.sum_residual_pct", residual);
    let check = format!(
        "per-layer self-check: sum of stage host times {sum_us:.1} us vs whole network \
         {whole:.1} us, residual {residual:+.1}% (tolerance +/-{LAYER_SUM_TOLERANCE_PCT}%)"
    );
    if residual.abs() <= LAYER_SUM_TOLERANCE_PCT {
        report.note(format!("{check}: pass"));
    } else {
        report.invalid(check);
    }
    Ok(())
}
