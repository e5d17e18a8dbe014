//! The four workloads and the measured run over them.

use crate::engine::{CycleStats, Engine};
use crate::inputs::Inputs;
use crate::probes;
use crate::report::{Checks, Metric, Ops};
use crate::stats::{self, digest, fnv_bytes, median, FNV_OFFSET};
use crate::trace::Tracer;
use aggregate_core::{ProtocolConfig, SamplerConfig};
use gossip_faults::FaultPlan;
use gossip_net::VirtualCluster;
use gossip_sim::{ShardedConfig, ShardedSimulation, SimulationConfig};
use gossip_telemetry::trace::to_json_line;
use gossip_telemetry::{Event, TelemetryConfig};
use std::time::Instant;

/// Shards of every sharded workload.
pub const SHARDS: usize = 8;
/// Cycles per epoch of every workload.
pub const CYCLES_PER_EPOCH: usize = 30;
/// Cycles a determinism replay runs before its estimates are hashed.
pub const DIGEST_CYCLES: usize = 3;
/// `converge_s` stops the clock once the variance falls below this share
/// of the epoch's initial variance.
pub const CONVERGED_SHARE: f64 = 1e-6;
/// NEWSCAST cache size of `newscast_1w` and of the membership probe.
pub const NEWSCAST_CACHE: usize = 20;
/// Population of the wire probe on workloads that never touch the wire.
const WIRE_PROBE_NODES: usize = 1000;
/// Population of the membership probe on workloads without NEWSCAST.
const MEMBERSHIP_PROBE_NODES: usize = 20_000;
/// Population cap of the `ProtocolNode` exchange probe.
const NODE_PROBE_NODES: usize = 100_000;
/// Cycles of each worker-count probe and of the telemetry-toggle segment.
const PROBE_CYCLES: usize = 4;

/// Theoretical per-cycle variance reduction of push–pull averaging over a
/// complete graph, 1/(2√e).
pub const UNIFORM_FACTOR: f64 = 0.303_265_329_856_316_7;
/// Measured NEWSCAST c=20 factor the repository's overlay experiment pins.
pub const NEWSCAST_FACTOR: f64 = 0.3219;
/// Relative band around the factor a lossless workload must land in.
pub const FACTOR_TOLERANCE: f64 = 0.10;
/// Upper bound of the fault lab's graceful-degradation factor.
pub const FAULTED_FACTOR_BOUND: f64 = 0.55;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Uniform1w,
    Uniform2wTelemetry,
    Newscast1w,
    WireFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Uniform1w,
        Workload::Uniform2wTelemetry,
        Workload::Newscast1w,
        Workload::WireFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform1w => "uniform_1w",
            Workload::Uniform2wTelemetry => "uniform_2w_telemetry",
            Workload::Newscast1w => "newscast_1w",
            Workload::WireFaults => "wire_faults",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn nodes(self) -> usize {
        match self {
            Workload::Uniform1w => 1_000_000,
            Workload::Uniform2wTelemetry => 250_000,
            Workload::Newscast1w => 50_000,
            Workload::WireFaults => 5_000,
        }
    }

    /// Worker threads of the sharded engine (the wire cluster is
    /// single-threaded).
    pub fn workers(self) -> usize {
        match self {
            Workload::Uniform2wTelemetry => 2,
            _ => 1,
        }
    }

    pub fn sampler(self) -> SamplerConfig {
        match self {
            Workload::Newscast1w => SamplerConfig::Newscast {
                cache_size: NEWSCAST_CACHE,
            },
            _ => SamplerConfig::UniformComplete,
        }
    }

    pub fn telemetry(self) -> bool {
        self == Workload::Uniform2wTelemetry
    }

    /// The `live_udp_gossip --faults` plan on the wire workload, none
    /// elsewhere.
    pub fn fault_plan(self) -> FaultPlan {
        match self {
            Workload::WireFaults => FaultPlan {
                link_failure: 0.1,
                ..FaultPlan::with_message_loss(0.05)
            },
            _ => FaultPlan::none(),
        }
    }

    /// Constructions per run beyond the measured instances, to give
    /// `setup_s` more samples. The wire cluster's quadratic endpoint build
    /// takes seconds, so it gets none.
    pub fn extra_setups(self) -> usize {
        match self {
            Workload::WireFaults => 0,
            _ => 4,
        }
    }

    pub fn lossless(self) -> bool {
        self != Workload::WireFaults
    }

    fn simulation_config(self) -> SimulationConfig {
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(CYCLES_PER_EPOCH as u32)
            .build()
            .expect("30 cycles per epoch is a valid protocol configuration");
        SimulationConfig {
            sampler: self.sampler(),
            ..SimulationConfig::averaging(protocol)
        }
    }

    fn sharded(self, inputs: &Inputs, workers: usize) -> ShardedSimulation {
        let config = ShardedConfig {
            base: self.simulation_config(),
            shards: SHARDS,
            workers: Some(workers),
        };
        ShardedSimulation::with_faults(
            config,
            &inputs.values,
            inputs.master_seed,
            self.fault_plan(),
        )
        .expect("workload configurations are valid")
    }

    fn cluster(self, values: &[f64], master_seed: u64) -> VirtualCluster {
        VirtualCluster::with_faults(
            self.simulation_config(),
            values,
            master_seed,
            self.fault_plan(),
        )
        .expect("workload configurations are valid")
    }
}

/// Everything one run produced.
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub checks: Checks,
    pub ops: Ops,
    pub tracer: Tracer,
}

/// Byte-wise FNV of the events' JSONL lines, continued from `hash`.
fn hash_events(mut hash: u64, events: &[Event]) -> u64 {
    for event in events {
        hash = fnv_bytes(hash, to_json_line(event).as_bytes());
        hash = fnv_bytes(hash, b"\n");
    }
    hash
}

/// Runs `cycles` cycles, draining the trace after each, and returns the
/// estimate digest and the hash of the merged JSONL.
fn replay<E: Engine>(engine: &mut E, telemetry: bool, cycles: usize) -> (u64, u64) {
    if telemetry {
        engine.set_telemetry(TelemetryConfig::full());
    }
    let mut trace_hash = FNV_OFFSET;
    for _ in 0..cycles {
        engine.step();
        trace_hash = hash_events(trace_hash, &engine.drain_trace());
    }
    (digest(&engine.estimates()), trace_hash)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// One measured engine instance: construction, cycles, drop.
struct Instance {
    setup_s: f64,
    cycle_s: Vec<f64>,
    /// Whether the tracer recorded the matching cycle.
    cycle_traced: Vec<bool>,
    cycles: Vec<CycleStats>,
    drop_s: f64,
    /// Estimate digest and trace hash after [`DIGEST_CYCLES`] cycles.
    digest: u64,
    trace_hash: u64,
}

impl Instance {
    /// Construction + first epoch + drop.
    fn total_s(&self) -> f64 {
        self.setup_s + self.cycle_s[..CYCLES_PER_EPOCH].iter().sum::<f64>() + self.drop_s
    }
}

/// The measured run: [`INSTANCES`] engines one after another.
struct MainRun {
    instances: Vec<Instance>,
    /// Every construction timed, including construct-and-drop extras.
    setup_s: Vec<f64>,
    events: u64,
    dropped: u64,
    last_drained: Vec<Event>,
    /// Per-cycle seconds with telemetry toggled (traced run only).
    toggled_cycle_s: Vec<f64>,
}

impl MainRun {
    fn cycle_s(&self) -> Vec<f64> {
        self.instances
            .iter()
            .flat_map(|i| i.cycle_s.iter().copied())
            .collect()
    }

    fn cycles(&self) -> impl Iterator<Item = &CycleStats> {
        self.instances.iter().flat_map(|i| i.cycles.iter())
    }

    fn first(&self) -> &Instance {
        &self.instances[0]
    }

    /// Dropped ÷ recorded flight-recorder events.
    fn drop_ratio(&self) -> f64 {
        self.dropped as f64 / (self.events + self.dropped).max(1) as f64
    }
}

/// Engines built and run per measured run. Splitting the run over fresh
/// instances spreads it over several allocations and periods of host load,
/// and gives `total_s` and the determinism check several samples.
pub const INSTANCES: usize = 3;

/// Builds [`INSTANCES`] engines one after another. Each runs for
/// `seconds / INSTANCES` and at least one epoch, draining its trace after
/// every cycle, and is dropped before the next is built. `extra_setups`
/// more engines are only built and dropped, to give `setup_s` more samples.
/// Every instance must reach the same digests.
fn measure<E: Engine>(
    build: &dyn Fn() -> E,
    extra_setups: usize,
    telemetry: bool,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> MainRun {
    let traced = tracer.is_enabled();
    let mut run = MainRun {
        instances: Vec::new(),
        setup_s: Vec::new(),
        events: 0,
        dropped: 0,
        last_drained: Vec::new(),
        toggled_cycle_s: Vec::new(),
    };
    for _ in 0..extra_setups {
        let (engine, secs) = timed(|| tracer.span(E::NEW_SPAN, |_| build()));
        run.setup_s.push(secs);
        tracer.span(E::DROP_SPAN, |_| drop(engine));
    }
    for index in 0..INSTANCES {
        let (mut engine, setup_s) = timed(|| tracer.span(E::NEW_SPAN, |_| build()));
        run.setup_s.push(setup_s);
        if telemetry {
            engine.set_telemetry(TelemetryConfig::full());
        }
        let mut inst = Instance {
            setup_s,
            cycle_s: Vec::new(),
            cycle_traced: Vec::new(),
            cycles: Vec::new(),
            drop_s: 0.0,
            digest: 0,
            trace_hash: FNV_OFFSET,
        };
        let start = Instant::now();
        let budget = seconds / INSTANCES as f64;
        while inst.cycle_s.len() < CYCLES_PER_EPOCH || start.elapsed().as_secs_f64() < budget {
            // Trace every other cycle so the traced run measures its own cost.
            let trace_this = traced && inst.cycle_s.len().is_multiple_of(2);
            tracer.set_enabled(trace_this);
            let ((stats, drained), secs) = timed(|| {
                tracer.span("bench.cycle", |t| {
                    let stats = t.span(E::RUN_CYCLE_SPAN, |_| engine.step());
                    let drained = t.span("telemetry.drain", |_| engine.drain_trace());
                    (stats, drained)
                })
            });
            tracer.set_enabled(traced);
            inst.cycle_s.push(secs);
            inst.cycle_traced.push(trace_this);
            inst.cycles.push(stats);
            run.events += drained.len() as u64;
            if inst.cycle_s.len() <= DIGEST_CYCLES {
                inst.trace_hash = hash_events(inst.trace_hash, &drained);
            }
            if inst.cycle_s.len() == DIGEST_CYCLES {
                inst.digest = digest(&engine.estimates());
            }
            if !drained.is_empty() {
                run.last_drained = drained;
            }
        }
        run.dropped += engine.dropped_trace_events();

        if traced && index + 1 == INSTANCES {
            // Telemetry on ÷ off on the same engine: flip it for a few cycles.
            engine.set_telemetry(if telemetry {
                TelemetryConfig::disabled()
            } else {
                TelemetryConfig::full()
            });
            for _ in 0..PROBE_CYCLES {
                let (_, secs) = timed(|| {
                    tracer.span("bench.toggled_cycle", |_| {
                        engine.step();
                        engine.drain_trace()
                    })
                });
                run.toggled_cycle_s.push(secs);
            }
        }
        let ((), drop_s) = timed(|| tracer.span(E::DROP_SPAN, |_| drop(engine)));
        inst.drop_s = drop_s;
        run.instances.push(inst);
    }

    let first = run.first();
    let digests: Vec<(u64, u64)> = run
        .instances
        .iter()
        .map(|i| (i.digest, i.trace_hash))
        .collect();
    checks.check(
        "determinism.repeat",
        digests
            .iter()
            .all(|&d| d == (first.digest, first.trace_hash)),
        format!(
            "(estimate digest, trace hash) per instance after {DIGEST_CYCLES} cycles: {digests:x?}"
        ),
    );
    run
}

/// Seconds from the first cycle of each epoch until the variance first
/// falls below [`CONVERGED_SHARE`] of `initial_variance`, for every epoch
/// of the run that got there.
fn convergence_times(cycles: &[CycleStats], cycle_s: &[f64], initial_variance: f64) -> Vec<f64> {
    let threshold = CONVERGED_SHARE * initial_variance;
    cycles
        .chunks(CYCLES_PER_EPOCH)
        .zip(cycle_s.chunks(CYCLES_PER_EPOCH))
        .filter_map(|(stats, secs)| {
            // The epoch's last cycle reports the restarted state.
            let exchanging = &stats[..stats.len().min(CYCLES_PER_EPOCH - 1)];
            let hit = exchanging.iter().position(|s| s.variance < threshold)?;
            Some(secs[..=hit].iter().sum())
        })
        .collect()
}

/// Geometric-mean per-cycle variance reduction over the first epoch's
/// exchanging cycles.
fn variance_factor(cycles: &[CycleStats], initial_variance: f64) -> f64 {
    let last = CYCLES_PER_EPOCH - 2;
    (cycles[last].variance / initial_variance).powf(1.0 / (last + 1) as f64)
}

/// Mean over cycles of the busiest shard's exchanges ÷ the mean shard's.
fn shard_imbalance<'a>(cycles: impl IntoIterator<Item = &'a CycleStats>) -> f64 {
    let ratios: Vec<f64> = cycles
        .into_iter()
        .filter(|c| !c.shard_exchanges.is_empty() && c.exchanges > 0)
        .map(|c| {
            let max = *c.shard_exchanges.iter().max().unwrap_or(&0) as f64;
            max / (c.exchanges as f64 / c.shard_exchanges.len() as f64)
        })
        .collect();
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Median seconds per cycle of a fresh sharded engine at `workers`,
/// skipping the first cycle. Also returns its cycle stats.
fn sharded_probe(
    w: Workload,
    inputs: &Inputs,
    workers: usize,
    names: (&'static str, &'static str),
    tracer: &mut Tracer,
) -> (f64, Vec<CycleStats>) {
    let mut engine = tracer.span(names.0, |_| w.sharded(inputs, workers));
    let mut secs = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..PROBE_CYCLES {
        let (s, t) = timed(|| tracer.span(names.1, |_| engine.step()));
        secs.push(t);
        stats.push(s);
    }
    (median(&secs[1..]).unwrap_or(0.0), stats)
}

fn ms(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_ns(name)).unwrap_or(0.0) / 1e6
}

/// Runs one workload: the measured run, the correctness and determinism
/// checks, and with `trace` the per-layer probes.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let inputs = Inputs::generate(seed, w.nodes());
    let mut tracer = Tracer::new(trace);
    let mut checks = Checks::default();
    let telemetry = w.telemetry();
    // The endpoint-build probe runs first, while the heap holds no freed
    // engine memory it could reuse, so its resident-set growth is its own.
    let create_nodes = if w == Workload::WireFaults {
        w.nodes()
    } else {
        w.nodes().min(WIRE_PROBE_NODES)
    };
    let memory_create = trace.then(|| probes::memory_create(&mut tracer, create_nodes));

    let main = match w {
        Workload::WireFaults => measure(
            &|| w.cluster(&inputs.values, inputs.master_seed),
            w.extra_setups(),
            telemetry,
            seconds,
            &mut tracer,
            &mut checks,
        ),
        _ => measure(
            &|| w.sharded(&inputs, w.workers()),
            w.extra_setups(),
            telemetry,
            seconds,
            &mut tracer,
            &mut checks,
        ),
    };
    let first = main.first();

    if w == Workload::Uniform2wTelemetry {
        // The same input at 1 worker and with telemetry off must reach the
        // same estimates, and the traced 1-worker run the same JSONL.
        for (workers, tel) in [(1, true), (2, false), (1, false)] {
            let mut engine = w.sharded(&inputs, workers);
            let (d, h) = replay(&mut engine, tel, DIGEST_CYCLES);
            let detail = format!("digest {d:#018x} vs {:#018x}", first.digest);
            checks.check(
                format!(
                    "determinism.workers{workers}_telemetry_{}",
                    if tel { "on" } else { "off" }
                ),
                d == first.digest,
                detail,
            );
            if tel {
                checks.check(
                    "determinism.jsonl_workers1_vs_2",
                    h == first.trace_hash,
                    format!("merged JSONL hash {h:#018x} vs {:#018x}", first.trace_hash),
                );
            }
        }
    }

    // Correctness of the measured run.
    let epochs: Vec<_> = main
        .cycles()
        .filter_map(|c| c.epoch.map(|e| (e, c.live)))
        .collect();
    checks.check(
        "epoch.completed",
        !epochs.is_empty(),
        format!("{} epochs completed", epochs.len()),
    );
    let all_report = epochs.iter().all(|(e, live)| e.reports == *live as u64);
    checks.check(
        "epoch.every_live_node_reports",
        all_report,
        format!(
            "{} epochs, reports per epoch {}..={}",
            epochs.len(),
            epochs.iter().map(|(e, _)| e.reports).min().unwrap_or(0),
            epochs.iter().map(|(e, _)| e.reports).max().unwrap_or(0)
        ),
    );
    if w.lossless() {
        let worst = epochs
            .iter()
            .map(|(e, _)| ((e.mean - inputs.true_mean) / inputs.true_mean).abs())
            .fold(0.0, f64::max);
        checks.check(
            "epoch.mean_exact",
            worst <= 1e-9,
            format!(
                "worst relative error {worst:.3e} (limit 1e-9), true mean {}",
                inputs.true_mean
            ),
        );
    }
    let factor = variance_factor(&first.cycles, inputs.initial_variance);
    let (factor_ok, factor_rule) = match w {
        Workload::WireFaults => (
            factor < FAULTED_FACTOR_BOUND,
            format!("< {FAULTED_FACTOR_BOUND}"),
        ),
        Workload::Newscast1w => (
            (factor / NEWSCAST_FACTOR - 1.0).abs() <= FACTOR_TOLERANCE,
            format!("within 10% of {NEWSCAST_FACTOR}"),
        ),
        _ => (
            (factor / UNIFORM_FACTOR - 1.0).abs() <= FACTOR_TOLERANCE,
            format!("within 10% of {UNIFORM_FACTOR:.4}"),
        ),
    };
    checks.check(
        "variance_factor",
        factor_ok,
        format!("{factor:.4} {factor_rule}"),
    );
    let converge: Vec<f64> = main
        .instances
        .iter()
        .flat_map(|i| convergence_times(&i.cycles, &i.cycle_s, inputs.initial_variance))
        .collect();
    let full_epochs: usize = main
        .instances
        .iter()
        .map(|i| i.cycles.len() / CYCLES_PER_EPOCH)
        .sum();
    checks.check(
        "epoch.converged",
        converge.len() >= full_epochs && !converge.is_empty(),
        format!(
            "{} epochs reached {CONVERGED_SHARE:e} of the initial variance; {full_epochs} ran to completion",
            converge.len()
        ),
    );

    // Operation accounting over the measured cycles. Stale-peer misses are
    // not counted here: the engines heal them inside peer sampling without
    // reporting them, and with no churn none occur (the membership probe's
    // stale_sample_ratio measures them on a standalone sampler).
    let ops = Ops {
        attempted: main
            .cycles()
            .map(|c| (c.exchanges + c.blocked) as u64)
            .sum(),
        lost: main.cycles().map(|c| c.lost as u64).sum(),
        blocked: main.cycles().map(|c| c.blocked as u64).sum(),
    };
    let recorded = main.events + main.dropped;
    let drop_ratio = main.drop_ratio();

    let cycle_s = main.cycle_s();
    let cycle_ms: Vec<f64> = cycle_s.iter().map(|s| s * 1e3).collect();
    let cycle_p50 = median(&cycle_ms).unwrap_or(0.0);
    let tail = stats::tail(&cycle_ms);
    let exchanges: usize = main.cycles().map(|c| c.exchanges).sum();
    let totals: Vec<f64> = main.instances.iter().map(Instance::total_s).collect();
    let setup = median(&main.setup_s).unwrap_or(0.0);

    let end_to_end = vec![
        Metric::new("setup_s", setup, "s")
            .with_note(format!("median of {} constructions", main.setup_s.len())),
        Metric::new(
            "exchanges_per_s",
            exchanges as f64 / cycle_s.iter().sum::<f64>(),
            "1/s",
        )
        .with_note(format!(
            "{exchanges} exchanges over {} cycles",
            cycle_s.len()
        )),
        Metric::new("cycle_ms_p50", cycle_p50, "ms")
            .with_note(format!("median of {} cycles", cycle_ms.len())),
        match tail {
            Some(t) => Metric::new("cycle_ms_tail", t.value, "ms").with_note(format!(
                "p{} of {} cycles, {} beyond",
                t.percentile, t.samples, t.beyond
            )),
            None => Metric::new("cycle_ms_tail", 0.0, "ms").with_note("too few cycles"),
        },
        Metric::new("converge_s", median(&converge).unwrap_or(0.0), "s").with_note(format!(
            "median over {} epochs, to {CONVERGED_SHARE:e} of the initial variance",
            converge.len()
        )),
        Metric::new("total_s", median(&totals).unwrap_or(0.0), "s").with_note(format!(
            "construction + first epoch + drop, median of {} instances",
            totals.len()
        )),
        Metric::new("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB").with_note("VmHWM"),
        Metric::new("variance_factor", factor, "ratio").with_note(factor_rule),
        Metric::new("exchange_ok_ratio", 1.0 - ops.fail_ratio(), "ratio")
            .with_note(format!("1 - exchange_fail_ratio ({:.6})", ops.fail_ratio())),
        Metric::new("trace_kept_ratio", 1.0 - drop_ratio, "ratio").with_note(if telemetry {
            format!("1 - trace_drop_ratio ({drop_ratio:.6}), {recorded} events recorded")
        } else {
            "telemetry off: nothing recorded, nothing dropped".to_string()
        }),
    ];
    let nonfinite: Vec<&str> = end_to_end
        .iter()
        .filter(|m| !m.value.is_finite() || m.value <= 0.0)
        .map(|m| m.name)
        .collect();
    checks.check(
        "metrics.positive",
        nonfinite.is_empty(),
        format!("non-positive or non-finite: {nonfinite:?}"),
    );

    let per_layer = if trace {
        let memory_create = (create_nodes, memory_create.unwrap_or_default());
        per_layer(
            w,
            &inputs,
            &main,
            &mut tracer,
            &mut checks,
            ops,
            memory_create,
        )
    } else {
        Vec::new()
    };

    Outcome {
        end_to_end,
        per_layer,
        checks,
        ops,
        tracer,
    }
}

/// The traced run's per-layer numbers: spans from the measured run plus
/// the standalone probes.
fn per_layer(
    w: Workload,
    inputs: &Inputs,
    main: &MainRun,
    tracer: &mut Tracer,
    checks: &mut Checks,
    ops: Ops,
    (create_nodes, (create_s, create_rss)): (usize, (f64, f64)),
) -> Vec<Metric> {
    let n = w.nodes();
    let seed = inputs.master_seed;
    let on_wire = w == Workload::WireFaults;

    // Worker scaling on the workload's input, telemetry off. On the wire
    // workload the 1-worker probe also stands in for the sharded spans.
    let (w1, w1_stats) = sharded_probe(
        w,
        inputs,
        1,
        ("probe.workers1.new", "probe.workers1.run_cycle"),
        tracer,
    );
    let (w2, _) = sharded_probe(
        w,
        inputs,
        2,
        ("probe.workers2.new", "probe.workers2.run_cycle"),
        tracer,
    );
    let (sharded_spans, imbalance, sharded_note) = if on_wire {
        (
            ("probe.workers1.new", "probe.workers1.run_cycle"),
            shard_imbalance(&w1_stats),
            "probe: ShardedSimulation on the workload input",
        )
    } else {
        (
            ("sharded.new", "sharded.run_cycle"),
            shard_imbalance(main.cycles()),
            "measured run",
        )
    };

    // The wire path: measured on the wire workload, probed elsewhere.
    let lockstep_note = if on_wire {
        "measured run".to_string()
    } else {
        let m = n.min(WIRE_PROBE_NODES);
        let mut cluster = tracer.span("lockstep.new", |_| w.cluster(&inputs.values[..m], seed));
        for _ in 0..PROBE_CYCLES {
            tracer.span("lockstep.run_cycle", |_| cluster.step());
        }
        tracer.span("lockstep.drop", |_| drop(cluster));
        format!("probe: VirtualCluster at {m} nodes")
    };
    let wire = probes::wire(tracer);
    checks.check(
        "codec.round_trip",
        wire.round_trip_ok,
        "every frame decodes to its message and every hop arrives",
    );

    let membership_nodes = if w.sampler() == SamplerConfig::UniformComplete {
        n.min(MEMBERSHIP_PROBE_NODES)
    } else {
        n
    };
    let membership = probes::membership(tracer, membership_nodes, NEWSCAST_CACHE, seed);

    let shuffle_ms = probes::shuffle_ms(tracer, n, seed);
    let fused_ns = probes::exchange_fused_ns(tracer, n, seed);
    let node_ns = probes::exchange_ns(tracer, n.min(NODE_PROBE_NODES), seed);
    let words = probes::words_per_s(tracer, seed);
    let (record_ns, recorded) = probes::record_ns(tracer);
    let merge_events = if main.last_drained.is_empty() {
        &recorded
    } else {
        &main.last_drained
    };
    let merge_ns = probes::merge_ns_per_event(tracer, merge_events, SHARDS);

    let cycle_s = main.cycle_s();
    let cycle_traced: Vec<bool> = main
        .instances
        .iter()
        .flat_map(|i| i.cycle_traced.iter().copied())
        .collect();
    let cycles = cycle_s.len() as f64;
    let p50 = |traced: bool| {
        let secs: Vec<f64> = cycle_s
            .iter()
            .zip(&cycle_traced)
            .filter(|(_, &t)| t == traced)
            .map(|(s, _)| *s)
            .collect();
        median(&secs).unwrap_or(0.0)
    };
    let main_p50 = median(&cycle_s).unwrap_or(0.0);
    let toggled_p50 = median(&main.toggled_cycle_s).unwrap_or(0.0);
    let telemetry_overhead = if w.telemetry() {
        main_p50 / toggled_p50
    } else {
        toggled_p50 / main_p50
    };

    let note_probe = |scale: usize| format!("probe at {scale} nodes");
    vec![
        Metric::new("sharded.new_ms", ms(tracer, sharded_spans.0), "ms").with_note(sharded_note),
        Metric::new("sharded.run_cycle_ms", ms(tracer, sharded_spans.1), "ms")
            .with_note(sharded_note),
        Metric::new("sharded.shard_imbalance", imbalance, "ratio")
            .with_note("max / mean shard exchanges"),
        Metric::new("sharded.worker_scaling", w1 / w2, "ratio").with_note(format!(
            "1-worker {:.3} ms / 2-worker {:.3} ms per cycle",
            w1 * 1e3,
            w2 * 1e3
        )),
        Metric::new("soa.shuffle_ms", shuffle_ms, "ms").with_note(note_probe(n)),
        Metric::new("core.exchange_fused_ns", fused_ns, "ns").with_note(note_probe(n)),
        Metric::new(
            "core.bytes_per_exchange",
            probes::bytes_per_fused_exchange(),
            "bytes",
        )
        .with_note("computed: two 16-byte hot records read and written"),
        Metric::new("core.exchange_ns", node_ns, "ns")
            .with_note(note_probe(n.min(NODE_PROBE_NODES))),
        Metric::new("effects.words_per_s", words, "1/s").with_note("fill_block + WordBuffer::next"),
        Metric::new("membership.begin_cycle_ms", membership.begin_cycle_ms, "ms")
            .with_note(note_probe(membership_nodes)),
        Metric::new("membership.sample_ns", membership.sample_ns, "ns")
            .with_note(note_probe(membership_nodes)),
        Metric::new(
            "membership.stale_descriptors",
            membership.stale_descriptors,
            "count",
        ),
        Metric::new(
            "membership.stale_sample_ratio",
            membership.stale_sample_ratio,
            "ratio",
        ),
        Metric::new("telemetry.drain_ms", ms(tracer, "telemetry.drain"), "ms"),
        Metric::new(
            "telemetry.events_per_cycle",
            main.events as f64 / cycles,
            "count",
        ),
        Metric::new(
            "telemetry.dropped_per_cycle",
            main.dropped as f64 / cycles,
            "count",
        ),
        Metric::new("telemetry.merge_ns_per_event", merge_ns, "ns")
            .with_note(format!("{} events in {SHARDS} batches", merge_events.len())),
        Metric::new("telemetry.record_ns", record_ns, "ns"),
        Metric::new("telemetry.overhead", telemetry_overhead, "ratio")
            .with_note("cycle p50, telemetry on / off"),
        Metric::new("lockstep.new_s", ms(tracer, "lockstep.new") / 1e3, "s")
            .with_note(lockstep_note.clone()),
        Metric::new(
            "lockstep.run_cycle_ms",
            ms(tracer, "lockstep.run_cycle"),
            "ms",
        )
        .with_note(lockstep_note.clone()),
        Metric::new("lockstep.drop_s", ms(tracer, "lockstep.drop") / 1e3, "s")
            .with_note(lockstep_note),
        Metric::new("memory.create_s", create_s, "s").with_note(note_probe(create_nodes)),
        Metric::new("memory.create_rss_mb", create_rss, "MB").with_note(note_probe(create_nodes)),
        Metric::new("codec.encode_ns", wire.encode_ns, "ns"),
        Metric::new("codec.decode_ns", wire.decode_ns, "ns"),
        Metric::new("codec.frame_bytes", wire.frame_bytes, "bytes"),
        Metric::new("memory.send_recv_ns", wire.send_recv_ns, "ns"),
        Metric::new("faults.lost", ops.lost as f64 / cycles, "count/cycle"),
        Metric::new("faults.blocked", ops.blocked as f64 / cycles, "count/cycle"),
        Metric::new("exchange_fail_ratio", ops.fail_ratio(), "ratio"),
        Metric::new("trace_drop_ratio", main.drop_ratio(), "ratio"),
        Metric::new("bench.trace_overhead", p50(true) / p50(false), "ratio")
            .with_note("cycle p50, traced / untraced cycles of the measured run"),
    ]
}
