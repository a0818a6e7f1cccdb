//! `load-open`: open-loop Poisson arrivals at 5 requests per kilotick
//! into the `checker::workload` pipeline (clique of 4, `BitwiseTwoPhase`
//! with 8-bit values, `F_ack = 8`), shaped like `load-crash-steady-state`
//! (the last follower crashes mid-run) with the arrival window stretched
//! so about 10k requests arrive. Driven through `Sim::run_until` and
//! `Sim::inject`, the way `amacl_checker::run_load` drives it, so each
//! call can be timed.

use std::time::Instant;

use amacl_checker::workload::{
    run_load, ArrivalKind, LoadMsg, LoadRequest, LoadScenario, OpenLoopNode, WorkloadSpec,
};
use amacl_model::prelude::*;

use crate::probe::{self, Layer, Timed, TimedSched};
use crate::replay::{replay_layers, Stream};
use crate::wpaxos::{engine_counters, nearest_rank};
use crate::{engine_config, median, peak_rss_mb, ratio, secs, timed_loop, Args, Outcome, SpanRec};

/// Arrival window: 2M ticks at 5 per kilotick is about 10k requests.
const DURATION: u64 = 2_000_000;
/// Set-up repetitions beyond the ones the timed iterations make.
const EXTRA_SETUPS: usize = 49;

fn scenario(seed: u64) -> LoadScenario {
    let spec = WorkloadSpec {
        arrival: ArrivalKind::Poisson,
        rate_per_kilotick: 5,
        duration: DURATION,
        drain: 20_000,
        service: None,
        n: 4,
        bits: 8,
        seed,
        f_ack: 8,
    };
    LoadScenario {
        name: "load-open".into(),
        crash: Some((spec.n - 1, DURATION / 2)),
        partition: None,
        spec,
    }
}

/// A built open-loop engine and its materialised request schedule.
struct Setup<P: Process> {
    sim: Sim<P>,
    requests: Vec<LoadRequest>,
    horizon: Time,
    schedule_s: f64,
    topo_s: f64,
    build_s: f64,
}

fn setup<P: Process>(
    sc: &LoadScenario,
    traced: bool,
    make: impl Fn(OpenLoopNode) -> P,
    sched: impl Scheduler + 'static,
) -> Setup<P> {
    let t0 = Instant::now();
    let requests = sc.spec.requests();
    let horizon = sc.spec.horizon();
    let schedule_s = secs(t0);
    let t1 = Instant::now();
    let topo = Topology::clique(sc.spec.n);
    let topo_s = secs(t1);
    let t2 = Instant::now();
    let bits = sc.spec.bits;
    let sim = SimBuilder::new(topo, |slot| {
        make(OpenLoopNode::new(bits, slot.index() == 0))
    })
    .config(engine_config(sc.spec.seed, 1, 1).crash_plan(sc.crash_plan()))
    .scheduler(sched)
    .max_time(horizon)
    .message_id_budget(1)
    .trace(traced)
    .build();
    Setup {
        sim,
        requests,
        horizon,
        schedule_s,
        topo_s,
        build_s: secs(t2),
    }
}

/// What one open-loop run produced.
#[derive(Clone, PartialEq, Debug)]
struct Surface {
    latencies: Vec<u64>,
    last_decided: u64,
    unfinished: u64,
}

impl Surface {
    /// `(samples, p50, p99)` of the submit→decide latencies, in ticks.
    fn quantiles(&self) -> (usize, u64, u64) {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        (
            sorted.len(),
            nearest_rank(&sorted, 0.50),
            nearest_rank(&sorted, 0.99),
        )
    }
}

/// The open-loop node behind a plain or decorated process.
trait AsNode: Process<Msg = LoadMsg> {
    fn node(&self) -> &OpenLoopNode;
    fn node_mut(&mut self) -> &mut OpenLoopNode;
}

impl AsNode for OpenLoopNode {
    fn node(&self) -> &OpenLoopNode {
        self
    }
    fn node_mut(&mut self) -> &mut OpenLoopNode {
        self
    }
}

impl AsNode for Timed<OpenLoopNode> {
    fn node(&self) -> &OpenLoopNode {
        &self.inner
    }
    fn node_mut(&mut self) -> &mut OpenLoopNode {
        &mut self.inner
    }
}

/// Runs `f`, as a `layer` span when tracing.
fn span(traced: bool, layer: Layer, f: impl FnOnce()) {
    if traced {
        probe::timed(layer, f)
    } else {
        f()
    }
}

/// Drives the request schedule to the horizon, handing each inject
/// call's host nanoseconds to `inject_ns`, and reads the proposer's
/// latency surface.
fn drive<P: AsNode>(s: &mut Setup<P>, traced: bool, mut inject_ns: impl FnMut(u64)) -> Surface {
    for req in &s.requests {
        span(traced, Layer::RunUntil, || {
            let _ = s.sim.run_until(req.injected);
        });
        let t = Instant::now();
        span(traced, Layer::Inject, || {
            s.sim.inject(Slot(0), |p, ctx| {
                p.node_mut().submit(req.value, req.submitted, ctx);
            });
        });
        inject_ns(t.elapsed().as_nanos() as u64);
    }
    let horizon = s.horizon;
    span(traced, Layer::RunUntil, || {
        let _ = s.sim.run_until(horizon);
    });
    let proposer = s.sim.process(Slot(0)).node();
    let completed = proposer.completed();
    Surface {
        latencies: completed.iter().map(|c| c.latency()).collect(),
        last_decided: completed
            .iter()
            .map(|c| c.decided.ticks())
            .max()
            .unwrap_or(0),
        unfinished: proposer.pending() as u64,
    }
}

/// Measures the open-loop workload.
pub fn measure(args: &Args) -> Outcome {
    let sc = scenario(args.seed);
    let mut out = Outcome::default();
    let sched = || sc.scheduler()();

    for _ in 0..EXTRA_SETUPS {
        let s = setup(&sc, false, |p| p, sched());
        out.setup_s.push(s.schedule_s + s.topo_s + s.build_s);
    }

    let mut first: Option<(Surface, amacl_model::sim::trace::Metrics, (u64, u64))> = None;
    timed_loop(args.seconds, || {
        let mut s = setup(&sc, false, |p| p, sched());
        out.setup_s.push(s.schedule_s + s.topo_s + s.build_s);
        let alloc0 = probe::alloc_snapshot();
        let t = Instant::now();
        let surf = drive(&mut s, false, |_| {});
        let wall = secs(t);
        let alloc1 = probe::alloc_snapshot();
        let metrics = s.sim.metrics().clone();
        out.wall_s.push(wall);
        out.work_per_sec.push(metrics.deliveries as f64 / wall);
        judge(
            &mut out,
            &surf,
            first.as_ref().map(|f| &f.0),
            s.requests.len() as u64,
            "timed run",
        );
        if first.is_none() {
            out.peak_rss_mb = peak_rss_mb();
            first = Some((surf, metrics, (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1)));
        }
    });
    let (first_surf, first_metrics, allocs) = first.expect("timed loop runs at least once");
    let (samples, p50, p99) = first_surf.quantiles();
    out.notes.push(format!(
        "load-open: {} requests decided, p50 {p50} ticks, p99 {p99} ticks ({samples} samples), {} engine events",
        samples, first_metrics.events
    ));
    if !args.trace {
        return out;
    }

    probe::reset_spans();
    let mut s = setup(&sc, true, |p| Timed { inner: p }, TimedSched(sched()));
    let mut injects = Vec::with_capacity(s.requests.len());
    let t = Instant::now();
    let surf = drive(&mut s, true, |ns| injects.push(ns));
    let run_ns = t.elapsed().as_nanos() as f64;
    judge(
        &mut out,
        &surf,
        Some(&first_surf),
        s.requests.len() as u64,
        "traced run",
    );
    out.requests = injects
        .into_iter()
        .zip(surf.latencies.iter().copied())
        .collect();
    out.runs.push(SpanRec {
        name: "setup.schedule".into(),
        ns: (s.schedule_s * 1e9) as u64,
    });
    out.runs.push(SpanRec {
        name: "setup.topology".into(),
        ns: (s.topo_s * 1e9) as u64,
    });
    out.runs.push(SpanRec {
        name: "setup.build".into(),
        ns: (s.build_s * 1e9) as u64,
    });
    out.runs.push(SpanRec {
        name: "engine.drive".into(),
        ns: run_ns as u64,
    });

    let m = s.sim.metrics().clone();
    let stream = Stream::from_trace(s.sim.trace(), sc.spec.n);
    let requests = s.requests.len() as f64;
    let (topo_s, build_s) = (s.topo_s, s.build_s);
    drop(s);
    let replayed_ns = replay_layers(&mut out, &stream);

    let dispatch = probe::span_stats(Layer::Dispatch);
    let plan = probe::span_stats(Layer::Plan);
    let run_until = probe::span_stats(Layer::RunUntil);
    let inject = probe::span_stats(Layer::Inject);
    // Engine time is what `run_until` and `inject` spend; dispatch and
    // plan spans nest inside them.
    let engine_ns = (run_until.total_ns + inject.total_ns) as f64;
    let self_ns = engine_ns - dispatch.total_ns as f64 - plan.total_ns as f64;
    let events = m.events as f64;

    out.layer("setup.topology_s", topo_s);
    out.layer("setup.build_s", build_s);
    out.layer("engine.events", events);
    out.layer("engine.ns_per_event", ratio(engine_ns, events));
    out.layer("engine.self_share", ratio(self_ns, engine_ns));
    out.layer(
        "engine.unattributed_share",
        ratio(self_ns - replayed_ns, engine_ns),
    );
    out.layer("dispatch.calls", dispatch.count as f64);
    out.layer(
        "dispatch.ns_per_call",
        ratio(dispatch.total_ns as f64, dispatch.count as f64),
    );
    out.layer("dispatch.share", ratio(dispatch.total_ns as f64, engine_ns));
    out.layer("sched.plans", plan.count as f64);
    out.layer(
        "sched.targets_per_plan",
        ratio(probe::plan_targets() as f64, plan.count as f64),
    );
    out.layer(
        "sched.ns_per_plan",
        ratio(plan.total_ns as f64, plan.count as f64),
    );
    out.layer("sched.share", ratio(plan.total_ns as f64, engine_ns));
    engine_counters(&mut out, &m);
    out.layer(
        "alloc.per_event",
        ratio(allocs.0 as f64, first_metrics.events as f64),
    );
    out.layer(
        "alloc.bytes_per_event",
        ratio(allocs.1 as f64, first_metrics.events as f64),
    );
    out.layer("load.requests", requests);
    out.layer("load.events_per_request", ratio(events, requests));
    out.layer(
        "load.run_until_ns_per_call",
        ratio(run_until.total_ns as f64, run_until.count as f64),
    );
    out.layer(
        "load.inject_ns_per_call",
        ratio(inject.total_ns as f64, inject.count as f64),
    );
    let (samples, p50, p99) = surf.quantiles();
    out.layer("outcome.decide_ticks", surf.last_decided as f64);
    out.layer("outcome.p50_ticks", p50 as f64);
    out.layer("outcome.p99_ticks", p99 as f64);
    out.layer("outcome.latency_samples", samples as f64);
    out.layer(
        "trace_overhead_pct",
        (run_ns / 1e9 / median(&out.wall_s) - 1.0) * 100.0,
    );
    out
}

/// Checks one run: every request finished by the horizon, and the
/// latency surface equals the first run's exactly (it is a pure
/// function of the seed). A wrong surface fails every request in it.
fn judge(out: &mut Outcome, surf: &Surface, first: Option<&Surface>, submitted: u64, label: &str) {
    out.attempted += submitted;
    if surf.unfinished > 0 {
        out.failed += surf.unfinished;
        out.notes.push(format!(
            "FAILED: {label}: {} requests unfinished at the horizon",
            surf.unfinished
        ));
    }
    if let Some(f) = first {
        if f.quantiles() != surf.quantiles() {
            out.failed += submitted - surf.unfinished;
            out.notes.push(format!(
                "FAILED: {label}: latency surface {:?} differs from the first run's {:?}",
                surf.quantiles(),
                f.quantiles()
            ));
        }
    }
}

/// `true` when the benchmark's driving recipe reproduces
/// `amacl_checker::run_load` on this scenario (same completed
/// latencies, same unfinished count, same engine event count).
pub fn matches_library(seed: u64) -> bool {
    let sc = scenario(seed);
    let lib = run_load(&sc, EngineConfig::default().queue_core, 1, 1, false);
    let mut s = setup(&sc, false, |p| p, sc.scheduler()());
    let surf = drive(&mut s, false, |_| {});
    let lib_lat: Vec<u64> = lib.completed.iter().map(|c| c.latency()).collect();
    lib_lat == surf.latencies
        && lib.unfinished == surf.unfinished
        && lib.engine_events == s.sim.metrics().events
}
