//! `wpaxos-serial` and `wpaxos-s2t2`: wPAXOS with alternating inputs
//! on `Topology::random_connected(512, 0.02, seed)` under
//! `RandomScheduler(F_ack = 4, seed)`, run to all-decided.

use std::time::Instant;

use amacl_core::verify::check_consensus;
use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::prelude::*;

use crate::probe::{self, Layer, Timed, TimedSched};
use crate::replay::{replay_layers, Stream};
use crate::{engine_config, median, peak_rss_mb, ratio, secs, timed_loop, Args, Outcome, SpanRec};

const NODES: usize = 512;
const EDGE_P: f64 = 0.02;
const F_ACK: u64 = 4;
/// Set-up repetitions beyond the ones the timed iterations make.
const EXTRA_SETUPS: usize = 49;

/// What a run must reproduce: its decisions and the counters that take
/// part in the engine's identity contract.
#[derive(Clone, PartialEq, Debug)]
struct Identity {
    decisions: Vec<Option<Value>>,
    events: u64,
    broadcasts: u64,
    deliveries: u64,
    acks: u64,
}

impl Identity {
    fn of(report: &RunReport) -> Self {
        Self {
            decisions: report
                .decisions
                .iter()
                .map(|d| d.map(|d| d.value))
                .collect(),
            events: report.metrics.events,
            broadcasts: report.metrics.broadcasts,
            deliveries: report.metrics.deliveries,
            acks: report.metrics.acks,
        }
    }
}

fn inputs() -> Vec<Value> {
    (0..NODES).map(|i| (i % 2) as Value).collect()
}

/// Set-up: topology generation, then process construction plus
/// `SimBuilder::build`. Returns the simulation and both durations.
fn build<P: Process>(
    seed: u64,
    cfg: EngineConfig,
    traced: bool,
    make: impl Fn(WpaxosNode) -> P,
    sched: impl Scheduler + 'static,
) -> (Sim<P>, f64, f64) {
    let t0 = Instant::now();
    let topo = Topology::random_connected(NODES, EDGE_P, seed);
    let topo_s = secs(t0);
    let t1 = Instant::now();
    let ins = inputs();
    let node_cfg = WpaxosConfig::new(NODES);
    let sim = SimBuilder::new(topo, |s| make(WpaxosNode::new(ins[s.index()], node_cfg)))
        .config(cfg)
        .scheduler(sched)
        .message_id_budget(10)
        .stop_when_all_decided(true)
        .trace(traced)
        .build();
    (sim, topo_s, secs(t1))
}

/// Checks one run: consensus holds, and the run reproduces `reference`.
fn verify(out: &mut Outcome, report: &RunReport, reference: &Identity, label: &str) {
    let check = check_consensus(&inputs(), report, &[]);
    out.check(check.ok(), || format!("{label}: consensus check {check:?}"));
    let id = Identity::of(report);
    out.check(&id == reference, || {
        format!(
            "{label}: execution differs from the first serial run (events {} vs {}, deliveries {} vs {})",
            id.events, reference.events, id.deliveries, reference.deliveries
        )
    });
}

/// Measures `wpaxos-serial`, then runs the same seed once more on the
/// parallel engine (2 shards, 2 threads) as a companion run.
pub fn measure(args: &Args) -> Outcome {
    let seed = args.seed;
    let cfg = engine_config(seed, 1, 1);
    let sched = || RandomScheduler::new(F_ACK, seed);
    let mut out = Outcome::default();

    for _ in 0..EXTRA_SETUPS {
        let (sim, topo_s, build_s) = build(seed, cfg.clone(), false, |p| p, sched());
        drop(sim);
        out.setup_s.push(topo_s + build_s);
    }

    // Every iteration must reproduce the first one exactly.
    let mut first: Option<(Identity, RunReport, (u64, u64))> = None;
    timed_loop(args.seconds, || {
        let (mut sim, topo_s, build_s) = build(seed, cfg.clone(), false, |p| p, sched());
        out.setup_s.push(topo_s + build_s);
        let alloc0 = probe::alloc_snapshot();
        let t = Instant::now();
        let report = sim.run();
        let wall = secs(t);
        let alloc1 = probe::alloc_snapshot();
        out.wall_s.push(wall);
        out.work_per_sec
            .push(report.metrics.deliveries as f64 / wall);
        let id = Identity::of(&report);
        verify(
            &mut out,
            &report,
            first.as_ref().map_or(&id, |f| &f.0),
            "timed run",
        );
        if first.is_none() {
            out.peak_rss_mb = peak_rss_mb();
            let allocs = (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1);
            first = Some((id, report, allocs));
        }
    });
    let (reference, report, allocs) = first.expect("timed loop runs at least once");

    // Identity guard: the parallel engine at the same seed must make
    // the same decisions with the same events, broadcasts, deliveries
    // and acks. A faster parallel run that does different work then
    // counts as a failure, not a gain.
    let (mut sim, _, _) = build(seed, engine_config(seed, 2, 2), false, |p| p, sched());
    let t = Instant::now();
    let parallel = sim.run();
    let parallel_s = secs(t);
    drop(sim);
    verify(&mut out, &parallel, &reference, "2-shard 2-thread run");

    let m = &report.metrics;
    out.notes.push(format!(
        "wpaxos n={NODES}: events {} deliveries {} decided t={}; 2-shard 2-thread companion run {parallel_s:.4} s",
        m.events,
        m.deliveries,
        report.max_decision_time().map_or(0, |t| t.ticks())
    ));
    if !args.trace {
        return out;
    }

    // Shard and pool layers, from the companion run (untraced: the
    // engine's own busy and barrier timers are always on).
    let pm = &parallel.metrics;
    let p_ns = parallel_s * 1e9;
    let windows = pm.shard_window_advances as f64;
    out.layer(
        "shard.cross_share",
        ratio(pm.cross_shard_deliveries as f64, pm.deliveries as f64),
    );
    out.layer("shard.events_per_window", ratio(pm.events as f64, windows));
    out.layer(
        "shard.flushes_per_window",
        ratio(pm.shard_mailbox_flushes as f64, windows),
    );
    out.layer("shard.skew", pm.shard_skew());
    out.layer(
        "shard.clones_per_delivery",
        ratio(pm.payload_clones as f64, pm.deliveries as f64),
    );
    out.layer("shard.speedup", ratio(median(&out.wall_s), parallel_s));
    out.layer("pool.spawns", pm.worker_spawns as f64);
    out.layer("pool.wakeups", pm.worker_wakeups as f64);
    out.layer("pool.supersteps", pm.superstep_count as f64);
    out.layer("pool.inline_windows", pm.serial_window_shortcuts as f64);
    worker_shares(&mut out, pm, p_ns);
    out.runs.push(SpanRec {
        name: "engine.run 2-shard 2-thread".into(),
        ns: p_ns as u64,
    });

    // The traced run: decorated processes and scheduler, engine trace on.
    probe::reset_spans();
    let (mut sim, topo_s, build_s) =
        build(seed, cfg, true, |p| Timed { inner: p }, TimedSched(sched()));
    let t = Instant::now();
    let traced = sim.run();
    let run_ns = t.elapsed().as_nanos() as u64;
    verify(&mut out, &traced, &reference, "traced run");
    out.runs.push(SpanRec {
        name: "setup.topology".into(),
        ns: (topo_s * 1e9) as u64,
    });
    out.runs.push(SpanRec {
        name: "setup.build".into(),
        ns: (build_s * 1e9) as u64,
    });
    out.runs.push(SpanRec {
        name: "engine.run".into(),
        ns: run_ns,
    });
    let stream = Stream::from_trace(sim.trace(), NODES);
    drop(sim);
    let replayed_ns = replay_layers(&mut out, &stream);

    let dispatch = probe::span_stats(Layer::Dispatch);
    let plan = probe::span_stats(Layer::Plan);
    let run_ns = run_ns as f64;
    let self_ns = run_ns - dispatch.total_ns as f64 - plan.total_ns as f64;
    let m = &traced.metrics;
    let events = m.events as f64;

    out.layer("setup.topology_s", topo_s);
    out.layer("setup.build_s", build_s);
    out.layer("engine.events", events);
    out.layer("engine.ns_per_event", ratio(run_ns, events));
    out.layer("engine.self_share", ratio(self_ns, run_ns));
    out.layer(
        "engine.unattributed_share",
        ratio(self_ns - replayed_ns, run_ns),
    );
    out.layer("dispatch.calls", dispatch.count as f64);
    out.layer(
        "dispatch.ns_per_call",
        ratio(dispatch.total_ns as f64, dispatch.count as f64),
    );
    out.layer("dispatch.share", ratio(dispatch.total_ns as f64, run_ns));
    out.layer("sched.plans", plan.count as f64);
    out.layer(
        "sched.targets_per_plan",
        ratio(probe::plan_targets() as f64, plan.count as f64),
    );
    out.layer(
        "sched.ns_per_plan",
        ratio(plan.total_ns as f64, plan.count as f64),
    );
    out.layer("sched.share", ratio(plan.total_ns as f64, run_ns));
    engine_counters(&mut out, m);
    out.layer(
        "alloc.per_event",
        ratio(allocs.0 as f64, report.metrics.events as f64),
    );
    out.layer(
        "alloc.bytes_per_event",
        ratio(allocs.1 as f64, report.metrics.events as f64),
    );
    out.layer(
        "outcome.decide_ticks",
        traced.max_decision_time().map_or(0.0, |t| t.ticks() as f64),
    );
    let mut times: Vec<u64> = traced
        .decisions
        .iter()
        .flatten()
        .map(|d| d.time.ticks())
        .collect();
    times.sort_unstable();
    out.layer("outcome.p50_ticks", nearest_rank(&times, 0.50) as f64);
    out.layer("outcome.p99_ticks", nearest_rank(&times, 0.99) as f64);
    out.layer("outcome.latency_samples", times.len() as f64);
    out.layer(
        "trace_overhead_pct",
        (run_ns / 1e9 / median(&out.wall_s) - 1.0) * 100.0,
    );
    out
}

/// The `(c)` counters every engine workload reports from `Metrics`.
pub fn engine_counters(out: &mut Outcome, m: &amacl_model::sim::trace::Metrics) {
    let events = m.events as f64;
    let deliveries = m.deliveries as f64;
    out.layer(
        "queue.pushes_per_event",
        ratio(m.queue_pushes as f64, events),
    );
    out.layer(
        "queue.cancels_per_event",
        ratio(m.queue_cancellations as f64, events),
    );
    out.layer(
        "queue.overflows_per_event",
        ratio(m.queue_bucket_overflows as f64, events),
    );
    out.layer(
        "mac.deliveries_per_broadcast",
        ratio(deliveries, m.broadcasts as f64),
    );
    out.layer(
        "mac.busy_discard_ratio",
        ratio(
            m.busy_discards as f64,
            (m.broadcasts + m.busy_discards) as f64,
        ),
    );
    out.layer(
        "custody.clones_per_delivery",
        ratio(m.payload_clones as f64, deliveries),
    );
    out.layer(
        "custody.moves_per_delivery",
        ratio(m.payload_moves as f64, deliveries),
    );
    out.layer("custody.arena_peak_bytes", m.arena_bytes_peak as f64);
}

/// Worker busy and barrier shares of the run wall, from the engine's
/// own per-shard timers. With no worker pool (a serial run) the whole
/// run is coordinator time.
fn worker_shares(out: &mut Outcome, m: &amacl_model::sim::trace::Metrics, run_ns: f64) {
    let workers = m.shard_busy_ns.len().max(1) as f64;
    let busy: u64 = m.shard_busy_ns.iter().sum();
    let wait: u64 = m.shard_barrier_wait_ns.iter().sum();
    let busy_share = ratio(busy as f64 / workers, run_ns);
    let in_pool = ratio((busy + wait) as f64 / workers, run_ns);
    out.layer("shard.busy_share", busy_share);
    out.layer("shard.barrier_pct", m.barrier_pct());
    out.layer("coord.serial_share", 1.0 - in_pool);
}

/// Nearest-rank quantile of sorted `xs` (0 when empty).
pub fn nearest_rank(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}
