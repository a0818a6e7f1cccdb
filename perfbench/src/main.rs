//! `amacl-perfbench`: one benchmark for the amacl workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test [--seed <n>]
//! ```
//!
//! Runs one named workload against the public APIs of `amacl_model`,
//! `amacl_core`, `amacl_checker` and `amacl_cli`, checks every run's
//! outputs, prints every metric by name and unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace
//! 0` the metrics are the end-to-end ones (untraced runs); with
//! `--trace 1` the process also makes one traced run and reports the
//! per-layer ones. See `README.md` next to this crate for the workloads,
//! the metric definitions and what each layer metric should move.

mod check;
mod load;
mod probe;
mod replay;
mod wpaxos;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use amacl_model::prelude::*;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["wpaxos-serial", "load-open", "check-exhaustive"];

/// End-to-end metrics: `(name, unit)`. Every workload reports all four.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_sec", "1/s"),
];

/// Per-layer metrics: `(name, unit, exact)`. `exact` marks counters that
/// must repeat exactly for one seed (the self-test asserts it); the rest
/// are traced-run timings. A layer a workload bypasses reports 0.
const PER_LAYER: [(&str, &str, bool); 52] = [
    ("setup.topology_s", "s", false),
    ("setup.build_s", "s", false),
    ("engine.events", "count", true),
    ("engine.ns_per_event", "ns", false),
    ("engine.self_share", "ratio", false),
    ("engine.unattributed_share", "ratio", false),
    ("dispatch.calls", "count", true),
    ("dispatch.ns_per_call", "ns", false),
    ("dispatch.share", "ratio", false),
    ("sched.plans", "count", true),
    ("sched.targets_per_plan", "count", true),
    ("sched.ns_per_plan", "ns", false),
    ("sched.share", "ratio", false),
    ("queue.pushes_per_event", "ratio", true),
    ("queue.cancels_per_event", "ratio", true),
    ("queue.overflows_per_event", "ratio", true),
    ("queue.ns_per_op.heap", "ns", false),
    ("queue.ns_per_op.calendar", "ns", false),
    ("mac.deliveries_per_broadcast", "ratio", true),
    ("mac.busy_discard_ratio", "ratio", true),
    ("mac.ns_per_op", "ns", false),
    ("custody.clones_per_delivery", "ratio", true),
    ("custody.moves_per_delivery", "ratio", true),
    ("custody.arena_peak_bytes", "B", true),
    ("alloc.per_event", "ratio", true),
    ("alloc.bytes_per_event", "B", true),
    ("shard.cross_share", "ratio", true),
    ("shard.events_per_window", "ratio", true),
    ("shard.flushes_per_window", "ratio", true),
    ("shard.skew", "ratio", true),
    ("shard.clones_per_delivery", "ratio", true),
    ("shard.speedup", "ratio", false),
    ("pool.spawns", "count", true),
    ("pool.wakeups", "count", true),
    ("pool.supersteps", "count", true),
    ("pool.inline_windows", "count", true),
    ("shard.busy_share", "ratio", false),
    ("shard.barrier_pct", "%", false),
    ("coord.serial_share", "ratio", false),
    ("load.requests", "count", true),
    ("load.events_per_request", "ratio", true),
    ("load.run_until_ns_per_call", "ns", false),
    ("load.inject_ns_per_call", "ns", false),
    ("checker.states", "count", true),
    ("checker.transitions", "count", true),
    ("checker.distinct_ratio", "ratio", true),
    ("checker.ns_per_state", "ns", false),
    ("outcome.decide_ticks", "ticks", true),
    ("outcome.p50_ticks", "ticks", true),
    ("outcome.p99_ticks", "ticks", true),
    ("outcome.latency_samples", "count", true),
    ("trace_overhead_pct", "%", false),
];

/// Command-line arguments of a measurement run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the untraced timed loop runs.
    pub seconds: f64,
    /// Also make one traced run and report per-layer metrics.
    pub trace: bool,
}

/// One host-time span kept individually (run- or request-level).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// What the span covers.
    pub name: String,
    /// Duration in nanoseconds.
    pub ns: u64,
}

/// Everything one workload measurement produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (runs, requests or verdicts).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Set-up time samples (seconds).
    pub setup_s: Vec<f64>,
    /// Timed-region samples, one per untraced iteration (seconds).
    pub wall_s: Vec<f64>,
    /// Work units per host second, one per untraced iteration.
    pub work_per_sec: Vec<f64>,
    /// Peak resident memory after the first timed iteration, in MiB:
    /// read there so that the number of iterations the time budget
    /// allows cannot move it.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (trace mode only); absent names report 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Run-level spans of the traced run.
    pub runs: Vec<SpanRec>,
    /// Request-level spans of the traced run: `(inject ns, latency ticks)`.
    pub requests: Vec<(u64, u64)>,
    /// Human-readable lines describing the run.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one operation and whether its output check passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// Median of `xs` (mean of the middle two for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Every engine knob, set explicitly: the benchmark never reads the
/// `AMACL_*` environment. Queue core and window batch stay at the
/// defaults, so a change of default shows up in the numbers.
pub fn engine_config(seed: u64, shards: usize, threads: usize) -> EngineConfig {
    let default = EngineConfig::default();
    EngineConfig::new()
        .seed(seed)
        .queue_core(default.queue_core)
        .window_batch(default.window_batch)
        .shards(shards)
        .threads(threads)
        .crash_plan(CrashPlan::none())
}

/// Repeats `iteration` until `seconds` have passed (at least once).
pub fn timed_loop(seconds: f64, mut iteration: impl FnMut()) {
    let start = Instant::now();
    loop {
        iteration();
        if secs(start) >= seconds {
            break;
        }
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine and build that produced a result.
fn machine_json(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"profile\": {}, \"seed\": {seed}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which no metric should produce,
/// become 0 so the line stays valid JSON).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// One metric as a JSON object member: `"name": {"value": v, "unit": u}`.
fn metric_json(&(name, unit, value): &(&str, &str, f64)) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_str(name),
        json_num(value),
        json_str(unit)
    )
}

/// Runs one workload measurement.
fn measure(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "wpaxos-serial" => wpaxos::measure(args),
        "load-open" => load::measure(args),
        "check-exhaustive" => check::measure(args),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// The metric name/value/unit triples a run reports.
fn metrics_of(out: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, out.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        // Wall time and throughput report the fastest iteration: every
        // workload is deterministic, so iterations differ only by
        // interference from outside the process, which only ever slows
        // them (README.md, "Why the fastest iteration"). Set-up reports
        // the median of its many repetitions.
        let values = [
            out.wall_s.iter().copied().fold(f64::INFINITY, f64::min),
            median(&out.setup_s),
            out.peak_rss_mb,
            out.work_per_sec.iter().copied().fold(0.0, f64::max),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    }
}

/// Writes the traced run's spans and metrics, at the end of the run.
fn write_trace_file(args: &Args, out: &Outcome, metrics: &[(&str, &str, f64)]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\n\"workload\": {},\n\"machine\": {},\n\"layers\": [",
        json_str(&args.workload),
        machine_json(args.seed)
    );
    for (i, (name, st)) in probe::all_span_stats().iter().enumerate() {
        let hist: Vec<String> = st.hist.iter().map(u64::to_string).collect();
        let _ = write!(
            j,
            "{}\n  {{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"log2_hist\": [{}]}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            st.count,
            st.total_ns,
            hist.join(", ")
        );
    }
    j.push_str("\n],\n\"runs\": [");
    for (i, r) in out.runs.iter().enumerate() {
        let _ = write!(
            j,
            "{}\n  {{\"name\": {}, \"ns\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(&r.name),
            r.ns
        );
    }
    j.push_str("\n],\n\"requests\": [");
    for (i, (ns, lat)) in out.requests.iter().enumerate() {
        let _ = write!(j, "{}[{ns}, {lat}]", if i == 0 { "" } else { ", " });
    }
    j.push_str("],\n\"metrics\": {");
    let entries: Vec<String> = metrics.iter().map(metric_json).collect();
    let _ = write!(j, "\n  {}\n}}\n}}\n", entries.join(",\n  "));
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, j));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn run(args: &Args) {
    let out = measure(args);
    for note in &out.notes {
        println!("{note}");
    }
    let metrics = metrics_of(&out, args.trace);
    if args.trace {
        write_trace_file(args, &out, &metrics);
    } else {
        let walls: Vec<String> = out.wall_s.iter().map(|w| format!("{w:.4}")).collect();
        println!(
            "samples: {} timed iterations [{}] s, {} set-ups",
            out.wall_s.len(),
            walls.join(", "),
            out.setup_s.len()
        );
    }
    println!(
        "failed_frac: {} ({} of {} attempted)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for (name, unit, v) in &metrics {
        println!("{name}: {} {unit}", json_num(*v));
    }
    println!("machine: {}", machine_json(args.seed));
    let body: Vec<String> = metrics.iter().map(metric_json).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

/// Runs every workload's traced measurement twice at one seed and
/// asserts that every exact counter repeats, that no output check
/// failed, and that the open-loop recipe matches `run_load`.
fn self_test(seed: u64) -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        let args = Args {
            workload: w.into(),
            seed,
            seconds: 0.0,
            trace: true,
        };
        let a = measure(&args);
        let b = measure(&args);
        let mut repeat = true;
        for &(name, _, exact) in &PER_LAYER {
            let (x, y) = (a.layers.get(name), b.layers.get(name));
            if exact && x != y {
                repeat = false;
                println!("{w}: {name} differs across runs: {x:?} vs {y:?}");
            }
        }
        ok &= repeat;
        for o in [&a, &b] {
            if o.failed != 0 {
                ok = false;
                println!("{w}: {} of {} operations failed", o.failed, o.attempted);
                for n in o.notes.iter().filter(|n| n.starts_with("FAILED")) {
                    println!("  {n}");
                }
            }
        }
        println!(
            "{w}: exact counters repeat: {}",
            if repeat { "yes" } else { "NO" }
        );
    }
    if !load::matches_library(seed) {
        ok = false;
        println!("load-open: benchmark recipe differs from amacl_checker::run_load");
    } else {
        println!("load-open: benchmark recipe matches amacl_checker::run_load");
    }
    ok
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test [--seed <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut self_test_mode = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage());
                if !(seconds.is_finite() && seconds >= 0.0) {
                    usage();
                }
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--self-test" => self_test_mode = true,
            _ => usage(),
        }
    }
    if self_test_mode {
        let ok = self_test(seed);
        println!("self-test: {}", if ok { "PASS" } else { "FAIL" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    run(&Args {
        workload,
        seed,
        seconds,
        trace,
    });
}
