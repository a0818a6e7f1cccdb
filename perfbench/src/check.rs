//! `check-exhaustive`: a fixed set of exhaustive verdicts run through
//! `amacl_cli::run_cli`, the entry point a user calls. The checkers
//! never touch `Sim`, so this is the only workload that measures
//! `checker::explore` / `machine` / `explore_mac`.

use std::time::Instant;

use amacl_checker::explore_mac::{LedgerMutation, MacExploreConfig, MacExplorer, Reduction};
use amacl_checker::{ExploreConfig, Explorer};
use amacl_cli::spec::Command;
use amacl_core::baselines::flood_gather::FloodGather;
use amacl_core::multivalued::BitwiseTwoPhase;
use amacl_core::tree_gather::TreeGather;
use amacl_core::two_phase::TwoPhase;
use amacl_model::prelude::*;

use crate::probe::{self, Layer, Timed};
use crate::{median, peak_rss_mb, ratio, secs, timed_loop, Args, Outcome, SpanRec};

/// Set-up repetitions beyond the ones the timed iterations make.
const EXTRA_SETUPS: usize = 499;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Algo {
    TwoPhase,
    Bitwise1,
    TreeGather,
    FloodGather,
}

/// One verdict of the set.
struct Instance {
    args: &'static [&'static str],
    algo: Algo,
    clique: bool,
    inputs: [Value; 3],
    crash_budget: usize,
    /// `explore` (DPOR over the MAC seam) rather than `check`.
    dpor: bool,
    /// The verdict line's prefix the run must print.
    expect: &'static str,
}

const INSTANCES: [Instance; 6] = [
    Instance {
        args: &[
            "check",
            "--algo",
            "two-phase",
            "--topo",
            "clique:3",
            "--inputs",
            "0,1,1",
        ],
        algo: Algo::TwoPhase,
        clique: true,
        inputs: [0, 1, 1],
        crash_budget: 0,
        dpor: false,
        expect: "VERIFIED",
    },
    Instance {
        args: &[
            "check",
            "--algo",
            "bitwise:1",
            "--topo",
            "clique:3",
            "--inputs",
            "0,1,1",
        ],
        algo: Algo::Bitwise1,
        clique: true,
        inputs: [0, 1, 1],
        crash_budget: 0,
        dpor: false,
        expect: "VERIFIED",
    },
    // Theorem 3.2: no crash-tolerant consensus without knowing n.
    Instance {
        args: &[
            "check",
            "--algo",
            "two-phase",
            "--topo",
            "clique:3",
            "--crash-budget",
            "1",
        ],
        algo: Algo::TwoPhase,
        clique: true,
        inputs: [0, 1, 0],
        crash_budget: 1,
        dpor: false,
        expect: "VIOLATION: Termination",
    },
    Instance {
        args: &["check", "--algo", "tree-gather", "--topo", "line:3"],
        algo: Algo::TreeGather,
        clique: false,
        inputs: [0, 1, 0],
        crash_budget: 0,
        dpor: false,
        expect: "VERIFIED",
    },
    Instance {
        args: &["check", "--algo", "flood-gather", "--topo", "line:3"],
        algo: Algo::FloodGather,
        clique: false,
        inputs: [0, 1, 0],
        crash_budget: 0,
        dpor: false,
        expect: "VERIFIED",
    },
    Instance {
        args: &[
            "explore",
            "--algo",
            "two-phase",
            "--topo",
            "clique:3",
            "--inputs",
            "0,1,1",
        ],
        algo: Algo::TwoPhase,
        clique: true,
        inputs: [0, 1, 1],
        crash_budget: 0,
        dpor: true,
        expect: "VERIFIED",
    },
];

impl Instance {
    fn argv(&self) -> Vec<String> {
        self.args.iter().map(|s| s.to_string()).collect()
    }

    fn topology(&self) -> Topology {
        if self.clique {
            Topology::clique(3)
        } else {
            Topology::line(3)
        }
    }

    /// Constructs this instance's explorer over `topo`, as set-up does. When
    /// `traced`, the processes are timing-decorated and the exploration
    /// runs; returns the states explored (0 when only constructed).
    fn explorer(&self, topo: Topology, traced: bool) -> u64 {
        let inputs = self.inputs.to_vec();
        macro_rules! go {
            ($make:expr) => {{
                if traced {
                    let procs = inputs.iter().map(|&v| Timed { inner: $make(v) }).collect();
                    self.run_explorer(topo, procs, inputs.clone(), true)
                } else {
                    let procs = inputs.iter().map(|&v| $make(v)).collect();
                    self.run_explorer(topo, procs, inputs.clone(), false)
                }
            }};
        }
        match self.algo {
            Algo::TwoPhase => go!(TwoPhase::new),
            Algo::Bitwise1 => go!(|v| BitwiseTwoPhase::new(v, 1)),
            Algo::TreeGather => go!(|v| TreeGather::new(v, 3)),
            Algo::FloodGather => go!(|v| FloodGather::new(v, 3)),
        }
    }

    fn run_explorer<P>(
        &self,
        topo: Topology,
        procs: Vec<P>,
        inputs: Vec<Value>,
        explore: bool,
    ) -> u64
    where
        P: Process + Clone + std::fmt::Debug,
    {
        // The configurations the CLI uses by default.
        if self.dpor {
            let ex = MacExplorer::new(topo, procs, inputs, self.crash_budget, LedgerMutation::None);
            if !explore {
                return 0;
            }
            let cfg = MacExploreConfig {
                max_states: 500_000,
                max_depth: 10_000,
                max_violations: 1,
                reduction: Reduction::Dpor,
            };
            ex.run(&cfg).states
        } else {
            let ex = Explorer::new(topo, procs, inputs, self.crash_budget);
            if !explore {
                return 0;
            }
            ex.run(ExploreConfig::default()).states as u64
        }
    }
}

/// What one CLI verdict reported.
#[derive(Clone, PartialEq, Debug)]
struct Verdict {
    states: u64,
    transitions: u64,
    distinct: u64,
    ok: bool,
}

/// Parses the CLI report: the numbers before `states`, `distinct` and
/// `transitions` on its `explored ...` line (the last two only on the
/// DPOR report), and whether the expected verdict line is present.
fn parse(report: &str, expect: &str) -> Verdict {
    let explored = report
        .lines()
        .find(|l| l.starts_with("explored "))
        .unwrap_or("");
    let words: Vec<&str> = explored
        .split([' ', ',', '(', ')'])
        .filter(|w| !w.is_empty())
        .collect();
    let before = |word: &str| -> u64 {
        words
            .windows(2)
            .find(|w| w[1] == word)
            .and_then(|w| w[0].parse().ok())
            .unwrap_or(0)
    };
    Verdict {
        states: before("states"),
        transitions: before("transitions"),
        distinct: before("distinct"),
        ok: report.lines().any(|l| l.starts_with(expect)),
    }
}

/// Set-up of the whole set: parse each command line the way the CLI
/// does, build each topology, and construct each explorer. Returns
/// `(topology_s, build_s)` summed over the instances.
fn setup() -> (f64, f64) {
    let (mut topo_s, mut build_s) = (0.0, 0.0);
    for inst in &INSTANCES {
        let t = Instant::now();
        let topo = inst.topology();
        topo_s += secs(t);
        let t = Instant::now();
        std::hint::black_box(Command::parse(&inst.argv()).expect("benchmark instances parse"));
        inst.explorer(topo, false);
        build_s += secs(t);
    }
    (topo_s, build_s)
}

/// Measures the verdict set. The seed only rotates the order in which
/// the six verdicts run; the set itself is fixed.
pub fn measure(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let order: Vec<&Instance> = (0..INSTANCES.len())
        .map(|i| &INSTANCES[(i + args.seed as usize % INSTANCES.len()) % INSTANCES.len()])
        .collect();

    for _ in 0..EXTRA_SETUPS {
        let (t, b) = setup();
        out.setup_s.push(t + b);
    }

    let mut first: Option<Vec<Verdict>> = None;
    timed_loop(args.seconds, || {
        let (t, b) = setup();
        out.setup_s.push(t + b);
        let start = Instant::now();
        let reports: Vec<Result<String, String>> = order
            .iter()
            .map(|inst| amacl_cli::run_cli(&inst.argv()))
            .collect();
        let wall = secs(start);
        let verdicts = judge(&mut out, &order, &reports, first.as_deref(), "timed run");
        out.wall_s.push(wall);
        out.work_per_sec
            .push(verdicts.iter().map(|v| v.states).sum::<u64>() as f64 / wall);
        if first.is_none() {
            out.peak_rss_mb = peak_rss_mb();
        }
        first.get_or_insert(verdicts);
    });
    let verdicts = first.expect("timed loop runs at least once");
    let states: u64 = verdicts.iter().map(|v| v.states).sum();
    out.notes.push(format!(
        "check-exhaustive: {} verdicts, {states} states explored per pass",
        verdicts.len()
    ));
    if !args.trace {
        return out;
    }

    // Traced pass 1: the CLI entry point, one run-level span per verdict.
    let mut cli_ns = 0u64;
    let mut reports = Vec::new();
    for inst in &order {
        let t = Instant::now();
        reports.push(amacl_cli::run_cli(&inst.argv()));
        let ns = t.elapsed().as_nanos() as u64;
        cli_ns += ns;
        out.runs.push(SpanRec {
            name: format!("checker.run_cli {}", inst.args.join(" ")),
            ns,
        });
    }
    let traced = judge(&mut out, &order, &reports, Some(&verdicts), "traced run");
    let traced_states: u64 = traced.iter().map(|v| v.states).sum();

    // Traced pass 2: the same explorations through the checker API over
    // timing-decorated processes, for the dispatch layer. Their state
    // counts must match the CLI's.
    probe::reset_spans();
    let t = Instant::now();
    for (inst, v) in order.iter().zip(&verdicts) {
        let states = inst.explorer(inst.topology(), true);
        out.check(states == v.states, || {
            format!(
                "decorated {:?}: {states} states, CLI {}",
                inst.args, v.states
            )
        });
    }
    let direct_ns = t.elapsed().as_nanos() as f64;
    let dispatch = probe::span_stats(Layer::Dispatch);

    let (topo_s, build_s) = setup();
    let dpor = verdicts
        .iter()
        .zip(&order)
        .find(|(_, i)| i.dpor)
        .map(|(v, _)| v.clone());
    let (transitions, distinct, dpor_states) =
        dpor.map_or((0, 0, 0), |v| (v.transitions, v.distinct, v.states));
    out.layer("setup.topology_s", topo_s);
    out.layer("setup.build_s", build_s);
    out.layer("dispatch.calls", dispatch.count as f64);
    out.layer(
        "dispatch.ns_per_call",
        ratio(dispatch.total_ns as f64, dispatch.count as f64),
    );
    out.layer("dispatch.share", ratio(dispatch.total_ns as f64, direct_ns));
    out.layer("checker.states", states as f64);
    out.layer("checker.transitions", transitions as f64);
    out.layer(
        "checker.distinct_ratio",
        ratio(distinct as f64, dpor_states as f64),
    );
    out.layer(
        "checker.ns_per_state",
        ratio(cli_ns as f64, traced_states as f64),
    );
    out.layer(
        "trace_overhead_pct",
        (direct_ns / 1e9 / median(&out.wall_s) - 1.0) * 100.0,
    );
    out
}

/// Checks one pass: every verdict is the expected one, and the explored
/// state counts equal the first pass's.
fn judge(
    out: &mut Outcome,
    order: &[&Instance],
    reports: &[Result<String, String>],
    first: Option<&[Verdict]>,
    label: &str,
) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for (i, (inst, report)) in order.iter().zip(reports).enumerate() {
        let v = match report {
            Ok(text) => parse(text, inst.expect),
            Err(e) => {
                out.notes
                    .push(format!("{label}: {:?} errored: {e}", inst.args));
                Verdict {
                    states: 0,
                    transitions: 0,
                    distinct: 0,
                    ok: false,
                }
            }
        };
        let same = first.is_none_or(|f| f[i] == v);
        out.check(v.ok && same, || {
            format!(
                "{label}: {:?} expected {}, got {v:?}",
                inst.args, inst.expect
            )
        });
        verdicts.push(v);
    }
    verdicts
}
