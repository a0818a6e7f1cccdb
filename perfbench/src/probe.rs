//! The benchmark's own instruments: a counting global allocator, and
//! per-layer span aggregates fed by timing decorators wrapped around
//! the calls into each layer. Nothing here reaches inside the program:
//! every span starts and ends at a public API boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use amacl_model::prelude::*;

/// Counts allocator calls (allocations and reallocations) and the bytes
/// they request. Frees are not counted: they mirror allocations.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(calls, bytes)` requested from the allocator so far.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The layers a traced run attributes time to through decorators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Process::on_start`/`on_receive`/`on_ack`.
    Dispatch,
    /// `Scheduler::plan`.
    Plan,
    /// `Sim::run_until` (open-loop driver).
    RunUntil,
    /// `Sim::inject` (open-loop driver).
    Inject,
}

const LAYERS: [Layer; 4] = [Layer::Dispatch, Layer::Plan, Layer::RunUntil, Layer::Inject];

impl Layer {
    /// The layer's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Dispatch => "dispatch",
            Layer::Plan => "sched.plan",
            Layer::RunUntil => "engine.run_until",
            Layer::Inject => "engine.inject",
        }
    }
}

/// Span aggregate of one layer: count, total nanoseconds and a log2
/// histogram (bucket `i` holds durations in `[2^(i-1), 2^i)` ns).
/// Atomics, because decorated processes also run on engine workers;
/// cache-line aligned so stripes of different threads never share a
/// line.
#[repr(align(64))]
struct SpanAgg {
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: [AtomicU64; 64],
}

impl SpanAgg {
    const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            hist: [const { AtomicU64::new(0) }; 64],
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros()) as usize;
        self.hist[bucket.min(63)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Threads take stripes round-robin and record only into their own,
/// so concurrent engine workers do not contend on one counter (which
/// would inflate the traced run).
const STRIPES: usize = 8;

static SPANS: [[SpanAgg; 4]; STRIPES] = [const { [const { SpanAgg::new() }; 4] }; STRIPES];

static NEXT_STRIPE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STRIPE: usize = (NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) as usize) % STRIPES;
}

fn stripe() -> &'static [SpanAgg; 4] {
    &SPANS[STRIPE.with(|s| *s)]
}

/// A copied-out span aggregate.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Log2 histogram, trailing empty buckets trimmed.
    pub hist: Vec<u64>,
}

/// Zeroes every layer aggregate and the plan-target counter (call
/// before a traced run).
pub fn reset_spans() {
    for t in &PLAN_TARGETS {
        t.0.store(0, Ordering::Relaxed);
    }
    for agg in SPANS.iter().flatten() {
        agg.count.store(0, Ordering::Relaxed);
        agg.total_ns.store(0, Ordering::Relaxed);
        for b in &agg.hist {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The aggregate recorded for `layer` since the last reset, summed over
/// the stripes. Call after the threads that recorded have been joined.
pub fn span_stats(layer: Layer) -> SpanStats {
    let mut st = SpanStats {
        hist: vec![0; 64],
        ..SpanStats::default()
    };
    for agg in SPANS.iter().map(|s| &s[layer as usize]) {
        st.count += agg.count.load(Ordering::Relaxed);
        st.total_ns += agg.total_ns.load(Ordering::Relaxed);
        for (h, b) in st.hist.iter_mut().zip(&agg.hist) {
            *h += b.load(Ordering::Relaxed);
        }
    }
    while st.hist.last() == Some(&0) {
        st.hist.pop();
    }
    st
}

/// Every layer's aggregate, with its name.
pub fn all_span_stats() -> Vec<(&'static str, SpanStats)> {
    LAYERS.iter().map(|&l| (l.name(), span_stats(l))).collect()
}

/// Runs `f`, recording its duration under `layer`.
#[inline]
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    stripe()[layer as usize].record(start.elapsed().as_nanos() as u64);
    out
}

/// A [`Process`] decorator timing every callback as a dispatch span.
/// Its `Debug` output is the wrapped process's, so state fingerprints
/// (which the checkers take from `Debug`) are unchanged.
#[derive(Clone)]
pub struct Timed<P> {
    /// The decorated process.
    pub inner: P,
}

impl<P: fmt::Debug> fmt::Debug for Timed<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<P: Process> Process for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        timed(Layer::Dispatch, || self.inner.on_start(ctx));
    }

    fn on_receive(&mut self, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        timed(Layer::Dispatch, || self.inner.on_receive(msg, ctx));
    }

    fn on_ack(&mut self, ctx: &mut Context<'_, P::Msg>) {
        timed(Layer::Dispatch, || self.inner.on_ack(ctx));
    }
}

/// Targets planned by [`TimedSched`] since the last [`reset_spans`];
/// the plan count is the `Plan` span count.
static PLAN_TARGETS: [PaddedU64; STRIPES] = [const { PaddedU64(AtomicU64::new(0)) }; STRIPES];

/// A counter alone on its cache line.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Targets planned since the last reset.
pub fn plan_targets() -> u64 {
    PLAN_TARGETS
        .iter()
        .map(|t| t.0.load(Ordering::Relaxed))
        .sum()
}

/// A [`Scheduler`] decorator timing every `plan` call.
pub struct TimedSched<S>(pub S);

impl<S: Scheduler> Scheduler for TimedSched<S> {
    fn f_ack(&self) -> u64 {
        self.0.f_ack()
    }

    fn min_delay(&self) -> u64 {
        self.0.min_delay()
    }

    fn plan(&mut self, now: Time, sender: Slot, neighbors: &[Slot]) -> BroadcastPlan {
        PLAN_TARGETS[STRIPE.with(|s| *s)]
            .0
            .fetch_add(neighbors.len() as u64, Ordering::Relaxed);
        timed(Layer::Plan, || self.0.plan(now, sender, neighbors))
    }
}
