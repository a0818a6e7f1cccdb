//! Replays of a traced run's broadcast/delivery/ack stream through the
//! public `EventQueue` (both cores) and `BcastLedger` APIs. The engine
//! owns its queue and ledger privately, so these replays are the
//! outside-in estimate of what those two layers cost per operation on
//! exactly the traffic the run produced.

use std::time::Instant;

use amacl_model::mac::BcastLedger;
use amacl_model::prelude::*;
use amacl_model::sim::trace::{Trace, TraceEvent};

use crate::{median, ratio, Outcome};

/// Queue step of the replay: schedule every traced child (deliveries
/// and ack) of one broadcast, or pop the next due event.
#[derive(Clone, Copy)]
enum QueueOp {
    Push { start: u32, len: u32 },
    Pop { due: u64 },
}

/// Ledger step of the replay, in trace order.
#[derive(Clone, Copy)]
enum LedgerOp {
    Admit { from: u32 },
    Deliver { from: u32 },
    Crash { slot: u32 },
}

/// The decoded stream, built once so the timed replays touch nothing
/// but the layer under test.
pub struct Stream {
    nodes: usize,
    /// `(due time, class)` of every traced child, grouped per broadcast.
    children: Vec<(u64, u8)>,
    queue_ops: Vec<QueueOp>,
    ledger_ops: Vec<LedgerOp>,
}

const DELIVER_CLASS: u8 = 1;
const ACK_CLASS: u8 = 2;

impl Stream {
    /// Decodes `trace` of an `nodes`-node run. Every traced delivery
    /// and ack belongs to its sender's latest broadcast: the model
    /// allows one outstanding broadcast per node, acked only after all
    /// its deliveries.
    pub fn from_trace(trace: &Trace, nodes: usize) -> Self {
        let events = trace.events();
        // Pass 1: group children per broadcast.
        let mut current: Vec<usize> = vec![usize::MAX; nodes];
        let mut groups: Vec<Vec<(u64, u8)>> = Vec::new();
        for ev in events {
            match *ev {
                TraceEvent::Broadcast { slot, .. } => {
                    current[slot.index()] = groups.len();
                    groups.push(Vec::new());
                }
                TraceEvent::Deliver { time, from, .. } => {
                    groups[current[from.index()]].push((time.ticks(), DELIVER_CLASS));
                }
                TraceEvent::Ack { time, slot } => {
                    groups[current[slot.index()]].push((time.ticks(), ACK_CLASS));
                }
                TraceEvent::Crash { .. } | TraceEvent::Decide { .. } => {}
            }
        }
        // Pass 2: the op streams.
        let mut children = Vec::new();
        let mut queue_ops = Vec::new();
        let mut ledger_ops = Vec::new();
        let mut next_group = 0;
        for ev in events {
            match *ev {
                TraceEvent::Broadcast { slot, .. } => {
                    let g = &groups[next_group];
                    next_group += 1;
                    queue_ops.push(QueueOp::Push {
                        start: children.len() as u32,
                        len: g.len() as u32,
                    });
                    children.extend_from_slice(g);
                    ledger_ops.push(LedgerOp::Admit {
                        from: slot.index() as u32,
                    });
                }
                TraceEvent::Deliver { time, from, .. } => {
                    queue_ops.push(QueueOp::Pop { due: time.ticks() });
                    ledger_ops.push(LedgerOp::Deliver {
                        from: from.index() as u32,
                    });
                }
                TraceEvent::Ack { time, .. } => {
                    queue_ops.push(QueueOp::Pop { due: time.ticks() });
                }
                TraceEvent::Crash { slot, .. } => {
                    ledger_ops.push(LedgerOp::Crash {
                        slot: slot.index() as u32,
                    });
                }
                TraceEvent::Decide { .. } => {}
            }
        }
        Self {
            nodes,
            children,
            queue_ops,
            ledger_ops,
        }
    }

    /// Queue operations one replay performs (pushes plus pops).
    fn queue_op_count(&self) -> u64 {
        let pops = self
            .queue_ops
            .iter()
            .filter(|op| matches!(op, QueueOp::Pop { .. }))
            .count();
        (self.children.len() + pops) as u64
    }

    /// Ledger operations one replay performs.
    fn ledger_op_count(&self) -> u64 {
        self.ledger_ops.len() as u64
    }

    /// Replays the queue stream on `core`; returns the elapsed
    /// nanoseconds. Panics if the queue pops an event at another time
    /// than the trace recorded, which would make the replay unfaithful.
    fn replay_queue(&self, core: QueueCoreKind) -> u64 {
        let mut q: EventQueue<u32> = EventQueue::with_core(core);
        let start = Instant::now();
        let mut mismatches = 0u64;
        for op in &self.queue_ops {
            match *op {
                QueueOp::Push { start, len } => {
                    let group = &self.children[start as usize..(start + len) as usize];
                    for (i, &(due, class)) in group.iter().enumerate() {
                        q.push(Time(due), class, i as u32);
                    }
                }
                QueueOp::Pop { due } => {
                    let ev = q.pop().expect("replay pops only scheduled events");
                    mismatches += u64::from(ev.time.ticks() != due);
                }
            }
        }
        let ns = start.elapsed().as_nanos() as u64;
        assert_eq!(mismatches, 0, "queue replay diverged from the trace");
        assert!(q.is_empty(), "queue replay left events behind");
        ns
    }

    /// Replays the ledger stream (admit, note delivery, crash — the
    /// calls the engine makes); returns the elapsed nanoseconds.
    fn replay_ledger(&self) -> u64 {
        let mut ledger = BcastLedger::new(self.nodes);
        let mut current = vec![0u64; self.nodes];
        let mut next_bcast = 0u64;
        let start = Instant::now();
        for op in &self.ledger_ops {
            match *op {
                LedgerOp::Admit { from } => {
                    current[from as usize] = next_bcast;
                    std::hint::black_box(ledger.admit_broadcast(from as usize, next_bcast));
                    next_bcast += 1;
                }
                LedgerOp::Deliver { from } => {
                    std::hint::black_box(ledger.note_delivery(current[from as usize]));
                }
                LedgerOp::Crash { slot } => {
                    std::hint::black_box(ledger.mark_crashed(slot as usize));
                }
            }
        }
        start.elapsed().as_nanos() as u64
    }
}

/// Replays `stream` three times on each queue core and through the
/// ledger, sets the replay metrics from the medians, and returns the
/// estimated nanoseconds the run spent in its own queue core (the
/// default one) and ledger.
pub fn replay_layers(out: &mut Outcome, stream: &Stream) -> f64 {
    let median3 = |f: &dyn Fn() -> u64| median(&[f() as f64, f() as f64, f() as f64]);
    let heap_ns = median3(&|| stream.replay_queue(QueueCoreKind::Heap));
    let calendar_ns = median3(&|| stream.replay_queue(QueueCoreKind::Calendar));
    let ledger_ns = median3(&|| stream.replay_ledger());
    let queue_ops = stream.queue_op_count() as f64;
    out.layer("queue.ns_per_op.heap", ratio(heap_ns, queue_ops));
    out.layer("queue.ns_per_op.calendar", ratio(calendar_ns, queue_ops));
    out.layer(
        "mac.ns_per_op",
        ratio(ledger_ns, stream.ledger_op_count() as f64),
    );
    let core_ns = match EngineConfig::default().queue_core {
        QueueCoreKind::Heap => heap_ns,
        QueueCoreKind::Calendar => calendar_ns,
    };
    core_ns + ledger_ns
}
