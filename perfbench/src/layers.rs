//! Timing decorators around the simulator's public seams.
//!
//! Each decorator forwards every trait method to the value it wraps and
//! charges the wall time and allocator calls of the forwarded call to a
//! shared [`Tally`], which the benchmark reads after the run. Tallies are
//! atomics because the seams require `Send`; the benchmark itself is
//! single-threaded.

use std::cell::Cell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use radar_core::placement::{PlacementEnv, PlacementOutcome, PlacementScratch};
use radar_core::{HostState, ObjectId};
use radar_sim::obs::Event;
use radar_sim::{
    FailureReason, FaultTransition, Observer, PlacementPolicy, RelocationEvent, RequestRecord,
};
use radar_simcore::SimRng;
use radar_simnet::NodeId;
use radar_workload::Workload;

use crate::alloc;

/// Event-loop handler labels, as the loop profile names them.
pub const HANDLERS: [&str; 10] = [
    "arrival",
    "redirect",
    "arrive-at-host",
    "service-complete",
    "load-sample",
    "placement",
    "provider-update",
    "update-deliver",
    "fault",
    "declare-dead",
];

/// Index of `placement` in [`HANDLERS`].
const PLACEMENT: usize = 5;

thread_local! {
    /// Set while a [`TimedPlacement`] epoch runs.
    static IN_EPOCH: Cell<bool> = const { Cell::new(false) };
    /// Nanoseconds and allocator calls of observer callbacks made while
    /// [`IN_EPOCH`] was set, running totals.
    static NESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Index into [`HANDLERS`].
pub fn handler_index(label: &str) -> Option<usize> {
    HANDLERS.iter().position(|&h| h == label)
}

/// The handler that emits a flight-recorder event of type `ty`. Types
/// that more than one handler emits are charged to the usual one: a
/// failure to `redirect`, a counts reset to `placement`, a
/// re-replication to `declare-dead`.
fn emitting_handler(ty: &str) -> Option<usize> {
    let label = match ty {
        "request" => "arrival",
        "decision" | "failed" => "redirect",
        "served" => "service-complete",
        "placement" | "counts-reset" => "placement",
        "fault" => "fault",
        "re-replication" => "declare-dead",
        "provider-update" => "provider-update",
        "update-delivered" => "update-deliver",
        _ => return None,
    };
    handler_index(label)
}

/// Calls, wall nanoseconds and allocator calls charged to one span.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
    allocs: AtomicU64,
}

/// A [`Tally`] read out and reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls timed.
    pub calls: u64,
    /// Wall nanoseconds inside them.
    pub nanos: u64,
    /// Allocator calls inside them.
    pub allocs: u64,
}

impl std::ops::Add for Totals {
    type Output = Totals;

    fn add(self, o: Totals) -> Totals {
        Totals {
            calls: self.calls + o.calls,
            nanos: self.nanos + o.nanos,
            allocs: self.allocs + o.allocs,
        }
    }
}

impl Tally {
    /// Runs `f`, charging its wall time and allocator calls here.
    /// Returns `f`'s result and the nanoseconds it took.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let allocs = alloc::calls();
        let started = Instant::now();
        let result = f();
        let nanos = started.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.allocs
            .fetch_add(alloc::calls() - allocs, Ordering::Relaxed);
        (result, nanos)
    }

    /// Reads the tally and resets it to zero.
    pub fn take(&self) -> Totals {
        Totals {
            calls: self.calls.swap(0, Ordering::Relaxed),
            nanos: self.nanos.swap(0, Ordering::Relaxed),
            allocs: self.allocs.swap(0, Ordering::Relaxed),
        }
    }
}

/// Times [`Workload::choose`].
pub struct TimedWorkload {
    inner: Box<dyn Workload + Send>,
    tally: Arc<Tally>,
}

impl TimedWorkload {
    /// Wraps `inner`, charging to `tally`.
    pub fn new(inner: Box<dyn Workload + Send>, tally: Arc<Tally>) -> Self {
        TimedWorkload { inner, tally }
    }
}

impl Workload for TimedWorkload {
    fn choose(&mut self, now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        self.tally.time(|| self.inner.choose(now, gateway, rng)).0
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What [`TimedPlacement`] records besides its [`Tally`].
#[derive(Debug, Default)]
pub struct PlacementTally {
    /// Every `run_epoch` call.
    pub tally: Tally,
    /// Wall nanoseconds of each epoch, in call order.
    pub epoch_nanos: Mutex<Vec<u64>>,
    /// Placement actions taken (entries of `PlacementOutcome::decisions`).
    pub actions: AtomicU64,
}

/// Times [`PlacementPolicy::run_epoch`], charging its self time: the
/// epoch less the observer callbacks it triggered.
pub struct TimedPlacement<P> {
    inner: P,
    tally: Arc<PlacementTally>,
}

impl<P> TimedPlacement<P> {
    /// Wraps `inner`, charging to `tally`.
    pub fn new(inner: P, tally: Arc<PlacementTally>) -> Self {
        TimedPlacement { inner, tally }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for TimedPlacement<P> {
    fn run_epoch(
        &mut self,
        host: &mut HostState,
        now: f64,
        env: &mut dyn PlacementEnv,
        scratch: &mut PlacementScratch,
        out: &mut PlacementOutcome,
    ) {
        // Observers called back from inside the epoch are child spans:
        // their time and allocations are taken out of the epoch's.
        let nested_before = NESTED.with(Cell::get);
        let allocs = alloc::calls();
        let started = Instant::now();
        IN_EPOCH.with(|f| f.set(true));
        self.inner.run_epoch(host, now, env, scratch, out);
        IN_EPOCH.with(|f| f.set(false));
        let nanos = started.elapsed().as_nanos() as u64;
        let allocs = alloc::calls() - allocs;
        let nested = NESTED.with(Cell::get);
        let self_nanos = nanos.saturating_sub(nested.0 - nested_before.0);
        let tally = &self.tally.tally;
        tally.calls.fetch_add(1, Ordering::Relaxed);
        tally.nanos.fetch_add(self_nanos, Ordering::Relaxed);
        tally.allocs.fetch_add(
            allocs.saturating_sub(nested.1 - nested_before.1),
            Ordering::Relaxed,
        );
        self.tally
            .epoch_nanos
            .lock()
            .expect("the benchmark never panics while holding this lock")
            .push(self_nanos);
        self.tally
            .actions
            .fetch_add(out.decisions.len() as u64, Ordering::Relaxed);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Observer callbacks charged by emitting handler (the last slot holds
/// event types no handler is known for). Callbacks made from inside a
/// placement epoch are charged to `placement` whatever their type.
#[derive(Debug, Default)]
pub struct ObserverTally {
    /// Per handler, indexed like [`HANDLERS`].
    pub by_handler: [Tally; HANDLERS.len() + 1],
    /// Flight-recorder events delivered (`on_event` calls).
    pub events: AtomicU64,
}

impl ObserverTally {
    /// Sum over every handler, reset to zero.
    pub fn take_all(&self) -> (Totals, [u64; HANDLERS.len() + 1]) {
        let mut sum = Totals::default();
        let mut nanos = [0; HANDLERS.len() + 1];
        for (slot, tally) in nanos.iter_mut().zip(&self.by_handler) {
            let t = tally.take();
            *slot = t.nanos;
            sum = sum + t;
        }
        (sum, nanos)
    }

    fn time<R>(&self, handler: Option<usize>, f: impl FnOnce() -> R) -> R {
        let nested = IN_EPOCH.with(Cell::get);
        let slot = if nested {
            PLACEMENT
        } else {
            handler.unwrap_or(HANDLERS.len())
        };
        let allocs = alloc::calls();
        let (result, nanos) = self.by_handler[slot].time(f);
        if nested {
            let allocs = alloc::calls() - allocs;
            NESTED.with(|n| {
                let (ns, a) = n.get();
                n.set((ns + nanos, a + allocs));
            });
        }
        result
    }
}

/// Times every [`Observer`] callback, charging it to the handler that
/// delivered it.
pub struct TimedObserver<O> {
    inner: O,
    tally: Arc<ObserverTally>,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`, charging to `tally`.
    pub fn new(inner: O, tally: Arc<ObserverTally>) -> Self {
        TimedObserver { inner, tally }
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_request_served(&mut self, record: &RequestRecord) {
        let h = handler_index("service-complete");
        self.tally.time(h, || self.inner.on_request_served(record));
    }

    fn on_relocation(&mut self, event: &RelocationEvent) {
        let h = handler_index("placement");
        self.tally.time(h, || self.inner.on_relocation(event));
    }

    fn on_load_sample(&mut self, t: f64, max_load: f64) {
        let h = handler_index("load-sample");
        self.tally
            .time(h, || self.inner.on_load_sample(t, max_load));
    }

    fn on_fault(&mut self, transition: &FaultTransition) {
        let h = handler_index("fault");
        self.tally.time(h, || self.inner.on_fault(transition));
    }

    fn on_request_failed(&mut self, t: f64, object: u32, gateway: u16, reason: FailureReason) {
        let h = handler_index("redirect");
        self.tally.time(h, || {
            self.inner.on_request_failed(t, object, gateway, reason)
        });
    }

    fn on_re_replication(&mut self, t: f64, object: u32, target: u16, elapsed: f64) {
        let h = handler_index("declare-dead");
        self.tally.time(h, || {
            self.inner.on_re_replication(t, object, target, elapsed)
        });
    }

    fn wants_events(&self) -> bool {
        self.inner.wants_events()
    }

    fn on_event(&mut self, event: &Event) {
        self.tally.events.fetch_add(1, Ordering::Relaxed);
        let h = emitting_handler(event.type_name());
        self.tally.time(h, || self.inner.on_event(event));
    }

    // Delivered once, from `finish`: forwarded untimed.
    fn on_loop_profile(&mut self, profile: &radar_sim::obs::LoopProfile) {
        self.inner.on_loop_profile(profile);
    }

    fn on_reorder_stats(&mut self, stats: &radar_sim::obs::ReorderStats) {
        self.inner.on_reorder_stats(stats);
    }
}

/// Counts the bytes written through it and discards them, so a log's
/// formatting is measured and the disk is not.
#[derive(Debug)]
pub struct ByteCounter(pub Arc<AtomicU64>);

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Times every [`Write`] method of a sink.
pub struct TimedWrite<W> {
    inner: W,
    tally: Arc<Tally>,
}

impl<W> TimedWrite<W> {
    /// Wraps `inner`, charging to `tally`.
    pub fn new(inner: W, tally: Arc<Tally>) -> Self {
        TimedWrite { inner, tally }
    }
}

impl<W: Write> Write for TimedWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tally.time(|| self.inner.write(buf)).0
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.tally.time(|| self.inner.write_vectored(bufs)).0
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.tally.time(|| self.inner.write_all(buf)).0
    }

    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> io::Result<()> {
        self.tally.time(|| self.inner.write_fmt(args)).0
    }

    fn flush(&mut self) -> io::Result<()> {
        self.tally.time(|| self.inner.flush()).0
    }
}
