//! Runs a workload for a time budget, checks its outputs, and reduces
//! the repetitions to metrics.
//!
//! A *rep* is one simulation from scratch: set-up (`Scenario::build`,
//! `Simulation::new`, bootstrap via `run_until(0.0)`), then the run
//! (`run_until(duration)` + `finish`). Untraced reps give the end-to-end
//! metrics. A traced rep adds the loop profile and the timing decorators
//! of [`crate::layers`] and gives the per-layer metrics.
//!
//! `setup_s` and `run_s` are CPU seconds divided by the host's slowdown
//! as the [`crate::probe`] measured it around them, that is, seconds on
//! the reference host. The measured CPU and wall seconds are printed
//! beside them (`run_cpu_s`, `run_wall_s`, `host_slowdown`).

use std::io::BufWriter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use radar_sim::obs::{
    LedgerConfig, MetricsConfig, Recorder, SharedMetrics, SharedObjectLedger, SharedRecorder,
    DEFAULT_CAPACITY,
};
use radar_sim::{Observer, RadarPlacement, RadarSelection, RunReport, Scenario, Simulation};

use crate::digest::report_digest;
use crate::layers::{
    handler_index, ByteCounter, ObserverTally, PlacementTally, Tally, TimedObserver,
    TimedPlacement, TimedWorkload, HANDLERS,
};
use crate::probe::{Probe, REFERENCE_S};
use crate::workloads::{Inputs, Kind, Scale, DEFAULT_SEED};
use crate::{alloc, cpu_seconds, proc_status_kib};

/// End-to-end metrics, reported from untraced reps: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("requests_per_s", "1/s"),
    ("allocs_per_request", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported from traced reps: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workload.choose_ns", "ns"),
    ("workload.calls", "count"),
    ("loop.events", "count"),
    ("loop.residual_ns_per_event", "ns"),
    ("loop.queue_depth", "count"),
    ("loop.arrival_ns", "ns"),
    ("loop.redirect_ns", "ns"),
    ("loop.redirect_calls", "count"),
    ("loop.arrive-at-host_ns", "ns"),
    ("loop.service-complete_ns", "ns"),
    ("loop.placement_ns", "ns"),
    ("loop.load-sample_ns", "ns"),
    ("loop.declare-dead_ns", "ns"),
    ("loop.fault_ns", "ns"),
    ("loop.fault_calls", "count"),
    ("loop.provider-update_ns", "ns"),
    ("loop.update-deliver_ns", "ns"),
    ("placement.epoch_ns_p50", "ns"),
    ("placement.epoch_ns_p99", "ns"),
    ("placement.epochs", "count"),
    ("placement.actions", "count"),
    ("placement.allocs", "count"),
    ("observer.recorder_ns_per_event", "ns"),
    ("observer.ledger_ns_per_event", "ns"),
    ("observer.metrics_ns_per_event", "ns"),
    ("observer.allocs_per_event", "count"),
    ("sink.bytes_per_event", "B"),
    ("sink.write_ns_per_event", "ns"),
    ("sink.log_mb", "MB"),
    ("report.finish_s", "s"),
    ("setup.scenario_s", "s"),
    ("setup.new_s", "s"),
    ("setup.bootstrap_s", "s"),
    ("setup.rss_mb", "MiB"),
    ("trace.overhead", "ratio"),
];

/// Reps every run makes even when they overrun `--seconds`, so each
/// reported median has samples on both sides.
const MIN_REPS: usize = 3;

/// Fewest set-up-only samples an untraced run takes before its reps.
const SETUP_SAMPLES: usize = 8;

/// Slices an untraced run is cut into (`run_until` at evenly spaced
/// simulated times), with a host-speed probe before each and one after
/// the last.
const SLICES: u32 = 32;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed for the generated scenario and workload.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Digest every report must have; defaults to the recorded one on
    /// the default seed at full scale and to none otherwise.
    pub expect_digest: Option<u64>,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Simulated requests attempted (delivered + failed) over all reps.
    pub attempted: u64,
    /// Requests of reps whose output checks failed. Requests the
    /// simulated platform failed under injected faults are a checked
    /// output of a correct run, not failures of the benchmark; they
    /// count in the `failed_share` extra.
    pub failed: u64,
    /// [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), in order.
    pub metrics: Vec<Metric>,
    /// Human-readable extras: the measured `run_cpu_s` and
    /// `run_wall_s`, the probe's `host_slowdown`, `failed_share`
    /// (simulated failures plus failed reps, over attempts), and
    /// `log_mb` when a log is written.
    pub extras: Vec<Metric>,
    /// The report digest every rep agreed on (the first rep's if not).
    pub digest: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// One line per rep with its seconds, and a summary of the
    /// set-up-only samples.
    pub reps: Vec<String>,
}

/// One finished rep.
struct Rep {
    /// CPU seconds of set-up, scaled to the reference host.
    setup_s: f64,
    /// CPU seconds of the run, scaled to the reference host.
    run_s: f64,
    /// CPU seconds of the run as measured.
    run_cpu_s: f64,
    /// Wall seconds of the run.
    run_wall_s: f64,
    /// Host speed during the run: probe seconds over [`REFERENCE_S`]
    /// (above 1 on a slower host).
    slowdown: f64,
    allocs: u64,
    delivered: u64,
    failed: u64,
    digest: u64,
    /// Bytes the flight recorder streamed (`observed` only).
    log_bytes: u64,
    /// Failed checks of this rep.
    problems: Vec<String>,
    /// Per-layer metrics, on traced reps.
    layers: Vec<Metric>,
}

/// The scalar scenario settings a rep needs after the scenario is moved
/// into the simulation.
#[derive(Debug, Clone, Copy)]
struct Shape {
    duration: f64,
    nodes: u64,
    rate: f64,
    object_size: u64,
    placement_period: f64,
    metric_bin: f64,
    load_interval: f64,
}

impl Shape {
    fn of(s: &Scenario) -> Self {
        Shape {
            duration: s.duration,
            nodes: u64::from(s.num_nodes()),
            rate: s.node_request_rate,
            object_size: s.object_size,
            placement_period: s.params.placement_period,
            metric_bin: s.metric_bin,
            load_interval: s.params.measurement_interval,
        }
    }
}

/// Timing tallies of one traced rep.
#[derive(Default)]
struct Tallies {
    workload: Arc<Tally>,
    placement: Arc<PlacementTally>,
    recorder: Arc<ObserverTally>,
    ledger: Arc<ObserverTally>,
    metrics: Arc<ObserverTally>,
    sink: Arc<Tally>,
}

impl Tallies {
    /// Zeroes every tally; returns the workload calls it held.
    fn reset(&self) -> u64 {
        let placement = &self.placement;
        placement.tally.take();
        placement
            .epoch_nanos
            .lock()
            .expect("the benchmark never panics while holding this lock")
            .clear();
        placement.actions.store(0, Ordering::Relaxed);
        for observer in [&self.recorder, &self.ledger, &self.metrics] {
            observer.take_all();
            observer.events.store(0, Ordering::Relaxed);
        }
        self.sink.take();
        self.workload.take().calls
    }
}

/// The watching stack of `radar simulate --events --ledger --dashboard`.
struct Watchers {
    recorder: SharedRecorder,
    ledger: SharedObjectLedger,
    metrics: SharedMetrics,
    log_bytes: Arc<AtomicU64>,
}

impl Watchers {
    fn attach(sim: &mut Simulation, shape: Shape, tallies: Option<&Tallies>) -> Self {
        let log_bytes = Arc::new(AtomicU64::new(0));
        let sink = BufWriter::new(ByteCounter(log_bytes.clone()));
        let sink: Box<dyn std::io::Write + Send> = match tallies {
            Some(t) => Box::new(crate::layers::TimedWrite::new(sink, t.sink.clone())),
            None => Box::new(sink),
        };
        let recorder =
            SharedRecorder::from_recorder(Recorder::new(DEFAULT_CAPACITY).with_sink(sink));
        let ledger = SharedObjectLedger::new(LedgerConfig {
            object_size: shape.object_size,
            churn_window: 2.0 * shape.placement_period,
            ..LedgerConfig::default()
        });
        let metrics = SharedMetrics::new(MetricsConfig {
            object_size: shape.object_size,
            bandwidth_bin: shape.metric_bin,
            load_interval: shape.load_interval,
            ..MetricsConfig::default()
        });
        attach(sim, recorder.clone(), tallies.map(|t| &t.recorder));
        attach(sim, ledger.clone(), tallies.map(|t| &t.ledger));
        attach(sim, metrics.clone(), tallies.map(|t| &t.metrics));
        Watchers {
            recorder,
            ledger,
            metrics,
            log_bytes,
        }
    }

    /// Flushes and finalizes the stack; returns the failed checks.
    fn finish(&self, duration: f64, report: &RunReport) -> Vec<String> {
        let mut problems = Vec::new();
        if let Some(err) = self.recorder.finish() {
            problems.push(format!("event sink failed: {err}"));
        }
        self.ledger.finalize(duration);
        self.metrics.finalize(duration);
        let violations = self.ledger.with(|l| l.auditor().violations().len());
        if violations > 0 {
            problems.push(format!("invariant auditor reports {violations} violations"));
        }
        let (requests, served, failed) = self
            .metrics
            .with(|m| (m.requests(), m.served(), m.failed()));
        if served != report.total_requests || failed != report.failed_requests {
            problems.push(format!(
                "metrics fold saw {served} served / {failed} failed, report {} / {}",
                report.total_requests, report.failed_requests
            ));
        }
        if requests < served + failed {
            problems.push(format!(
                "metrics fold: {requests} requests arrived but {} completed",
                served + failed
            ));
        }
        problems
    }
}

/// Attaches `observer`, wrapped in a [`TimedObserver`] when traced.
fn attach<O: Observer + 'static>(
    sim: &mut Simulation,
    observer: O,
    tally: Option<&Arc<ObserverTally>>,
) {
    match tally {
        Some(tally) => sim.attach_observer(Box::new(TimedObserver::new(observer, tally.clone()))),
        None => sim.attach_observer(Box::new(observer)),
    }
}

/// CPU seconds since `start` (a [`cpu_seconds`] reading).
fn since(start: f64) -> Result<f64, String> {
    Ok(cpu_seconds()? - start)
}

/// Requests arriving by `duration` under constant-rate arrivals, and the
/// largest deficit in-flight requests may explain: deliveries plus
/// failures must fall within this window.
fn arrival_window(shape: Shape) -> (f64, f64) {
    let expected = shape.nodes as f64 * shape.rate * shape.duration;
    (
        expected * 0.99 - shape.nodes as f64,
        expected + shape.nodes as f64,
    )
}

fn conservation_problems(shape: Shape, report: &RunReport) -> Vec<String> {
    let done = (report.total_requests + report.failed_requests) as f64;
    let (lo, hi) = arrival_window(shape);
    if (lo..=hi).contains(&done) {
        Vec::new()
    } else {
        vec![format!(
            "request conservation: {done} delivered + failed, expected {lo:.0}..={hi:.0}"
        )]
    }
}

/// An untraced simulation after set-up, ready to run.
struct Ready {
    sim: Simulation,
    watchers: Option<Watchers>,
    shape: Shape,
    /// Scaled to the reference host by a probe run just before.
    setup_s: f64,
}

/// Untraced set-up: builds the inputs, the simulation and (with
/// `watch`) the watching stack, and bootstraps it.
fn set_up(
    inputs: impl FnOnce() -> Result<Inputs, String>,
    watch: bool,
    probe: &mut Probe,
) -> Result<Ready, String> {
    let slowdown = probe.run()? / REFERENCE_S;
    let started = cpu_seconds()?;
    let Inputs { scenario, workload } = inputs()?;
    let shape = Shape::of(&scenario);
    let mut sim = Simulation::new(scenario, workload);
    let watchers = watch.then(|| Watchers::attach(&mut sim, shape, None));
    sim.run_until(0.0);
    Ok(Ready {
        sim,
        watchers,
        shape,
        setup_s: since(started)? / slowdown,
    })
}

/// One untraced rep; `watch` attaches the watching stack.
///
/// The run is cut into [`SLICES`] slices with probes between them, and
/// its time is scaled by the median probe: the host's speed while it
/// ran, robust to a probe that one interrupt slowed.
fn untraced_rep(
    inputs: impl FnOnce() -> Result<Inputs, String>,
    watch: bool,
    probe: &mut Probe,
) -> Result<Rep, String> {
    let mut probes = Vec::with_capacity(SLICES as usize + 1);
    let allocs = alloc::calls();
    let Ready {
        mut sim,
        watchers,
        shape,
        setup_s,
    } = set_up(inputs, watch, probe)?;

    let mut run_cpu_s = 0.0;
    let mut run_wall_s = 0.0;
    for k in 1..=SLICES {
        probes.push(probe.run()?);
        let until = if k == SLICES {
            shape.duration
        } else {
            shape.duration * f64::from(k) / f64::from(SLICES)
        };
        let started = cpu_seconds()?;
        let wall = Instant::now();
        sim.run_until(until);
        run_cpu_s += since(started)?;
        run_wall_s += wall.elapsed().as_secs_f64();
    }
    let started = cpu_seconds()?;
    let wall = Instant::now();
    let report = sim.finish();
    let mut problems = match &watchers {
        Some(w) => w.finish(shape.duration, &report),
        None => Vec::new(),
    };
    run_cpu_s += since(started)?;
    run_wall_s += wall.elapsed().as_secs_f64();
    let allocs = alloc::calls() - allocs;
    probes.push(probe.run()?);
    let slowdown = median(probes) / REFERENCE_S;

    problems.extend(conservation_problems(shape, &report));
    Ok(Rep {
        setup_s,
        run_s: run_cpu_s / slowdown,
        run_cpu_s,
        run_wall_s,
        slowdown,
        allocs,
        delivered: report.total_requests,
        failed: report.failed_requests,
        digest: report_digest(&report),
        log_bytes: watchers.map_or(0, |w| w.log_bytes.load(Ordering::Relaxed)),
        problems,
        layers: Vec::new(),
    })
}

/// One traced rep: loop profile on, every seam decorated.
///
/// The run is not sliced, so that the loop profile covers one
/// `run_until`; a probe before set-up and one after the run scale it.
fn traced_rep(
    inputs: impl FnOnce() -> Result<Inputs, String>,
    watch: bool,
    probe: &mut Probe,
) -> Result<Rep, String> {
    let probe_s = probe.run()?;
    let allocs = alloc::calls();
    let started = cpu_seconds()?;
    let Inputs { scenario, workload } = inputs()?;
    let shape = Shape::of(&scenario);
    let scenario_s = since(started)?;

    let tallies = Tallies::default();
    let t = cpu_seconds()?;
    let mut sim = Simulation::with_policies(
        scenario,
        Box::new(TimedWorkload::new(workload, tallies.workload.clone())),
        Box::new(RadarSelection::new()),
        Box::new(TimedPlacement::new(
            RadarPlacement::new(),
            tallies.placement.clone(),
        )),
    );
    let watchers = watch.then(|| Watchers::attach(&mut sim, shape, Some(&tallies)));
    let new_s = since(t)?;
    let t = cpu_seconds()?;
    sim.run_until(0.0);
    let bootstrap_s = since(t)?;
    let setup_s = since(started)?;
    let setup_rss_kib = proc_status_kib("VmRSS")?.saturating_sub(probe.resident_kib());

    // Bootstrap traffic is set-up: the layer metrics cover the run
    // alone (its arrivals still count for the conservation check).
    let boot_arrivals = tallies.reset();
    let log_at_start = watchers
        .as_ref()
        .map_or(0, |w| w.log_bytes.load(Ordering::Relaxed));

    sim.enable_loop_profile();
    let started = cpu_seconds()?;
    let wall = Instant::now();
    sim.run_until(shape.duration);
    let loop_ns = wall.elapsed().as_nanos() as u64;
    let t = cpu_seconds()?;
    let mut report = sim.finish();
    let mut problems = match &watchers {
        Some(w) => w.finish(shape.duration, &report),
        None => Vec::new(),
    };
    let finish_s = since(t)?;
    let run_cpu_s = since(started)?;
    let run_wall_s = wall.elapsed().as_secs_f64();
    let allocs = alloc::calls() - allocs;
    let slowdown = (probe_s + probe.run()?) / 2.0 / REFERENCE_S;
    problems.extend(conservation_problems(shape, &report));

    let workload = tallies.workload.take();
    let arrivals = boot_arrivals + workload.calls;
    let done = report.total_requests + report.failed_requests;
    if done > arrivals || arrivals - done > arrivals / 100 {
        problems.push(format!(
            "request conservation: {arrivals} arrivals, {done} delivered + failed"
        ));
    }
    if let Some(w) = &watchers {
        let folded = w.metrics.with(|m| m.requests());
        if folded != arrivals {
            problems.push(format!(
                "metrics fold saw {folded} arrivals, the workload {arrivals}"
            ));
        }
    }

    let profile = report
        .loop_profile
        .take()
        .ok_or("loop profile missing from a profiled run")?;
    let placement = tallies.placement.tally.take();
    let mut epochs = std::mem::take(
        &mut *tallies
            .placement
            .epoch_nanos
            .lock()
            .expect("the benchmark never panics while holding this lock"),
    );
    epochs.sort_unstable();
    let observers = [&tallies.recorder, &tallies.ledger, &tallies.metrics].map(|o| {
        let events = o.events.load(Ordering::Relaxed);
        let (totals, by_handler) = o.take_all();
        (events, totals, by_handler)
    });
    let sink = tallies.sink.take();
    let log_bytes = watchers
        .as_ref()
        .map_or(0, |w| w.log_bytes.load(Ordering::Relaxed));
    let run_log_bytes = log_bytes - log_at_start;

    // Self time of each handler: its profiled time less the spans of
    // the decorated layers it called into.
    let handler = |label: &str| {
        let i = handler_index(label).expect("a known handler label");
        let stats = profile.get(label).copied().unwrap_or_default();
        let mut children: u64 = observers.iter().map(|(_, _, by)| by[i]).sum();
        match label {
            "arrival" => children += workload.nanos,
            "placement" => children += placement.nanos,
            _ => {}
        }
        let self_ns = stats.total_ns.saturating_sub(children);
        (stats.count, per(self_ns, stats.count))
    };
    let handled_ns: u64 = HANDLERS
        .iter()
        .filter_map(|&h| profile.get(h))
        .map(|s| s.total_ns)
        .sum();
    let events = profile.total_events();
    let depth_sum: u64 = profile.rows().map(|(_, s)| s.depth_sum).sum();
    let [recorder, ledger, metrics] = observers;
    let delivered_events = recorder.0;
    let observer_totals = recorder.1 + ledger.1 + metrics.1;
    let recorder_self = recorder.1.nanos.saturating_sub(sink.nanos);

    let values: [f64; 34] = [
        per(workload.nanos, workload.calls),
        workload.calls as f64,
        events as f64,
        per(loop_ns.saturating_sub(handled_ns), events),
        per(depth_sum, events),
        handler("arrival").1,
        handler("redirect").1,
        handler("redirect").0 as f64,
        handler("arrive-at-host").1,
        handler("service-complete").1,
        handler("placement").1,
        handler("load-sample").1,
        handler("declare-dead").1,
        handler("fault").1,
        handler("fault").0 as f64,
        handler("provider-update").1,
        handler("update-deliver").1,
        nearest_rank(&epochs, 0.50),
        nearest_rank(&epochs, 0.99),
        placement.calls as f64,
        tallies.placement.actions.load(Ordering::Relaxed) as f64,
        placement.allocs as f64,
        per(recorder_self, recorder.0),
        per(ledger.1.nanos, ledger.0),
        per(metrics.1.nanos, metrics.0),
        per(observer_totals.allocs, delivered_events),
        per(run_log_bytes, delivered_events),
        per(sink.nanos, delivered_events),
        run_log_bytes as f64 / 1e6,
        finish_s,
        scenario_s,
        new_s,
        bootstrap_s,
        setup_rss_kib as f64 / 1024.0,
    ];
    let layers = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    Ok(Rep {
        setup_s: setup_s / slowdown,
        run_s: run_cpu_s / slowdown,
        run_cpu_s,
        run_wall_s,
        slowdown,
        allocs,
        delivered: report.total_requests,
        failed: report.failed_requests,
        digest: report_digest(&report),
        log_bytes,
        problems,
        layers,
    })
}

/// `total / count`, 0 when nothing was counted.
fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Nearest-rank percentile of sorted samples, 0 when there are none.
fn nearest_rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "a median needs at least one value");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `opts.kind` for `opts.seconds` and reduces the reps.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let Options {
        kind, seed, scale, ..
    } = *opts;
    let inputs = move || kind.inputs(seed, scale);
    let watch = kind.observed();
    let expected = opts
        .expect_digest
        .or_else(|| (seed == DEFAULT_SEED && scale == Scale::Full).then(|| kind.expected_digest()));

    let budget = std::time::Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut problems = Vec::new();
    let mut probe = Probe::new()?;
    // `observed` must reproduce the bare run exactly: one bare rep,
    // untimed, is the reference.
    let reference = if watch {
        Some(untraced_rep(inputs, false, &mut probe)?.digest)
    } else {
        None
    };

    let started = Instant::now();
    // Set-up alone, for a thirty-second of the budget and at least
    // `SETUP_SAMPLES` times: the reps alone give too few samples, and
    // the first (cold-heap) set-ups would weigh on their median.
    let mut setups = Vec::new();
    while !opts.trace && (setups.len() < SETUP_SAMPLES || started.elapsed() < budget / 32) {
        setups.push(set_up(inputs, watch, &mut probe)?.setup_s);
    }
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let t = Instant::now();
        untraced.push(untraced_rep(inputs, watch, &mut probe)?);
        if opts.trace {
            traced.push(traced_rep(inputs, watch, &mut probe)?);
        }
        let reps = untraced.len();
        let last = t.elapsed();
        let enough = if opts.trace {
            reps >= 1
        } else {
            reps >= MIN_REPS
        };
        if enough && started.elapsed() + last > budget {
            break;
        }
    }

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let digest = reference.unwrap_or(all[0].digest);
    let mut attempted = 0;
    let mut failed = 0;
    let mut unserved = 0;
    for rep in &all {
        let mut rep_problems = rep.problems.clone();
        if rep.digest != digest {
            rep_problems.push(format!(
                "report digest {:016x} differs from {digest:016x}",
                rep.digest
            ));
        }
        if let Some(want) = expected {
            if rep.digest != want {
                rep_problems.push(format!(
                    "report digest {:016x}, recorded {want:016x}",
                    rep.digest
                ));
            }
        }
        if rep.log_bytes != all[0].log_bytes {
            rep_problems.push(format!(
                "event log of {} bytes, first rep wrote {}",
                rep.log_bytes, all[0].log_bytes
            ));
        }
        let reqs = rep.delivered + rep.failed;
        attempted += reqs;
        if rep_problems.is_empty() {
            unserved += rep.failed;
        } else {
            failed += reqs;
        }
        problems.extend(rep_problems);
    }
    problems.sort();
    problems.dedup();
    let mut reps: Vec<String> = untraced
        .iter()
        .map(|r| ("untraced", r))
        .chain(traced.iter().map(|r| ("traced", r)))
        .map(|(what, r)| {
            format!(
                "{what} setup_s={} run_s={} run_cpu_s={} run_wall_s={} slowdown={}",
                r.setup_s, r.run_s, r.run_cpu_s, r.run_wall_s, r.slowdown
            )
        })
        .collect();
    if !setups.is_empty() {
        reps.push(format!(
            "set-up only: {} samples, median setup_s={}",
            setups.len(),
            median(setups.iter().copied())
        ));
    }

    let run_s = median(untraced.iter().map(|r| r.run_s));
    let run_cpu_s = median(untraced.iter().map(|r| r.run_cpu_s));
    let mut extras = vec![
        Metric {
            name: "run_cpu_s".into(),
            value: run_cpu_s,
            unit: "s",
        },
        Metric {
            name: "run_wall_s".into(),
            value: median(untraced.iter().map(|r| r.run_wall_s)),
            unit: "s",
        },
        Metric {
            name: "host_slowdown".into(),
            value: median(untraced.iter().map(|r| r.slowdown)),
            unit: "ratio",
        },
        Metric {
            name: "failed_share".into(),
            value: per(failed + unserved, attempted),
            unit: "share",
        },
    ];
    if watch {
        extras.push(Metric {
            name: "log_mb".into(),
            value: median(untraced.iter().map(|r| r.log_bytes as f64)) / 1e6,
            unit: "MB",
        });
    }
    let metrics = if opts.trace {
        let mut layers: Vec<Metric> = PER_LAYER[..PER_LAYER.len() - 1]
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| Metric {
                name: name.to_string(),
                value: median(traced.iter().map(|r| r.layers[i].value)),
                unit,
            })
            .collect();
        let (name, unit) = PER_LAYER[PER_LAYER.len() - 1];
        layers.push(Metric {
            name: name.to_string(),
            value: median(traced.iter().map(|r| r.run_cpu_s)) / run_cpu_s,
            unit,
        });
        layers
    } else {
        let values = [
            median(
                setups
                    .iter()
                    .copied()
                    .chain(untraced.iter().map(|r| r.setup_s)),
            ),
            run_s,
            median(untraced.iter().map(|r| r.delivered as f64)) / run_s,
            median(untraced.iter().map(|r| per(r.allocs, r.delivered))),
            proc_status_kib("VmHWM")?.saturating_sub(probe.resident_kib()) as f64 / 1024.0,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not a finite number: {}", m.name, m.value));
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        extras,
        digest,
        problems,
        reps,
    })
}
