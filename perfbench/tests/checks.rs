//! The benchmark's own tests, at miniature scale: every workload passes
//! its output checks, the timing decorators leave the simulation's
//! outputs untouched, and a wrong expected digest fails the command.

use std::process::Command;
use std::sync::Arc;

use radar_perfbench::alloc;
use radar_perfbench::digest::report_digest;
use radar_perfbench::layers::{
    ByteCounter, ObserverTally, PlacementTally, Tally, TimedObserver, TimedPlacement,
    TimedWorkload, TimedWrite,
};
use radar_perfbench::probe::Probe;
use radar_perfbench::run::{self, Options, END_TO_END, PER_LAYER};
use radar_perfbench::workloads::{self, Inputs, Kind, Scale};
use radar_sim::obs::{Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar_sim::{PlacementPolicy, RadarPlacement, RadarSelection, Simulation};
use radar_workload::Workload;

const SEED: u64 = 7;

fn mini(kind: Kind, trace: bool) -> Options {
    Options {
        kind,
        seed: SEED,
        seconds: 0.0,
        trace,
        scale: Scale::Mini,
        expect_digest: None,
    }
}

#[test]
fn every_workload_passes_its_output_checks() {
    for kind in workloads::ALL {
        for trace in [false, true] {
            let outcome = run::run(&mini(kind, trace)).expect("mini inputs build");
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                kind.name(),
                outcome.problems
            );
            assert!(outcome.attempted > 0);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            }
            .iter()
            .map(|&(name, _)| name)
            .collect();
            assert_eq!(names, want);
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn observed_reproduces_steady() {
    let steady = run::run(&mini(Kind::Steady, false)).expect("mini inputs build");
    let observed = run::run(&mini(Kind::Observed, false)).expect("mini inputs build");
    assert!(steady.correct && observed.correct);
    assert_eq!(steady.digest, observed.digest);
}

/// Runs `kind`'s mini inputs through `build` and returns the report digest.
fn digest_with(kind: Kind, build: impl FnOnce(Inputs) -> Simulation) -> u64 {
    let inputs = kind.inputs(SEED, Scale::Mini).expect("mini inputs build");
    let mut sim = build(inputs);
    sim.run_until(f64::INFINITY);
    report_digest(&sim.finish())
}

fn with_policies(
    inputs: Inputs,
    workload: impl FnOnce(Box<dyn Workload + Send>) -> Box<dyn Workload + Send>,
    placement: Box<dyn PlacementPolicy + Send>,
) -> Simulation {
    Simulation::with_policies(
        inputs.scenario,
        workload(inputs.workload),
        Box::new(RadarSelection::new()),
        placement,
    )
}

#[test]
fn decorators_leave_the_report_unchanged() {
    // `churn` covers faults, updates and re-replication as well as the
    // request path and placement.
    for kind in [Kind::Steady, Kind::Churn] {
        let bare = digest_with(kind, |i| Simulation::new(i.scenario, i.workload));

        let workload = digest_with(kind, |i| {
            let timed = |w| -> Box<dyn Workload + Send> {
                Box::new(TimedWorkload::new(w, Arc::new(Tally::default())))
            };
            with_policies(i, timed, Box::new(RadarPlacement::new()))
        });
        assert_eq!(workload, bare, "{}: Workload decorator", kind.name());

        let placement = digest_with(kind, |i| {
            let timed =
                TimedPlacement::new(RadarPlacement::new(), Arc::new(PlacementTally::default()));
            with_policies(i, |w| w, Box::new(timed))
        });
        assert_eq!(
            placement,
            bare,
            "{}: PlacementPolicy decorator",
            kind.name()
        );

        let observer = digest_with(kind, |i| {
            let sink = TimedWrite::new(ByteCounter(Default::default()), Arc::new(Tally::default()));
            let recorder = Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(sink));
            let mut sim = Simulation::new(i.scenario, i.workload);
            sim.attach_observer(Box::new(TimedObserver::new(
                SharedRecorder::from_recorder(recorder),
                Arc::new(ObserverTally::default()),
            )));
            sim
        });
        assert_eq!(
            observer,
            bare,
            "{}: Observer and sink decorators",
            kind.name()
        );
    }
}

fn command(expect_digest: u64) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "steady", "--seed", &SEED.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--mini"])
        .args(["--expect-digest", &format!("{expect_digest:x}")])
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(out: &std::process::Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn a_wrong_expected_digest_fails_the_command() {
    let digest = run::run(&mini(Kind::Steady, false))
        .expect("mini inputs build")
        .digest;

    let right = command(digest);
    assert!(right.status.success(), "{}", last_line(&right));
    assert!(last_line(&right).starts_with("{\"correct\": true,"));

    let wrong = command(digest ^ 1);
    assert_eq!(wrong.status.code(), Some(1));
    let result = last_line(&wrong);
    assert!(result.starts_with("{\"correct\": false,"), "{result}");
    // Every request of a failed rep counts as failed.
    let field = |key: &str| -> String {
        let rest = &result[result.find(key).expect("key present") + key.len()..];
        rest.split(',').next().expect("a value").trim().to_string()
    };
    assert_eq!(field("\"attempted\":"), field("\"failed\":"));
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let names: Vec<&str> = workloads::ALL
        .iter()
        .map(|k| k.name())
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|&(n, _)| n))
        .collect();
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    assert_eq!(text.matches("\"name\":").count(), names.len());
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json gives {name} another unit than {unit}"
        );
    }
}

#[test]
fn the_probe_allocates_nothing() {
    let mut probe = Probe::new().expect("/proc/self/status is readable");
    let before = alloc::calls();
    for _ in 0..3 {
        assert!(probe.run().expect("the CPU clock is readable") > 0.0);
    }
    assert_eq!(alloc::calls(), before);
}
