//! The JSONL writer's bytes: its `f64` fast path prints exactly what
//! `format!("{v}")` prints, and a faulted mixed-consistency run, which
//! exercises every event type the golden log lacks, streams lines that
//! parse and re-serialize to the same bytes.

use radar_core::{Catalog, ConsistencyMix};
use radar_sim::obs::{Event, EventKind, Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar_sim::{FaultSpec, Scenario, Simulation};
use radar_simcore::SimRng;
use radar_workload::ZipfReeds;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The `"t"` field of `event` as the writer prints it.
fn written_t<'a>(event: &mut Event, v: f64, buf: &'a mut String) -> &'a str {
    event.t = v;
    buf.clear();
    event.write_json_line(buf);
    let start = buf.find(",\"t\":").expect("t field") + 5;
    let end = buf.find(",\"parent\":").expect("parent field");
    &buf[start..end]
}

#[test]
fn f64_writer_matches_display_on_a_million_values() {
    let mut rng = SimRng::seed_from(0x6a73_6f6e_6c66_3634);
    let mut event = Event {
        seq: 1,
        parent: None,
        t: 0.0,
        queue_depth: 0,
        kind: EventKind::RequestArrived {
            gateway: 0,
            object: 0,
        },
    };
    let mut buf = String::new();
    let mut expected = String::new();
    let mut check = |v: f64| {
        expected.clear();
        if v.is_finite() {
            use std::fmt::Write as _;
            let _ = write!(expected, "{v}");
        } else {
            expected.push_str("null");
        }
        assert_eq!(
            written_t(&mut event, v, &mut buf),
            expected,
            "bits {:#x}",
            v.to_bits()
        );
    };
    for i in 0..1_050_000u64 {
        let v = match i % 3 {
            // Any bit pattern: every exponent, subnormals, NaN, ±∞.
            0 => f64::from_bits(rng.next_u64()),
            // The k/10⁶ grid at every magnitude up to and past the
            // fast path's 10⁹ limit, both signs.
            1 => {
                let digits = rng.index(18) as u32;
                let k = rng.next_u64() % 10u64.pow(digits).max(1);
                let v = k as f64 / 1e6;
                if rng.chance(0.5) {
                    -v
                } else {
                    v
                }
            }
            // Small rationals, mostly off the grid.
            _ => {
                let num = rng.index(20_001) as f64 - 10_000.0;
                let den = (rng.index(999) + 1) as f64;
                num / den
            }
        };
        check(v);
    }
    for v in [
        0.0,
        -0.0,
        1e-6,
        -1e-6,
        5e-7,
        0.1 + 0.2,
        999_999_999.999_999,
        -999_999_999.999_999,
        1e9,
        1e9 - 1e-6,
        9_007_199_254_740_991.0,
        1e21,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::NAN,
        f64::NEG_INFINITY,
    ] {
        check(v);
    }
}

/// A `Write` whose bytes stay readable after the recorder that owns a
/// clone of it is gone.
#[derive(Clone, Default)]
struct SharedBytes(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBytes {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Crashes, a partition that cuts Calgary (node 15) off from both its
/// neighbours, and a slow trunk, over a mixed-consistency catalog with
/// provider updates.
fn faulted_mixed_scenario() -> Scenario {
    const OBJECTS: u32 = 60;
    let nodes = radar_simnet::builders::uunet().len() as u16;
    let faults = FaultSpec::new()
        .with_min_replicas(2)
        .with_declare_dead_after(40.0)
        .host_down(5, 60.0, Some(180.0))
        .host_down(12, 120.0, None)
        .link_down(14, 15, 100.0, Some(200.0))
        .link_down(0, 15, 100.0, Some(200.0))
        .link_slow(21, 22, 4.0, 30.0, Some(200.0));
    Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(0.5)
        .duration(250.0)
        .seed(7)
        .catalog(Catalog::with_mix(
            OBJECTS,
            12 * 1024,
            nodes,
            ConsistencyMix::Mixed,
        ))
        .update_rate(2.0)
        .faults(faults)
        .build()
        .expect("valid scenario")
}

#[test]
fn faulted_mixed_run_streams_lines_that_round_trip() {
    let scenario = faulted_mixed_scenario();
    let sink = SharedBytes::default();
    let recorder = SharedRecorder::from_recorder(
        Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(sink.clone())),
    );
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(60)));
    sim.attach_observer(Box::new(recorder.clone()));
    sim.run();
    assert_eq!(recorder.finish(), None, "sink error");

    let bytes = sink.0.lock().expect("sink lock").clone();
    let text = String::from_utf8(bytes).expect("utf-8 log");
    let mut seen = std::collections::BTreeMap::<&'static str, u64>::new();
    for line in text.lines() {
        let event = Event::from_json_line(line)
            .unwrap_or_else(|e| panic!("line does not parse ({e}): {line}"));
        assert_eq!(event.to_json_line(), line, "re-serialized bytes differ");
        *seen.entry(event.type_name()).or_default() += 1;
    }
    for kind in [
        "fault",
        "re-replication",
        "provider-update",
        "update-delivered",
        "failed",
    ] {
        assert!(seen.contains_key(kind), "no {kind} event in {seen:?}");
    }
}
