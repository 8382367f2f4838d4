//! Differential test of `HostState`'s replica table against a reference
//! model: an ordered map whose measurement windows roll eagerly, one
//! replica at a time, on every completed interval.
//!
//! Seeded random operation scripts (installs, `CreateObj` accepts,
//! affinity reductions, drops, accesses, services, clock advances and
//! access-count resets, under storage limits) run against both. After
//! every operation the touched object, and after every eighth the whole
//! table (ascending id snapshot, aggregates, every object), must agree:
//! affinity, access counts, acquisition time, and the measured rate and
//! unit load bit for bit. Enough distinct ids are
//! used that the table spans several slab pages, so drops move entries
//! between pages and multi-window clock jumps leave lazily rolled
//! counts behind.

use std::collections::BTreeMap;

use radar_core::{HostState, ObjectId, Params};
use radar_simcore::SimRng;
use radar_simnet::NodeId;

/// More ids than three slab pages hold.
const IDS: usize = 300;
const NODES: usize = 12;

#[derive(Debug, Default)]
struct RefObject {
    aff: u32,
    counts: Vec<(NodeId, u64)>,
    window_serviced: u64,
    rate: f64,
    acquired_at: f64,
}

struct RefHost {
    interval: f64,
    window_start: f64,
    storage_limit: Option<usize>,
    objects: BTreeMap<ObjectId, RefObject>,
}

impl RefHost {
    fn advance(&mut self, now: f64) {
        while now >= self.window_start + self.interval {
            for o in self.objects.values_mut() {
                o.rate = o.window_serviced as f64 / self.interval;
                o.window_serviced = 0;
            }
            self.window_start += self.interval;
        }
    }

    fn storage_full(&self) -> bool {
        self.storage_limit
            .is_some_and(|limit| self.objects.len() >= limit)
    }
}

/// Where a script is, for failure messages: `(seed, step, operation)`.
type Step<'a> = (u64, usize, &'a str);

/// Compares the whole table: the id snapshot, the aggregates, and every
/// object.
fn compare(host: &HostState, model: &RefHost, ids: &mut Vec<ObjectId>, step: Step) {
    host.collect_object_ids(ids);
    assert!(
        ids.iter().copied().eq(model.objects.keys().copied()),
        "{step:?}: id snapshot differs"
    );
    assert_eq!(host.object_count(), model.objects.len(), "{step:?}");
    assert_eq!(
        host.total_affinity(),
        model
            .objects
            .values()
            .map(|o| u64::from(o.aff))
            .sum::<u64>(),
        "{step:?}"
    );
    assert_eq!(host.storage_full(), model.storage_full(), "{step:?}");
    for &x in model.objects.keys() {
        compare_object(host, model, x, step);
    }
}

/// Compares one object's state (or its absence).
fn compare_object(host: &HostState, model: &RefHost, x: ObjectId, step: Step) {
    let Some(want) = model.objects.get(&x) else {
        assert!(!host.has_object(x), "{step:?}: {x} should be gone");
        return;
    };
    let got = host
        .object(x)
        .unwrap_or_else(|| panic!("{step:?}: {x} missing"));
    assert_eq!(got.aff(), want.aff, "{step:?}: aff of {x}");
    assert!(
        got.counts().eq(want.counts.iter().copied()),
        "{step:?}: counts of {x}"
    );
    assert_eq!(
        got.rate().to_bits(),
        want.rate.to_bits(),
        "{step:?}: rate of {x}"
    );
    assert_eq!(
        got.unit_load().to_bits(),
        (want.rate / f64::from(want.aff)).to_bits(),
        "{step:?}: unit load of {x}"
    );
    assert_eq!(
        got.acquired_at().to_bits(),
        want.acquired_at.to_bits(),
        "{step:?}: acquired_at of {x}"
    );
}

fn run_script(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let params = Params::paper();
    let mut host = HostState::new(NodeId::new(0), params);
    let storage_limit = rng.chance(0.5).then(|| 40 + rng.index(IDS));
    if let Some(limit) = storage_limit {
        host.set_storage_limit(limit);
    }
    let mut model = RefHost {
        interval: params.measurement_interval,
        window_start: 0.0,
        storage_limit,
        objects: BTreeMap::new(),
    };
    let mut now = 0.0f64;
    let mut ids = Vec::new();
    let mut path = Vec::new();
    for step in 0..ops {
        let x = ObjectId::new(rng.index(IDS) as u32);
        // Mostly sub-second steps; now and then a jump over several
        // measurement windows.
        now += if rng.chance(0.01) {
            rng.unit() * 5.0 * params.measurement_interval
        } else {
            rng.unit() * 0.5
        };
        let op = rng.index(100);
        let label;
        match op {
            0..=14 => {
                label = "install";
                if host.has_object(x) || !host.storage_full() {
                    host.install_object(x);
                    model.objects.entry(x).or_default().aff += 1;
                }
            }
            15..=29 => {
                label = "accept";
                if host.has_object(x) || !host.storage_full() {
                    host.advance(now);
                    model.advance(now);
                    let new_copy = host.accept_object(now, x, rng.unit());
                    assert_eq!(new_copy, !model.objects.contains_key(&x), "step {step}");
                    let o = model.objects.entry(x).or_default();
                    o.aff += 1;
                    o.acquired_at = now;
                }
            }
            30..=36 => {
                label = "reduce";
                if let Some(o) = model.objects.get_mut(&x).filter(|o| o.aff >= 2) {
                    o.aff -= 1;
                    assert_eq!(host.reduce_affinity(x), o.aff, "step {step}");
                }
            }
            37..=46 => {
                label = "drop";
                if model.objects.remove(&x).is_some() {
                    host.drop_object(x);
                }
            }
            47..=71 => {
                label = "access";
                path.clear();
                path.extend((0..1 + rng.index(4)).map(|_| NodeId::new(rng.index(NODES) as u16)));
                path.dedup();
                host.record_access(x, &path);
                if let Some(o) = model.objects.get_mut(&x) {
                    for &p in &path {
                        match o.counts.iter_mut().find(|(q, _)| *q == p) {
                            Some((_, c)) => *c += 1,
                            None => o.counts.push((p, 1)),
                        }
                    }
                }
            }
            72..=93 => {
                label = "serviced";
                host.record_serviced(now, x);
                model.advance(now);
                if let Some(o) = model.objects.get_mut(&x) {
                    o.window_serviced += 1;
                }
            }
            94..=97 => {
                label = "advance";
                host.advance(now);
                model.advance(now);
            }
            _ => {
                label = "reset";
                host.reset_access_counts();
                for o in model.objects.values_mut() {
                    o.counts.clear();
                }
            }
        }
        let at = (seed, step, label);
        compare_object(&host, &model, x, at);
        if step % 8 == 0 {
            compare(&host, &model, &mut ids, at);
        }
    }
    compare(&host, &model, &mut ids, (seed, ops, "end"));
}

#[test]
fn replica_table_matches_ordered_map_model() {
    for seed in 0..16 {
        run_script(seed, 4_000);
    }
}
