//! The benchmark's workloads, built from a seed.
//!
//! Each workload is a scenario plus a request workload, generated here
//! from `--seed`; the simulator receives only these generated inputs.
//! Next to each definition stands why it was chosen: which layer it
//! exercises and which it bypasses.

use radar_core::{Catalog, ConsistencyMix};
use radar_sim::{FaultSpec, Scenario};
use radar_simcore::SimRng;
use radar_workload::{HotPages, Workload, ZipfReeds};

/// The seed whose report digests are recorded in [`Kind::expected_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Table 1 scale: 10,000 Zipf objects, 40 req/s per
    /// gateway, the 53-node UUNET backbone, `RadarSelection` +
    /// `RadarPlacement` with dynamic placement, starting cold from the
    /// round-robin initial placement. No faults, updates or observers.
    ///
    /// Why: the per-request path (arrival → redirect → arrive-at-host →
    /// service-complete) takes almost all handler time here and
    /// placement a few percent, so `steady` exercises request-path
    /// changes and bypasses placement, fault and observer changes.
    Steady,
    /// `steady`'s scenario and seed plus the watching stack of `radar
    /// simulate --events --ledger --dashboard`: a flight recorder
    /// streaming JSONL into a byte-counting in-memory sink, the object
    /// ledger with its invariant auditor, and the metrics fold. The loop
    /// profile stays off.
    ///
    /// Why: it differs from `steady` only in watching, so
    /// `observed.run_s / steady.run_s` is the observability tax, and
    /// `steady` is its bypass.
    Observed,
    /// 100,000 hot-pages objects at 5 req/s per gateway under the
    /// `mixed` consistency catalog with 50 provider updates/s, and a
    /// fault schedule of host crashes (one permanent), link partitions
    /// and a slowed link, with a replica floor of 2.
    ///
    /// Why: placement, declare-dead purges, routing rebuilds and the
    /// load-sample census dominate handler time, and most of the peak
    /// memory is held before the first request. This is the regime for
    /// memory, sparse-table and placement work, which `steady` bypasses.
    Churn,
}

/// Every workload, in the order the benchmark documents them.
pub const ALL: [Kind; 3] = [Kind::Steady, Kind::Observed, Kind::Churn];

/// Input size: the benchmark's own scale, or a miniature one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes documented on [`Kind`].
    Full,
    /// Few objects and low rates, for the benchmark's own tests.
    Mini,
}

/// `churn`'s fault schedule, in the `--faults` file format.
const CHURN_FAULTS: &str = "\
min-replicas 2
declare-dead-after 60
host-down 5 300 700
host-down 12 500 1100
host-down 40 900
link-down 0 1 200 800
link-down 16 17 400 1000
link-down 2 3 600 1400
link-slow 21 22 4.0 300 1500
";

/// A generated scenario and the request workload that drives it.
pub struct Inputs {
    /// The scenario (carries the simulation seed).
    pub scenario: Scenario,
    /// Object popularity.
    pub workload: Box<dyn Workload + Send>,
}

impl Kind {
    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Observed => "observed",
            Kind::Churn => "churn",
        }
    }

    /// Whether the run attaches the watching stack.
    pub fn observed(self) -> bool {
        self == Kind::Observed
    }

    /// Report digest of a full-scale run on [`DEFAULT_SEED`]. `observed`
    /// must reproduce `steady`'s report exactly, so they share one.
    pub fn expected_digest(self) -> u64 {
        match self {
            Kind::Steady | Kind::Observed => 0xbe6a_f996_f1e1_cfc4,
            Kind::Churn => 0x68d5_b270_8b13_498c,
        }
    }

    /// Builds the scenario and workload for `seed`.
    pub fn inputs(self, seed: u64, scale: Scale) -> Result<Inputs, String> {
        let mini = scale == Scale::Mini;
        let (scenario, workload): (_, Box<dyn Workload + Send>) = match self {
            Kind::Steady | Kind::Observed => {
                let objects = if mini { 400 } else { 10_000 };
                let scenario = Scenario::builder()
                    .num_objects(objects)
                    .node_request_rate(if mini { 4.0 } else { 40.0 })
                    .duration(300.0)
                    .seed(seed);
                (scenario, Box::new(ZipfReeds::new(objects)))
            }
            Kind::Churn => {
                let objects = if mini { 2_000 } else { 100_000 };
                let nodes = radar_simnet::builders::uunet().len() as u16;
                let faults = FaultSpec::from_text(CHURN_FAULTS).map_err(|e| e.to_string())?;
                let mut rng = SimRng::seed_from(seed ^ 0x9E37_79B9_7F4A_7C15);
                let scenario = Scenario::builder()
                    .num_objects(objects)
                    .node_request_rate(if mini { 1.0 } else { 5.0 })
                    .duration(1_800.0)
                    .seed(seed)
                    .catalog(Catalog::with_mix(
                        objects,
                        12 * 1024,
                        nodes,
                        ConsistencyMix::Mixed,
                    ))
                    .update_rate(if mini { 5.0 } else { 50.0 })
                    .faults(faults);
                let workload = HotPages::new(objects, 0.1, 0.9, &mut rng);
                (scenario, Box::new(workload))
            }
        };
        let scenario = scenario.build().map_err(|e| e.to_string())?;
        Ok(Inputs { scenario, workload })
    }
}
