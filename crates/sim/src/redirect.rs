//! The redirect engine: the per-request decision layer between the
//! event loop and the [`Redirector`].
//!
//! Every redirect (1) filters the object's replicas down to the
//! *usable* ones — host up, redirector→host and host→gateway routes
//! intact — with their hop distances to the gateway, then (2) runs the
//! Fig. 2 decision over that list. [`RedirectEngine`] does step (1) per
//! request in one pass over the replica set, writing `(entry_index,
//! distance)` pairs into one engine-owned scratch buffer and tracking
//! the closest candidate `p` (minimum `(distance, host)`) on the way.
//! Step (2) is [`Redirector::choose_among_into`], the same Fig. 2
//! arithmetic every other `choose_*` variant runs, so decisions,
//! request counts and explanations are bit-identical to
//! [`SelectionPolicy::choose_available`](crate::selection::SelectionPolicy::choose_available)
//! — without its per-request candidate-vector allocation.
//!
//! Nothing is cached across requests: the filter costs two materialized
//! path lookups, one liveness bit and one distance per replica, which
//! is cheaper than any per-(gateway, object) table large enough to hold
//! the answers.

use radar_core::{ChoiceExplanation, ObjectId, Redirector, ReplicaInfo};
use radar_simnet::{NodeId, RoutingView};

use crate::faults::FaultState;

/// Per-request Fig. 2 decisions over the usable replicas. Owns only the
/// candidate scratch buffer, reused across requests.
#[derive(Default)]
pub(crate) struct RedirectEngine {
    /// `(entry_index, distance)` pairs of the current request's usable
    /// replicas, in replica-set order.
    scratch: Vec<(u32, u32)>,
}

impl RedirectEngine {
    /// Chooses the replica of `object` serving a request entering at
    /// `gateway`, through redirector node `rnode`. Passing `explanation`
    /// requests the Fig. 2 decision snapshot for the flight recorder,
    /// filled into the caller's scratch so tracing allocates nothing per
    /// request.
    ///
    /// Returns `None` when no usable replica exists — the platform then
    /// runs its primary-fallback path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn choose(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        rnode: NodeId,
        redirector: &mut Redirector,
        view: &RoutingView,
        fault_state: &FaultState,
        explanation: Option<&mut ChoiceExplanation>,
    ) -> Option<NodeId> {
        let closest = fill_candidates(&mut self.scratch, redirector.replicas(object), |host| {
            (fault_state.host_up(host.index() as u16)
                && !view.path(rnode, host).is_empty()
                && !view.path(host, gateway).is_empty())
            .then(|| view.distance(host, gateway))
        });
        redirector.choose_among_into(object, &self.scratch, closest, explanation)
    }

    /// The shard-local Fig. 2 decision, against one worker's slice of
    /// the directory. The usable-replica filter is vacuous here: the
    /// sharded loop only defers redirects while every host is up and
    /// every route intact (see `crate::shard`), so every replica is
    /// usable and only the distance lookup remains. The candidate list
    /// and closest replica are therefore identical to what
    /// [`choose`](Self::choose) would build at the same point in the
    /// event order.
    pub(crate) fn choose_in_shard(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        shard: &mut radar_core::RedirectorShard,
        net: &crate::shard::NetSnapshot,
        explanation: Option<&mut ChoiceExplanation>,
    ) -> Option<NodeId> {
        let closest = fill_candidates(&mut self.scratch, shard.replicas(object), |host| {
            Some(net.distance(host, gateway))
        });
        shard.choose_among_into(object, &self.scratch, closest, explanation)
    }
}

/// Refills `out` with the `(entry_index, distance)` pair of every
/// replica `usable_distance` admits, in replica-set order, and returns
/// the entry index of the closest one — minimum `(distance, host)`,
/// Fig. 2's `p` — or `None` when none is usable.
fn fill_candidates(
    out: &mut Vec<(u32, u32)>,
    replicas: &[ReplicaInfo],
    mut usable_distance: impl FnMut(NodeId) -> Option<u32>,
) -> Option<u32> {
    out.clear();
    let mut closest = None;
    let mut best = (u32::MAX, NodeId::new(u16::MAX));
    for (i, e) in replicas.iter().enumerate() {
        if let Some(dist) = usable_distance(e.host) {
            out.push((i as u32, dist));
            if (dist, e.host) < best {
                best = (dist, e.host);
                closest = Some(i as u32);
            }
        }
    }
    closest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::TransitionKind;
    use crate::selection::{RadarSelection, SelectionPolicy};
    use radar_simcore::SimRng;
    use radar_simnet::builders;

    #[test]
    fn engine_matches_the_policy_path_under_faults_and_churn() {
        // A seeded stream of requests interleaved with link failures
        // that partition the line (cutting host → gateway for the
        // gateways on the far side only), host crashes and recoveries,
        // and replica-set membership and affinity changes. The engine
        // and the policy path must agree on every pick, every
        // explanation, and the final per-replica request counts.
        const OBJECTS: u32 = 3;
        let mut view = RoutingView::new(builders::line(8));
        let n = view.topology().len() as u16;
        let mut fault_state = FaultState::new(n as usize);
        let mut engine_side = Redirector::new(OBJECTS, 2.0);
        for o in 0..OBJECTS {
            engine_side.install(ObjectId::new(o), NodeId::new(1));
            engine_side.install(ObjectId::new(o), NodeId::new(6));
        }
        let mut policy_side = engine_side.clone();
        let mut engine = RedirectEngine::default();
        let mut policy = RadarSelection::new();
        let rnode = view.table().centroid();
        let mut scratch = ChoiceExplanation::default();
        let mut rng = SimRng::seed_from(0x05EE_D0D1);
        let (mut empty, mut cut_for_gateway) = (0, 0);
        for step in 0..6000 {
            let object = ObjectId::new(rng.index(OBJECTS as usize) as u32);
            let host = NodeId::new(rng.index(n as usize) as u16);
            match rng.index(100) {
                0..=1 => {
                    let a = NodeId::new(host.index() as u16 % (n - 1));
                    let b = NodeId::new(a.index() as u16 + 1);
                    let up = !view.link_is_up(a, b);
                    view.set_link(a, b, up);
                }
                2..=3 => {
                    let h = host.index() as u16;
                    let kind = if fault_state.host_up(h) {
                        TransitionKind::HostCrash(h)
                    } else {
                        TransitionKind::HostRecover(h)
                    };
                    fault_state.apply(kind);
                }
                4..=6 => {
                    if engine_side.replica_count(object) < 4 {
                        engine_side.notify_created(object, host);
                        policy_side.notify_created(object, host);
                    }
                }
                7..=8 => {
                    let held = engine_side.replicas(object).iter().any(|r| r.host == host);
                    if held && engine_side.replica_count(object) > 1 {
                        assert_eq!(
                            engine_side.request_drop(object, host),
                            policy_side.request_drop(object, host)
                        );
                    }
                }
                9..=10 => {
                    let held = engine_side.replicas(object).iter().any(|r| r.host == host);
                    if held {
                        let aff = 1 + rng.index(3) as u32;
                        engine_side.notify_affinity(object, host, aff);
                        policy_side.notify_affinity(object, host, aff);
                    }
                }
                _ => {
                    let gateway = NodeId::new(rng.index(n as usize) as u16);
                    let usable = |h: NodeId| {
                        fault_state.host_up(h.index() as u16)
                            && !view.path(rnode, h).is_empty()
                            && !view.path(h, gateway).is_empty()
                    };
                    cut_for_gateway += policy_side.replicas(object).iter().any(|r| {
                        fault_state.host_up(r.host.index() as u16)
                            && !view.path(rnode, r.host).is_empty()
                            && view.path(r.host, gateway).is_empty()
                    }) as u32;
                    let explain = step % 2 == 0;
                    let got = engine.choose(
                        object,
                        gateway,
                        rnode,
                        &mut engine_side,
                        &view,
                        &fault_state,
                        explain.then_some(&mut scratch),
                    );
                    if explain {
                        let (expect, explanation) = policy.choose_available_explained(
                            object,
                            gateway,
                            &mut policy_side,
                            view.table(),
                            &usable,
                        );
                        assert_eq!(got, expect, "step {step}");
                        if let Some(e) = explanation {
                            assert_eq!(scratch, e, "step {step}");
                        }
                    } else {
                        let expect = policy.choose_available(
                            object,
                            gateway,
                            &mut policy_side,
                            view.table(),
                            &usable,
                        );
                        assert_eq!(got, expect, "step {step}");
                    }
                    empty += got.is_none() as u32;
                }
            }
        }
        assert!(
            empty > 0,
            "the stream must leave some request with no usable replica"
        );
        assert!(
            cut_for_gateway > 0,
            "the stream must cut host → gateway for some gateway"
        );
        assert_eq!(
            engine_side, policy_side,
            "identical request counts after the stream"
        );
    }

    #[test]
    fn shard_decisions_match_the_unsplit_engine() {
        // Inside a parallel window (no faults, full connectivity) a
        // shard must reproduce the serial engine's decision stream and
        // bookkeeping exactly — that is the sharded loop's whole claim.
        let view = RoutingView::new(builders::uunet());
        let fault_state = FaultState::new(view.topology().len());
        let net = crate::shard::NetSnapshot::from_view(&view);
        let mut serial = Redirector::new(4, 2.0);
        for i in 0..4 {
            serial.install(ObjectId::new(i), NodeId::new(3));
            serial.install(ObjectId::new(i), NodeId::new(40));
        }
        let mut sharded = serial.clone();
        let mut engine = RedirectEngine::default();
        let mut shard_engine = RedirectEngine::default();
        let mut dir_shards = sharded.split_shards(2);
        let rnode = view.table().centroid();
        for i in 0..600u16 {
            let object = ObjectId::new(u32::from(i) % 4);
            let gw = NodeId::new(i % view.topology().len() as u16);
            let expect = engine.choose(object, gw, rnode, &mut serial, &view, &fault_state, None);
            let s = (object.index() * 2) / 4;
            let got = shard_engine.choose_in_shard(object, gw, &mut dir_shards[s], &net, None);
            assert_eq!(got, expect, "request {i}");
        }
        sharded.absorb_shards(dir_shards);
        assert_eq!(sharded, serial, "identical bookkeeping after the stream");
    }
}
