//! Fault handling and platform-health maintenance: applying scheduled
//! fault transitions (with incremental routing repair), the
//! declare-dead sweep, and re-replication back to the replica floor.

use radar_core::{HostState, ObjectId};
use radar_obs::EventKind as ObsEventKind;
use radar_simcore::{FifoServer, SimDuration, SimTime};
use radar_simnet::NodeId;

use crate::faults::TransitionKind;
use crate::platform::{Event, Simulation};

/// Human-readable description of a fault transition, for
/// [`radar_obs::EventKind::Fault`] events.
fn transition_desc(kind: TransitionKind) -> String {
    match kind {
        TransitionKind::HostCrash(h) => format!("host-crash {h}"),
        TransitionKind::HostRecover(h) => format!("host-recover {h}"),
        TransitionKind::LinkFail(a, b) => format!("link-fail {a}-{b}"),
        TransitionKind::LinkHeal(a, b) => format!("link-heal {a}-{b}"),
        TransitionKind::LinkDegrade(a, b, f) => format!("link-degrade {a}-{b} x{f}"),
        TransitionKind::LinkRestore(a, b, f) => format!("link-restore {a}-{b} x{f}"),
    }
}

impl Simulation {
    /// Applies the `index`-th scheduled fault transition and schedules
    /// the next one.
    pub(crate) fn on_fault(&mut self, t: SimTime, index: usize) {
        if let Some(next) = self.fault_schedule.get(index + 1) {
            self.queue.schedule(
                SimTime::from_secs(next.t),
                Event::Fault { index: index + 1 },
            );
        }
        let transition = self.fault_schedule[index];
        let now = t.as_secs();
        let routes_dirty = self.fault_state.apply(transition.kind);
        self.metrics.faults_injected += 1;
        if self.events.tracing {
            let qd = self.depth();
            self.events.emit(
                now,
                qd,
                0,
                ObsEventKind::Fault {
                    desc: transition_desc(transition.kind),
                },
            );
        }
        for obs in &mut self.events.observers {
            obs.on_fault(&transition);
        }
        match transition.kind {
            TransitionKind::HostCrash(h) => {
                let i = h as usize;
                // Everything queued or in service on the host is lost:
                // bump the epoch (stale completions fail) and replace
                // the server with an empty one.
                self.host_epoch[i] += 1;
                self.servers[i] = FifoServer::with_capacity(self.scenario.capacity_of(i));
                self.queue.schedule(
                    t + SimDuration::from_secs(self.scenario.faults.declare_dead_after()),
                    Event::DeclareDead {
                        host: NodeId::new(h),
                        epoch: self.host_epoch[i],
                    },
                );
                self.refresh_object_health(now);
            }
            TransitionKind::HostRecover(h) => {
                if self.fault_state.host_up(h) {
                    let i = h as usize;
                    if self.declared_dead[i] {
                        // Its replicas were purged while it was away; it
                        // rejoins as an empty host.
                        self.declared_dead[i] = false;
                        let mut fresh = HostState::new(NodeId::new(h), self.scenario.params_of(i));
                        if let Some(limit) = self.scenario.storage_limit {
                            fresh.set_storage_limit(limit as usize);
                        }
                        self.hosts[i] = fresh;
                    }
                    self.refresh_object_health(now);
                    self.re_replicate(t);
                }
            }
            TransitionKind::LinkFail(a, b) => {
                if routes_dirty {
                    // Incremental repair: only destinations whose BFS
                    // the severed link could change are recomputed.
                    self.view.set_link(NodeId::new(a), NodeId::new(b), false);
                }
            }
            TransitionKind::LinkHeal(a, b) => {
                if routes_dirty {
                    self.view.set_link(NodeId::new(a), NodeId::new(b), true);
                }
            }
            TransitionKind::LinkDegrade(..) | TransitionKind::LinkRestore(..) => {}
        }
    }

    /// The declare-dead timer fired: if the host is still down from the
    /// same crash, purge its replicas and re-replicate what fell below
    /// the floor.
    pub(crate) fn on_declare_dead(&mut self, t: SimTime, host: NodeId, epoch: u32) {
        let i = host.index();
        if self.host_epoch[i] != epoch
            || self.fault_state.host_up(i as u16)
            || self.declared_dead[i]
        {
            return;
        }
        self.declared_dead[i] = true;
        let purged = self.redirector.purge_host(host);
        if self.events.tracing {
            // Purging resets the surviving replicas' request counts —
            // one CountsReset per affected object.
            let qd = self.depth();
            for object in purged {
                self.events.emit(
                    t.as_secs(),
                    qd,
                    0,
                    ObsEventKind::CountsReset {
                        object: object.index() as u32,
                        cause: radar_obs::ResetCause::Purge,
                    },
                );
            }
        }
        self.refresh_object_health(t.as_secs());
        self.re_replicate(t);
    }

    /// The object's primary node, standing in for the provider's origin
    /// server. When the recorded primary is itself down, the designation
    /// moves to the most central live host. `None` when every host is
    /// down.
    pub(crate) fn live_primary(&mut self, object: ObjectId) -> Option<NodeId> {
        let p = self.catalog.primary(object);
        if self.fault_state.host_up(p.index() as u16) {
            return Some(p);
        }
        let c = self
            .view
            .table()
            .nodes_by_centrality()
            .into_iter()
            .find(|n| self.fault_state.host_up(n.index() as u16))?;
        self.catalog.set_primary(object, c);
        Some(c)
    }

    /// Re-checks one object's live-replica count against the
    /// availability and replica-floor trackers, opening or closing the
    /// corresponding intervals.
    pub(crate) fn refresh_one(&mut self, now: f64, object: ObjectId) {
        let i = object.index() as u32;
        let live = self
            .redirector
            .replicas(object)
            .iter()
            .filter(|r| self.fault_state.host_up(r.host.index() as u16))
            .count() as u32;
        if live == 0 {
            self.unavailable_since.entry(i).or_insert(now);
        } else if let Some(since) = self.unavailable_since.remove(&i) {
            self.metrics.unavailable_object_seconds += now - since;
        }
        if live < self.scenario.faults.min_replicas() {
            self.below_min_since.entry(i).or_insert(now);
        } else if let Some(since) = self.below_min_since.remove(&i) {
            self.metrics.restore_time.record(now - since);
        }
    }

    /// Full sweep of [`refresh_one`](Self::refresh_one) after a liveness
    /// change.
    fn refresh_object_health(&mut self, now: f64) {
        if self.scenario.faults.is_empty() {
            return;
        }
        for i in 0..self.scenario.num_objects {
            self.refresh_one(now, ObjectId::new(i));
        }
    }

    /// Restores every object to the replica floor: copies from a live
    /// replica onto the live host with the most load-report headroom, or
    /// — when no live copy exists anywhere — re-installs the object at
    /// its primary (an origin fetch). Runs after a host is declared dead
    /// and after recoveries.
    fn re_replicate(&mut self, t: SimTime) {
        if self.scenario.faults.is_empty() {
            return;
        }
        let now = t.as_secs();
        let floor = self.scenario.faults.min_replicas();
        // Nothing in the sweep touches the load-report board, host
        // parameters or liveness, so one ranking serves every object.
        let headroom: Vec<f64> = (0..self.hosts.len())
            .map(|j| self.hosts[j].params().low_watermark - self.load_reports[j].1)
            .collect();
        let ranked = rank_targets(&headroom, |j| self.fault_state.host_up(j as u16));
        for i in 0..self.scenario.num_objects {
            let object = ObjectId::new(i);
            loop {
                let replicas = self.redirector.replicas(object);
                let mut live = replicas
                    .iter()
                    .map(|r| r.host)
                    .filter(|h| self.fault_state.host_up(h.index() as u16));
                let source = live.next();
                if source.map_or(0, |_| 1 + live.count()) as u32 >= floor {
                    break;
                }
                let elapsed = now - self.below_min_since.get(&i).copied().unwrap_or(now);
                let target = if let Some(source) = source {
                    let holds = |j: usize| replicas.iter().any(|r| r.host.index() == j);
                    let Some(j) = pick_target(&ranked, holds) else {
                        break; // fewer live hosts than the floor
                    };
                    let target = NodeId::new(j as u16);
                    let hops = self.view.distance(source, target);
                    self.metrics
                        .record_overhead(now, (self.scenario.object_size * hops as u64) as f64);
                    self.charge_links(source, target, self.scenario.object_size);
                    target
                } else {
                    // Origin fetch: every copy was lost with its hosts.
                    let Some(p) = self.live_primary(object) else {
                        break; // the whole platform is down
                    };
                    p
                };
                self.install(object, target);
                self.metrics.re_replications += 1;
                if self.events.tracing {
                    let qd = self.depth();
                    self.events.emit(
                        now,
                        qd,
                        0,
                        ObsEventKind::ReReplication {
                            object: i,
                            target: target.index() as u16,
                            elapsed,
                        },
                    );
                }
                for obs in &mut self.events.observers {
                    obs.on_re_replication(now, i, target.index() as u16, elapsed);
                }
            }
            self.refresh_one(now, object);
        }
    }
}

/// Ranks the hosts `up` admits as re-replication targets: most
/// `headroom` first, ties broken by node id.
fn rank_targets(headroom: &[f64], up: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..headroom.len()).filter(|&j| up(j)).collect();
    ranked.sort_by(|&a, &b| {
        headroom[b]
            .partial_cmp(&headroom[a])
            .expect("headroom is never NaN")
            .then(a.cmp(&b))
    });
    ranked
}

/// The re-replication target for one object: the best-ranked host that
/// does not already hold it, or `None` when every ranked host does.
fn pick_target(ranked: &[usize], holds: impl Fn(usize) -> bool) -> Option<usize> {
    ranked.iter().copied().find(|&j| !holds(j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simcore::SimRng;

    /// The per-object filter-and-sort the ranked pick replaces.
    fn reference_pick(headroom: &[f64], up: &[bool], holds: &[bool]) -> Option<usize> {
        let mut cands: Vec<(f64, usize)> = (0..headroom.len())
            .filter(|&j| up[j] && !holds[j])
            .map(|j| (headroom[j], j))
            .collect();
        cands.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("headroom is never NaN")
                .then(a.1.cmp(&b.1))
        });
        cands.first().map(|c| c.1)
    }

    #[test]
    fn ranked_pick_matches_filter_and_sort() {
        // Randomized boards with deliberate headroom ties (quantized,
        // some negative), down hosts, and objects held by every host.
        // Each object is topped up the way the sweep does it: pick,
        // install, pick again, until no target remains.
        let mut rng = SimRng::seed_from(0x0EE_2E91);
        let mut fully_held = 0;
        for n in 0..24usize {
            for _ in 0..40 {
                let headroom: Vec<f64> = (0..n).map(|_| rng.index(5) as f64 * 0.25 - 0.5).collect();
                let up: Vec<bool> = (0..n).map(|_| rng.chance(0.8)).collect();
                let ranked = rank_targets(&headroom, |j| up[j]);
                for _ in 0..4 {
                    let mut holds: Vec<bool> = if rng.chance(0.1) {
                        vec![true; n]
                    } else {
                        (0..n).map(|_| rng.chance(0.4)).collect()
                    };
                    if !ranked.is_empty() && pick_target(&ranked, |j| holds[j]).is_none() {
                        fully_held += 1;
                    }
                    loop {
                        let got = pick_target(&ranked, |j| holds[j]);
                        assert_eq!(got, reference_pick(&headroom, &up, &holds), "n {n}");
                        match got {
                            Some(j) => holds[j] = true,
                            None => break,
                        }
                    }
                }
            }
        }
        assert!(fully_held > 0, "some object must start on every live host");
    }
}
