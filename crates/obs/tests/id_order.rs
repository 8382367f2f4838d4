//! The observers' tables come out in id order, whatever order the ids
//! first appear in the stream.
//!
//! Objects 9000, 3 and 512 and hosts 52 and 0 arrive out of order; the
//! ledger's and the metrics fold's tables, top-N lists and tag counts
//! must list them exactly as an ordered map keyed by id would.

use radar_obs::{
    CandidateSnapshot, DecisionBranch, DecisionEvent, Event, EventKind, LedgerConfig,
    MetricsObserver, NodeChurn, ObjectChurn, ObjectCounters, ObjectLedger, PlacementActionEvent,
    PlacementActionKind, ResetCause,
};

fn at(seq: u64, t: f64, kind: EventKind) -> Event {
    Event {
        seq,
        parent: None,
        t,
        queue_depth: 0,
        kind,
    }
}

fn request(seq: u64, t: f64, gateway: u16, object: u32) -> Event {
    at(seq, t, EventKind::RequestArrived { gateway, object })
}

fn decision(
    seq: u64,
    t: f64,
    object: u32,
    chosen: u16,
    branch: DecisionBranch,
    hosts: &[u16],
) -> Event {
    let candidates = hosts
        .iter()
        .map(|&host| CandidateSnapshot {
            host,
            rcnt: 1,
            aff: 1,
            unit: 1.0,
            distance: 2,
        })
        .collect();
    at(
        seq,
        t,
        EventKind::Decision(DecisionEvent {
            object,
            gateway: 1,
            chosen,
            branch,
            constant: 2.0,
            closest: Some(chosen),
            least: Some(chosen),
            unit_closest: Some(1.0),
            unit_least: Some(1.0),
            candidates,
        }),
    )
}

fn served(seq: u64, t: f64, object: u32, host: u16) -> Event {
    at(
        seq,
        t,
        EventKind::RequestServed {
            gateway: 1,
            object,
            host,
            latency: 0.05,
            hops: 2,
        },
    )
}

fn reset(seq: u64, object: u32, cause: ResetCause) -> Event {
    at(seq, 60.0, EventKind::CountsReset { object, cause })
}

fn action(
    seq: u64,
    host: u16,
    object: u32,
    action: PlacementActionKind,
    target: Option<u16>,
) -> Event {
    at(
        seq,
        60.0,
        EventKind::PlacementAction(PlacementActionEvent {
            host,
            object,
            action,
            target,
            unit_rate: 0.2,
            share: None,
            ratio: None,
            deletion_threshold: 0.01,
            replication_threshold: 0.18,
        }),
    )
}

/// Requests, decisions and responses for objects 9000, 3, 512 on hosts
/// 52 and 0, then one placement epoch: 512 replicates 52 → 0, 3
/// replicates 0 → 52, and host 52 drops its copy of 9000.
fn stream() -> Vec<Event> {
    use PlacementActionKind as P;
    vec![
        request(1, 0.5, 1, 9000),
        request(2, 0.5, 2, 3),
        request(3, 0.6, 1, 512),
        request(4, 0.7, 3, 9000),
        decision(5, 0.8, 9000, 52, DecisionBranch::Closest, &[0, 52]),
        decision(6, 0.9, 3, 0, DecisionBranch::LeastRequested, &[0]),
        decision(7, 1.0, 512, 52, DecisionBranch::Policy, &[52]),
        served(8, 1.1, 9000, 52),
        served(9, 1.2, 3, 0),
        served(10, 1.3, 512, 52),
        served(11, 1.4, 9000, 0),
        reset(12, 512, ResetCause::Created),
        action(13, 52, 512, P::GeoReplicate, Some(0)),
        reset(14, 3, ResetCause::Created),
        action(15, 0, 3, P::LoadReplicate, Some(52)),
        reset(16, 9000, ResetCause::Dropped),
        action(17, 52, 9000, P::Drop, None),
    ]
}

#[test]
fn ledger_tables_list_ids_in_order() {
    let mut ledger = ObjectLedger::new(LedgerConfig {
        object_size: 1000,
        ..LedgerConfig::default()
    });
    for e in stream() {
        ledger.fold(&e);
    }
    assert!(ledger.auditor().violations().is_empty());

    let moved = ObjectChurn {
        requests: 1,
        served: 1,
        relocations: 1,
        bytes_moved: 1000,
        ..ObjectChurn::default()
    };
    let still = ObjectChurn {
        requests: 2,
        served: 2,
        ..ObjectChurn::default()
    };
    // Bytes moved descending, then churn events, then object id.
    assert_eq!(
        ledger.churn_table(usize::MAX),
        vec![(3, moved), (512, moved), (9000, still)]
    );
    assert_eq!(ledger.churn_table(1), vec![(3, moved)]);

    let node = NodeChurn {
        served: 2,
        bytes_in: 1000,
        bytes_out: 1000,
    };
    assert_eq!(ledger.node_table(), vec![(0, node), (52, node)]);

    assert_eq!(ledger.replicas_of(9000), vec![0]);
    assert_eq!(ledger.replicas_of(3), vec![0, 52]);
    assert_eq!(ledger.replicas_of(512), vec![0, 52]);
    assert_eq!(ledger.replicas_of(7), Vec::<u16>::new());

    let health = ledger.health();
    let top: Vec<u32> = health.top_objects.iter().map(|&(o, _)| o).collect();
    assert_eq!(top, vec![3, 512]);
}

#[test]
fn metrics_tables_list_ids_and_tags_in_order() {
    let mut m = MetricsObserver::default();
    for e in stream() {
        m.fold(&e);
    }
    m.finalize(100.0);

    let replicated = ObjectCounters {
        requests: 1,
        served: 1,
        failed: 0,
        placement_actions: 1,
        replica_delta: 1,
    };
    let dropped = ObjectCounters {
        requests: 2,
        served: 2,
        failed: 0,
        placement_actions: 1,
        replica_delta: -1,
    };
    // Requests descending, then object id.
    assert_eq!(
        m.top_objects(10),
        vec![(9000, dropped), (3, replicated), (512, replicated)]
    );
    assert_eq!(m.top_objects(2), vec![(9000, dropped), (3, replicated)]);
    assert_eq!(m.object(512), Some(replicated));
    assert_eq!(m.object(4), None);

    // Host ids ascending; every interval after the first is idle.
    assert_eq!(m.host_loads(), vec![(0, 0.0, 2), (52, 0.0, 2)]);

    let listed = |counts: std::collections::BTreeMap<&'static str, u64>| {
        counts.into_iter().collect::<Vec<_>>()
    };
    assert_eq!(
        listed(m.type_counts()),
        vec![
            ("counts-reset", 3),
            ("decision", 3),
            ("placement", 3),
            ("request", 4),
            ("served", 4),
        ]
    );
    assert_eq!(
        listed(m.branch_counts()),
        vec![("closest", 1), ("least-requested", 1), ("policy", 1)]
    );
    assert_eq!(
        listed(m.placement_counts()),
        vec![("drop", 1), ("geo-replicate", 1), ("load-replicate", 1)]
    );
}
