//! The streaming-admission tier: property tests over the bounded ingress
//! path — conservation of offers under random arrival mixes, monotone
//! backpressure as queues fill, and churn-safe draining that never drops or
//! double-folds a survivor — each run against both backends, a `Session`
//! and a `Cluster` with the same round capacity and lane count. The whole
//! suite re-runs on the scalar kernel arm via the `test-scalar` CI step
//! (`LIFL_FORCE_SCALAR=1`).

use lifl_core::cluster::{Cluster, ClusterBuilder};
use lifl_core::session::{Session, SessionBuilder, Update};
use lifl_fl::aggregate::{fedavg, ModelUpdate};
use lifl_fl::DenseModel;
use lifl_types::{AdmissionConfig, AdmissionOutcome, ClientId, Topology};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A deterministic dense update for `client`, weighted `client + 1` samples.
fn update(client: u64, dim: usize) -> ModelUpdate {
    let values: Vec<f32> = (0..dim)
        .map(|d| ((client as usize * dim + d * 7) % 101) as f32 * 0.03 - 1.5)
        .collect();
    ModelUpdate::from_client(
        ClientId::new(client),
        DenseModel::from_vec(values),
        client + 1,
    )
}

/// The two streaming backends behind one interface, so every check below
/// runs against both.
trait Backlogged {
    fn offer(&mut self, update: Update) -> lifl_types::Result<AdmissionOutcome>;
    fn drive_round(&mut self) -> u64;
    fn drive_update(&mut self) -> lifl_types::Result<ModelUpdate>;
    fn depart(&mut self, client: ClientId) -> bool;
    /// The open round's clients, in arrival order per lane.
    fn roster(&self) -> Vec<ClientId>;
    /// Admission queues (one per leaf for a session, per node for a
    /// cluster).
    fn lanes(&self) -> usize;
    fn pending(&self) -> u64;
    fn queued(&self) -> usize;
    fn stats(&self) -> lifl_core::AdmissionStats;
}

impl Backlogged for Session {
    fn offer(&mut self, update: Update) -> lifl_types::Result<AdmissionOutcome> {
        self.try_ingest(update)
    }
    fn drive_round(&mut self) -> u64 {
        self.drive().unwrap().updates_ingested
    }
    fn drive_update(&mut self) -> lifl_types::Result<ModelUpdate> {
        self.drive().map(|report| report.update)
    }
    fn depart(&mut self, client: ClientId) -> bool {
        self.depart_client(client)
    }
    fn roster(&self) -> Vec<ClientId> {
        self.round_clients().into_iter().flatten().collect()
    }
    fn lanes(&self) -> usize {
        self.queue_depths().len()
    }
    fn pending(&self) -> u64 {
        self.pending_updates()
    }
    fn queued(&self) -> usize {
        self.queued_updates()
    }
    fn stats(&self) -> lifl_core::AdmissionStats {
        self.admission_stats()
    }
}

impl Backlogged for Cluster {
    fn offer(&mut self, update: Update) -> lifl_types::Result<AdmissionOutcome> {
        self.try_ingest(update)
    }
    fn drive_round(&mut self) -> u64 {
        self.drive().unwrap().updates_ingested()
    }
    fn drive_update(&mut self) -> lifl_types::Result<ModelUpdate> {
        self.drive().map(|report| report.update)
    }
    fn depart(&mut self, client: ClientId) -> bool {
        self.depart_client(client)
    }
    fn roster(&self) -> Vec<ClientId> {
        self.node_sessions()
            .iter()
            .flat_map(|node| node.round_clients())
            .flatten()
            .collect()
    }
    fn lanes(&self) -> usize {
        self.queue_depths().len()
    }
    fn pending(&self) -> u64 {
        self.pending_updates()
    }
    fn queued(&self) -> usize {
        self.queued_updates()
    }
    fn stats(&self) -> lifl_core::AdmissionStats {
        self.admission_stats()
    }
}

/// A session of `lanes` leaves × `fan` updates.
fn session(lanes: usize, fan: usize, admission: AdmissionConfig) -> Session {
    SessionBuilder::new()
        .topology(Topology::two_level(lanes, fan))
        .admission(admission)
        .build()
        .unwrap()
}

/// A cluster of `lanes` single-leaf nodes × `fan` updates: the same round
/// capacity and queue count as [`session`].
fn cluster(lanes: usize, fan: usize, admission: AdmissionConfig) -> Cluster {
    ClusterBuilder::new()
        .topology(Topology::new(vec![fan, lanes]).unwrap())
        .admission(admission)
        .build()
        .unwrap()
}

/// Conservation: however many updates are offered, every one is accounted
/// for exactly once — admitted, parked or rejected — and the backend's own
/// counters agree with the caller's tally.
fn conserves_offers(
    backend: &mut dyn Backlogged,
    capacity: u64,
    slots: usize,
    offered: u64,
) -> Result<(), String> {
    let (mut admitted, mut queued, mut rejected) = (0u64, 0u64, 0u64);
    for client in 0..offered {
        match backend.offer(Update::Dense(update(client, 8))).unwrap() {
            AdmissionOutcome::Admitted => admitted += 1,
            AdmissionOutcome::Queued { .. } => queued += 1,
            AdmissionOutcome::Rejected { .. } => rejected += 1,
        }
    }
    prop_assert_eq!(admitted + queued + rejected, offered);
    prop_assert_eq!(admitted, offered.min(capacity));
    prop_assert_eq!(backend.pending(), admitted);
    prop_assert_eq!(backend.queued() as u64, queued);
    let stats = backend.stats();
    prop_assert_eq!(stats.queued, queued);
    prop_assert_eq!(stats.rejected, rejected);
    // The parked backlog never exceeds its configured slot budget.
    prop_assert!(backend.queued() <= backend.lanes() * slots);
    Ok(())
}

/// Monotone backpressure: with uniform payloads the outcome sequence only
/// ever escalates — `Admitted`, then `Queued`, then `Rejected` — and each
/// lane queue's reported depth climbs by exactly one per offer it absorbs.
fn backpressure_escalates(
    backend: &mut dyn Backlogged,
    capacity: usize,
    slots: usize,
    extra: usize,
) -> Result<(), String> {
    let lanes = backend.lanes();
    let offered = capacity + lanes * slots + extra;
    let mut outcomes = Vec::with_capacity(offered);
    let mut depths = Vec::new();
    for client in 0..offered as u64 {
        let outcome = backend.offer(Update::Dense(update(client, 8))).unwrap();
        if let AdmissionOutcome::Queued { depth } = outcome {
            depths.push(depth);
        }
        outcomes.push(outcome);
    }
    // Severity never decreases: Admitted(0) -> Queued(1) -> Rejected(2).
    let severity = |o: &AdmissionOutcome| match o {
        AdmissionOutcome::Admitted => 0,
        AdmissionOutcome::Queued { .. } => 1,
        AdmissionOutcome::Rejected { .. } => 2,
    };
    for pair in outcomes.windows(2) {
        prop_assert!(
            severity(&pair[0]) <= severity(&pair[1]),
            "backpressure relaxed: {:?} after {:?}",
            pair[1],
            pair[0]
        );
    }
    // Queued offers round-robin the lane queues: the i-th parked offer
    // lands on lane i % lanes at depth i / lanes + 1.
    for (i, depth) in depths.iter().enumerate() {
        prop_assert_eq!(*depth, i / lanes + 1);
    }
    prop_assert_eq!(depths.len(), lanes * slots);
    Ok(())
}

/// Churn-safe draining: departing any subset of clients mid-round never
/// drops a survivor, never folds anyone twice, and refills reclaimed slots
/// from the backlog — the driven aggregate is exactly the FedAvg of the
/// final roster.
fn churn_keeps_the_roster(
    backend: &mut dyn Backlogged,
    capacity: usize,
    offered: u64,
    departed: &BTreeSet<u64>,
) -> Result<(), String> {
    for client in 0..offered {
        let outcome = backend.offer(Update::Dense(update(client, 8))).unwrap();
        prop_assert_eq!(
            outcome.is_admitted(),
            client < capacity as u64,
            "first {} offers fill the round, the rest park",
            capacity
        );
    }
    for client in departed {
        backend.depart(ClientId::new(*client));
    }
    let roster = backend.roster();
    // No departed client survives, and nobody is folded twice.
    let unique: BTreeSet<ClientId> = roster.iter().copied().collect();
    prop_assert_eq!(unique.len(), roster.len(), "duplicate fold: {:?}", roster);
    for client in &roster {
        prop_assert!(
            !departed.contains(&client.index()),
            "departed client {:?} still in the round",
            client
        );
    }
    // Every live client is accounted for: the round holds as many as it
    // can, the backlog parks the rest.
    let live = offered as usize - departed.len();
    prop_assert_eq!(roster.len(), live.min(capacity));
    prop_assert_eq!(backend.queued(), live.saturating_sub(capacity));
    if roster.is_empty() {
        // Everyone left: the quorum of one is unmet and the round says so.
        prop_assert!(backend.drive_update().is_err());
        return Ok(());
    }
    let expected: Vec<ModelUpdate> = roster.iter().map(|c| update(c.index(), 8)).collect();
    let flat = fedavg(&expected).unwrap();
    let aggregate = backend.drive_update().unwrap();
    prop_assert_eq!(aggregate.samples, flat.samples);
    for (a, b) in aggregate.model.as_slice().iter().zip(flat.model.as_slice()) {
        prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
    }
    Ok(())
}

proptest! {
    #[test]
    fn offers_are_conserved_under_random_arrivals(
        leaves in 1usize..=4,
        fan in 1usize..=3,
        slots in 1usize..=3,
        offered in 0u64..=40,
    ) {
        let admission = AdmissionConfig::bounded(slots, 1 << 20);
        let capacity = (leaves * fan) as u64;
        conserves_offers(&mut session(leaves, fan, admission), capacity, slots, offered)?;
        conserves_offers(&mut cluster(leaves, fan, admission), capacity, slots, offered)?;
    }

    #[test]
    fn backpressure_is_monotone_in_queue_depth(
        leaves in 1usize..=4,
        fan in 1usize..=3,
        slots in 1usize..=4,
        extra in 0usize..=12,
    ) {
        let admission = AdmissionConfig::bounded(slots, 1 << 20);
        let capacity = leaves * fan;
        backpressure_escalates(&mut session(leaves, fan, admission), capacity, slots, extra)?;
        backpressure_escalates(&mut cluster(leaves, fan, admission), capacity, slots, extra)?;
    }

    #[test]
    fn churn_never_drops_or_double_folds_a_survivor(
        departures in proptest::collection::vec(0u64..10, 0..=10),
    ) {
        let departed: BTreeSet<u64> = departures.into_iter().collect();
        let admission = AdmissionConfig::bounded(4, 1 << 20).with_quorum(1);
        churn_keeps_the_roster(&mut session(3, 2, admission), 6, 10, &departed)?;
        churn_keeps_the_roster(&mut cluster(3, 2, admission), 6, 10, &departed)?;
    }
}

/// Malformed wire offers against a full round are refused at queue time
/// with a typed error, and the valid offers queued around them all drain
/// into the next round instead of being stranded behind the bad one.
fn malformed_offers_never_strand_the_backlog(backend: &mut dyn Backlogged, capacity: u64) {
    const DIM: usize = 8;
    for client in 0..capacity {
        assert!(backend
            .offer(Update::Dense(update(client, DIM)))
            .unwrap()
            .is_admitted());
    }
    let first = capacity;
    assert!(backend
        .offer(Update::Dense(update(first, DIM)))
        .unwrap()
        .is_queued());
    let malformed = [
        // An encoded payload shorter than its descriptor.
        Update::remote_bytes(vec![1u8, 2, 3], 1, true),
        // Dense bytes with a ragged tail (not a whole number of f32s).
        Update::remote_bytes(vec![0u8; DIM * 4 + 3], 1, false),
    ];
    for bad in malformed {
        match backend.offer(bad) {
            Err(lifl_types::LiflError::Codec(_)) => {}
            other => panic!("malformed offer must be refused, got {other:?}"),
        }
    }
    assert!(backend
        .offer(Update::Dense(update(first + 1, DIM)))
        .unwrap()
        .is_queued());
    assert_eq!(backend.queued(), 2);

    assert_eq!(backend.drive_round(), capacity);
    // Both valid offers made it into the new round; nothing is stranded.
    assert_eq!(backend.pending(), 2);
    assert_eq!(backend.queued(), 0);
    let stats = backend.stats();
    assert_eq!((stats.queued, stats.drained, stats.dropped), (2, 2, 0));
}

#[test]
fn malformed_offers_never_strand_the_session_backlog() {
    let mut session = SessionBuilder::new()
        .two_level(2, 2)
        .admission(AdmissionConfig::bounded(4, 1 << 20))
        .build()
        .unwrap();
    malformed_offers_never_strand_the_backlog(&mut session, 4);
}

#[test]
fn malformed_offers_never_strand_the_cluster_backlog() {
    let mut cluster = ClusterBuilder::new()
        .topology(Topology::new(vec![2, 2, 2]).unwrap())
        .admission(AdmissionConfig::bounded(4, 1 << 20))
        .build()
        .unwrap();
    malformed_offers_never_strand_the_backlog(&mut cluster, 8);
}
