//! `cluster-streaming-64k`: a 2-node `Cluster` with bounded admission, a
//! quorum close and KPA fleet scaling, fed 64 KiB dense updates by a seeded
//! periodic calm/spike arrival pattern that overloads the round on spikes,
//! with an Oort utility reported by every client and churn
//! (`depart_client`) every cycle.
//!
//! Per-update and per-drive fixed costs dominate: admission, queue park and
//! drain, a thread spawn per station, many small hops, and leaf re-splits.
//! One cycle is: the offers, then the departures, then the drive. An offer
//! is the client's `record_client_utility` followed by its `try_ingest`.

use super::{account_cluster, check, engine_err, node_store_stats, Workload};
use crate::harness::{EngineStats, Recorder};
use crate::inputs::{self, Rng};
use lifl_core::cluster::{Cluster, ClusterBuilder};
use lifl_core::session::{Session, SessionBuilder, Update};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_serverless::FleetConfig;
use lifl_shmem::StoreStats;
use lifl_types::{AdmissionConfig, AdmissionOutcome, ClientId, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// 64 KiB of f32 per update.
pub const DIM: usize = 16 * 1024;
const NODES: usize = 2;
const FAN_IN: usize = 8;
const INITIAL_LEAVES: usize = 2;
const MAX_LEAVES: u32 = 4;
const QUEUE_SLOTS: usize = 24;
const QUORUM: u32 = 8;
/// Clients cycle through a fixed population, so per-client state in the
/// engine (utilities, queued offers) stays bounded however long the run.
pub const POPULATION: u64 = 1024;
/// One period: `CALM_CYCLES` calm cycles, then spike cycles. Calm and spike
/// cycles take different times; with spikes the majority, the p50 and the
/// p90 of the cycle time both fall inside the spike mode.
const PERIOD: u64 = 8;
const CALM_CYCLES: u64 = 3;
const CALM_ARRIVALS: (u64, u64) = (12, 16);
const SPIKE_ARRIVALS: (u64, u64) = (56, 64);
const DEPARTS: u64 = 4;
const WARMUP_CYCLES: usize = 4 * PERIOD as usize;

/// Arrivals of one cycle and which of them depart before the drive.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclePlan {
    pub arrivals: u64,
    /// Distinct indices into this cycle's arrivals, ascending.
    pub departs: Vec<u64>,
}

/// The seeded schedule: a pure function of the seed and the cycle number.
pub fn plan(seed: u64, cycle: u64) -> CyclePlan {
    let mut rng = Rng::new(seed, 0xC7C1_E000 ^ cycle);
    let (lo, hi) = if cycle % PERIOD < CALM_CYCLES {
        CALM_ARRIVALS
    } else {
        SPIKE_ARRIVALS
    };
    let arrivals = rng.range(lo, hi);
    let mut departs: Vec<u64> = (0..DEPARTS).map(|_| rng.range(0, arrivals - 1)).collect();
    departs.sort_unstable();
    departs.dedup();
    CyclePlan { arrivals, departs }
}

/// The client making offer number `offer`, and the utility it reports.
fn client_of(offer: u64) -> ClientId {
    ClientId::new(offer % POPULATION)
}

fn utility(seed: u64, offer: u64) -> f64 {
    Rng::new(seed ^ 0x0047_7117, offer).unit()
}

/// A client's update. Payload and weight depend on the client only, so the
/// checks can regenerate them from the client ids a round reports.
fn update_of(seed: u64, client: ClientId) -> ModelUpdate {
    let key = client.index();
    ModelUpdate::from_client(
        client,
        DenseModel::from_vec(inputs::params(seed, key, DIM)),
        inputs::samples(seed, key),
    )
}

/// Clients in the open round, with multiplicity.
type Roster = BTreeMap<u64, u64>;

fn roster(cluster: &Cluster) -> Roster {
    let mut out = Roster::new();
    for session in cluster.node_sessions() {
        for client in session.round_clients().into_iter().flatten() {
            *out.entry(client.index()).or_default() += 1;
        }
    }
    out
}

fn roster_len(roster: &Roster) -> u64 {
    roster.values().sum()
}

fn roster_samples(seed: u64, roster: &Roster) -> u64 {
    roster
        .iter()
        .map(|(client, n)| n * inputs::samples(seed, *client))
        .sum()
}

/// Lifetime outcome counts, checked against the engine's own counters.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    pub offered: u64,
    pub admitted: u64,
    pub queued: u64,
    pub rejected: u64,
    pub aggregated: u64,
    /// Round members removed by a departure before their round closed.
    pub removed: u64,
    /// Round boundaries at which the fleet resized a node.
    pub resizes: u64,
}

pub struct ClusterStreaming {
    seed: u64,
    cluster: Cluster,
    cycle: u64,
    next_offer: u64,
    keep_shadow: bool,
    /// Single session over the same global tree, rebuilt when the fleet
    /// changes the per-node leaf count.
    shadow: Option<(usize, Session)>,
    top: StoreStats,
    pub ledger: Ledger,
}

pub fn build_cluster() -> lifl_types::Result<Cluster> {
    ClusterBuilder::new()
        .topology(Topology::new(vec![FAN_IN, INITIAL_LEAVES, NODES])?)
        .admission(AdmissionConfig::bounded(QUEUE_SLOTS, QUEUE_SLOTS * DIM * 4).with_quorum(QUORUM))
        .fleet_scaling(
            FleetConfig::default()
                .with_target_depth(FAN_IN as f64)
                .with_leaf_bounds(1, MAX_LEAVES),
        )
        .build()
}

impl ClusterStreaming {
    pub fn new(seed: u64, cluster: Cluster, keep_shadow: bool) -> ClusterStreaming {
        ClusterStreaming {
            seed,
            cluster,
            cycle: 0,
            next_offer: 0,
            keep_shadow,
            shadow: None,
            top: StoreStats::default(),
            ledger: Ledger::default(),
        }
    }

    /// Drives the single session over the same global tree on the round's
    /// members, timing its drive. Skipped while the nodes' leaf counts
    /// differ (no single global tree then).
    fn shadow_round(
        &mut self,
        rec: &mut Recorder,
        members: &Roster,
        leaves: &[usize],
    ) -> Result<(), String> {
        let per_node = leaves[0];
        if leaves.iter().any(|&l| l != per_node) {
            return Ok(());
        }
        if self.shadow.as_ref().map(|(l, _)| *l) != Some(per_node) {
            let single = SessionBuilder::new()
                .topology(
                    Topology::new(vec![FAN_IN, per_node, NODES])
                        .map_err(engine_err("shadow tree"))?,
                )
                .admission(AdmissionConfig::bounded(1, 1).with_quorum(1))
                .build()
                .map_err(engine_err("build the single session"))?;
            self.shadow = Some((per_node, single));
        }
        let Some((_, single)) = self.shadow.as_mut() else {
            return Ok(());
        };
        let seed = self.seed;
        let updates: Vec<Update> = members
            .iter()
            .flat_map(|(client, n)| (0..*n).map(move |_| *client))
            .map(|client| Update::Dense(update_of(seed, ClientId::new(client))))
            .collect();
        let (ingested, _) = rec.timed("shadow.ingest", || single.ingest_all(updates));
        ingested.map_err(engine_err("single-session ingest"))?;
        let (report, single_ms) = rec.timed("shadow.drive", || single.drive());
        let report = report.map_err(engine_err("single-session drive"))?;
        check(
            report.update.samples == roster_samples(seed, members),
            "single session aggregated a different sample total",
        )?;
        let drive_ms = rec.drive_ms.last().copied().unwrap_or(0.0);
        rec.layers.overhead_ms.push(drive_ms - single_ms);
        Ok(())
    }
}

impl Workload for ClusterStreaming {
    fn setup(seed: u64, shadow: bool, warm: &mut Recorder) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let cluster = build_cluster().map_err(engine_err("build"))?;
        let build_s = start.elapsed().as_secs_f64();
        let mut workload = ClusterStreaming::new(seed, cluster, shadow);
        for _ in 0..WARMUP_CYCLES {
            workload.round(warm)?;
        }
        Ok((workload, build_s))
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let seed = self.seed;
        let cycle = self.cycle;
        self.cycle += 1;
        let plan = plan(seed, cycle);
        let first = self.next_offer;
        self.next_offer += plan.arrivals;
        let (offers, _) = rec.timed("bench.synth", || {
            (first..first + plan.arrivals)
                .map(|offer| (update_of(seed, client_of(offer)), utility(seed, offer)))
                .collect::<Vec<_>>()
        });
        let node_before = node_store_stats(&self.cluster);
        let leaves = self.cluster.node_leaves();

        rec.begin_round();
        for (update, utility) in offers {
            let client = update.client.expect("every offer names its client");
            let outcome = rec.offer(|| {
                self.cluster.record_client_utility(client, utility);
                self.cluster.try_ingest(Update::Dense(update))
            });
            self.ledger.offered += 1;
            match outcome {
                AdmissionOutcome::Admitted => self.ledger.admitted += 1,
                AdmissionOutcome::Queued { .. } => self.ledger.queued += 1,
                AdmissionOutcome::Rejected { .. } => self.ledger.rejected += 1,
            }
        }
        // The roster around each departure tells how many round members it
        // removed (a departure drops every entry of its client; the refill
        // from the backlog brings in other clients).
        let (mut members, _) = rec.timed("bench.check", || roster(&self.cluster));
        for &index in &plan.departs {
            let client = client_of(first + index);
            rec.depart(|| self.cluster.depart_client(client));
            let (after, _) = rec.timed("bench.check", || roster(&self.cluster));
            let entries = |r: &Roster| r.get(&client.index()).copied().unwrap_or(0);
            if entries(&after) != 0 {
                return Err(format!(
                    "cycle {cycle}: {client:?} still in the round after departing"
                ));
            }
            self.ledger.removed += entries(&members);
            members = after;
        }
        let closing = members;
        let report = rec.drive(|| self.cluster.drive());
        rec.end_round(report.as_ref().map_or(0, |r| r.updates_ingested()));

        let report = report.ok_or("cluster drive failed")?;
        check(
            report.update.samples == roster_samples(seed, &closing)
                && report.updates_ingested() == roster_len(&closing),
            format!(
                "cycle {cycle}: aggregate holds {} samples from {} updates, expected {} from {}",
                report.update.samples,
                report.updates_ingested(),
                roster_samples(seed, &closing),
                roster_len(&closing)
            ),
        )?;
        self.ledger.aggregated += report.updates_ingested();
        if report.scaling.iter().any(|a| a.decision.is_resize()) {
            self.ledger.resizes += 1;
        }
        if self.keep_shadow && rec.tracing() {
            self.shadow_round(rec, &closing, &leaves)?;
        }
        let drive_ms = rec.drive_ms.last().copied().unwrap_or(0.0);
        account_cluster(
            &mut rec.layers,
            &self.cluster,
            &report,
            &node_before,
            &leaves,
            &mut self.top,
            drive_ms,
        );
        Ok(())
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            pool: self.cluster.pool().stats(),
            admission: self.cluster.admission_stats(),
        }
    }

    fn sample_update(&self) -> (Vec<f32>, u64) {
        let client = client_of(0);
        (
            inputs::params(self.seed, client.index(), DIM),
            inputs::samples(self.seed, client.index()),
        )
    }

    fn lossy(&self) -> bool {
        false
    }

    /// Drains the backlog, then checks offer conservation: every offer was
    /// admitted, queued or rejected; everything queued was drained into a
    /// round or dropped; everything that entered a round was aggregated,
    /// removed by a departure, or is still in the open round.
    fn finish(&mut self) -> Result<(), String> {
        let seed = self.seed;
        while self.cluster.queued_updates() > 0 {
            let closing = roster(&self.cluster);
            let report = self.cluster.drive().map_err(engine_err("drain drive"))?;
            check(
                report.update.samples == roster_samples(seed, &closing),
                "drain round aggregated a different sample total",
            )?;
            self.ledger.aggregated += report.updates_ingested();
        }
        let open = self.cluster.pending_updates();
        let stats = self.cluster.admission_stats();
        let l = &self.ledger;
        check(
            l.admitted + l.queued + l.rejected == l.offered,
            format!("offers do not add up: {l:?}"),
        )?;
        check(
            stats.queued == l.queued && stats.rejected == l.rejected,
            format!("engine counted {stats:?}, the clients saw {l:?}"),
        )?;
        check(
            stats.queued == stats.drained + stats.dropped,
            format!("queued offers neither drained nor dropped: {stats:?}"),
        )?;
        check(
            l.admitted + stats.drained == l.aggregated + l.removed + open,
            format!("round members lost: {stats:?}, {l:?}, {open} still open"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let plans = |seed| (0..64).map(|c| plan(seed, c)).collect::<Vec<_>>();
        assert_eq!(plans(11), plans(11));
        assert_ne!(plans(11), plans(12));
        for (cycle, p) in plans(11).iter().enumerate() {
            let spike = cycle as u64 % PERIOD >= CALM_CYCLES;
            let (lo, hi) = if spike { SPIKE_ARRIVALS } else { CALM_ARRIVALS };
            assert!((lo..=hi).contains(&p.arrivals));
            assert!(p.departs.windows(2).all(|w| w[0] < w[1]));
            assert!(p.departs.iter().all(|&d| d < p.arrivals));
        }
    }

    fn run(seed: u64, cycles: usize) -> (Ledger, lifl_core::AdmissionStats, Vec<usize>) {
        let cluster = build_cluster().unwrap();
        let mut workload = ClusterStreaming::new(seed, cluster, false);
        let mut rec = Recorder::new(false);
        for _ in 0..cycles {
            workload.round(&mut rec).unwrap();
        }
        workload.finish().unwrap();
        let stats = workload.cluster.admission_stats();
        (workload.ledger, stats, workload.cluster.node_leaves())
    }

    #[test]
    fn same_seed_gives_the_same_admission_and_fleet_history() {
        let a = run(5, 3 * PERIOD as usize);
        assert_eq!(a, run(5, 3 * PERIOD as usize));
        let (ledger, stats, _) = a;
        // The shape is meaningful: spikes park and turn clients away, and
        // churn removes members.
        assert!(ledger.rejected > 0 && stats.queued > 0 && stats.drained > 0);
        assert!(ledger.removed > 0 && stats.dropped > 0);
        assert!(ledger.rejected * 2 < ledger.offered);
    }
}
