//! `cluster-uniform8-2m`: a 2-node `Cluster` over `Topology [2, 2, 2]`,
//! uniform8 codec, 2,097,152-parameter updates (8 MiB dense: above a core's
//! 2 MiB L2, far below ResNet-18). Offers are dense; the cluster ingress
//! encodes them with per-client error feedback, as `TrainingDriver` does,
//! for 8 fixed clients.
//!
//! The load lands on the codec encode, the fused folds, the interior
//! re-encode, the `RemoteBytes` hop and its parse, and top placement. The
//! large dense copy and admission are bypassed.

use super::{account_cluster, check, engine_err, node_store_stats, Workload};
use crate::harness::{EngineStats, Recorder};
use crate::inputs;
use lifl_core::cluster::{Cluster, ClusterBuilder};
use lifl_core::session::{Session, SessionBuilder, Update};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_shmem::StoreStats;
use lifl_types::{ClientId, CodecKind, Topology};
use std::time::Instant;

pub const DIM: usize = 2 * 1024 * 1024;
const FAN_INS: [usize; 3] = [2, 2, 2];
const CLIENTS: u64 = 8;
/// Untimed warm-up rounds, each checked bit for bit against the single
/// session over the same global tree.
const WARMUP_ROUNDS: usize = 3;

pub struct ClusterUniform8 {
    seed: u64,
    cluster: Cluster,
    /// The single session over the same global tree, fed the same inputs.
    shadow: Option<Session>,
    round: u64,
    top: StoreStats,
}

fn synthesize(seed: u64, round: u64) -> (Vec<ModelUpdate>, u64) {
    let updates: Vec<ModelUpdate> = (0..CLIENTS)
        .map(|client| {
            let key = round * CLIENTS + client;
            ModelUpdate::from_client(
                ClientId::new(client),
                DenseModel::from_vec(inputs::params(seed, key, DIM)),
                inputs::samples(seed, key),
            )
        })
        .collect();
    let samples = updates.iter().map(|u| u.samples).sum();
    (updates, samples)
}

fn topology() -> Topology {
    Topology::new(FAN_INS.to_vec()).expect("a valid three-level tree")
}

impl Workload for ClusterUniform8 {
    fn setup(seed: u64, shadow: bool, warm: &mut Recorder) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let cluster = ClusterBuilder::new()
            .topology(topology())
            .codec(CodecKind::Uniform8)
            .build()
            .map_err(engine_err("build"))?;
        let build_s = start.elapsed().as_secs_f64();
        let single = SessionBuilder::new()
            .topology(topology())
            .codec(CodecKind::Uniform8)
            .build()
            .map_err(engine_err("build the single session"))?;
        let mut workload = ClusterUniform8 {
            seed,
            cluster,
            shadow: Some(single),
            round: 0,
            top: StoreStats::default(),
        };
        for _ in 0..WARMUP_ROUNDS {
            workload.round(warm)?;
        }
        if !shadow {
            workload.shadow = None;
        }
        Ok((workload, build_s))
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let (seed, round) = (self.seed, self.round);
        self.round += 1;
        let ((updates, samples), _) = rec.timed("bench.synth", || synthesize(seed, round));
        let copies = self.shadow.as_ref().map(|_| updates.clone());
        let node_before = node_store_stats(&self.cluster);
        let leaves = self.cluster.node_leaves();

        rec.begin_round();
        for update in updates {
            rec.offer(|| self.cluster.try_ingest(Update::Dense(update)));
        }
        let report = rec.drive(|| self.cluster.drive());
        rec.end_round(report.as_ref().map_or(0, |r| r.updates_ingested()));

        let report = report.ok_or("cluster drive failed")?;
        check(
            report.update.samples == samples && report.updates_ingested() == CLIENTS,
            format!(
                "aggregate holds {} samples from {} updates, expected {samples} from {CLIENTS}",
                report.update.samples,
                report.updates_ingested()
            ),
        )?;
        let drive_ms = rec.drive_ms.last().copied().unwrap_or(0.0);
        if let (Some(single), Some(copies)) = (self.shadow.as_mut(), copies) {
            let (ingested, _) = rec.timed("shadow.ingest", || {
                single.ingest_all(copies.into_iter().map(Update::Dense))
            });
            ingested.map_err(engine_err("single-session ingest"))?;
            let (reference, single_ms) = rec.timed("shadow.drive", || single.drive());
            let reference = reference.map_err(engine_err("single-session drive"))?;
            let same_bits = reference.update.samples == report.update.samples
                && reference
                    .update
                    .model
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(report.update.model.as_slice().iter().map(|v| v.to_bits()));
            check(
                same_bits,
                format!("round {round}: cluster aggregate differs from the single session"),
            )?;
            rec.layers.overhead_ms.push(drive_ms - single_ms);
        }
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
        (
            inputs::params(self.seed, 0, DIM),
            inputs::samples(self.seed, 0),
        )
    }

    fn lossy(&self) -> bool {
        true
    }

    fn finish(&mut self) -> Result<(), String> {
        check(
            self.cluster.pending_updates() == 0,
            "updates left in the cluster after the last round",
        )
    }
}
