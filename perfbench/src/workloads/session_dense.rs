//! `session-dense-resnet18`: one `Session` over a `two_level(2, 4)` tree,
//! identity codec, ResNet-18-sized dense updates (11,689,512 f32, 46.8 MB
//! each), exact-fill rounds of 8 fixed clients.
//!
//! Bandwidth-bound with a working set far beyond the LLC: the load lands on
//! the store's dense copy (`ObjectStore::put_f32`), the dense fold and the
//! top decode. Codec, admission, hops and the fleet are bypassed.

use super::{check, engine_err, Workload};
use crate::harness::{EngineStats, Recorder};
use crate::inputs;
use lifl_core::session::{Session, SessionBuilder, SessionReport, Update};
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::DenseModel;
use lifl_types::ClientId;
use std::time::Instant;

/// ResNet-18's parameter count.
pub const DIM: usize = 11_689_512;
const LEAVES: usize = 2;
const PER_LEAF: usize = 4;
const CLIENTS: u64 = (LEAVES * PER_LEAF) as u64;
const WARMUP_ROUNDS: usize = 1;
/// The hierarchical f32 fold against an f64 flat FedAvg: a few ulps of
/// values in [-1, 1).
const TOLERANCE: f64 = 2e-5;

pub struct SessionDense {
    seed: u64,
    session: Session,
    round: u64,
}

/// One round's inputs and their FedAvg reference.
struct Inputs {
    updates: Vec<ModelUpdate>,
    reference: Vec<f32>,
    samples: u64,
}

fn synthesize(seed: u64, round: u64) -> Inputs {
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
    let samples: u64 = updates.iter().map(|u| u.samples).sum();
    // Flat FedAvg in f64, one coordinate at a time.
    let models: Vec<(&[f32], f64)> = updates
        .iter()
        .map(|u| (u.model.as_slice(), u.samples as f64 / samples as f64))
        .collect();
    let reference = (0..DIM)
        .map(|i| models.iter().map(|(m, w)| w * f64::from(m[i])).sum::<f64>() as f32)
        .collect();
    Inputs {
        updates,
        reference,
        samples,
    }
}

fn verify(report: &SessionReport, inputs: &Inputs) -> Result<(), String> {
    check(
        report.update.samples == inputs.samples && report.updates_ingested == CLIENTS,
        format!(
            "aggregate holds {} samples from {} updates, expected {} from {CLIENTS}",
            report.update.samples, report.updates_ingested, inputs.samples
        ),
    )?;
    let model = report.update.model.as_slice();
    check(model.len() == DIM, "aggregate has the wrong dimension")?;
    let worst = model
        .iter()
        .zip(&inputs.reference)
        .map(|(got, want)| (f64::from(*got) - f64::from(*want)).abs())
        .fold(0.0f64, f64::max);
    check(
        worst <= TOLERANCE,
        format!("aggregate differs from the FedAvg reference by {worst}"),
    )
}

impl Workload for SessionDense {
    fn setup(seed: u64, _shadow: bool, warm: &mut Recorder) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let session = SessionBuilder::new()
            .two_level(LEAVES, PER_LEAF)
            .build()
            .map_err(engine_err("build"))?;
        let build_s = start.elapsed().as_secs_f64();
        let mut workload = SessionDense {
            seed,
            session,
            round: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            workload.round(warm)?;
        }
        Ok((workload, build_s))
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let (seed, round) = (self.seed, self.round);
        self.round += 1;
        let (mut inputs, _) = rec.timed("bench.synth", || synthesize(seed, round));
        let before = self.session.store().stats();

        rec.begin_round();
        for update in inputs.updates.drain(..) {
            rec.offer(|| self.session.try_ingest(Update::Dense(update)));
        }
        let report = rec.drive(|| self.session.drive());
        rec.end_round(report.as_ref().map_or(0, |r| r.updates_ingested));

        let report = report.ok_or("session drive failed")?;
        let (verdict, _) = rec.timed("bench.verify", || verify(&report, &inputs));
        verdict?;
        let layers = &mut rec.layers;
        layers.add_store(&report.store_stats, &before);
        layers.ingress_wire_bytes += report.ingress_wire_bytes;
        let stray = (self.session.store().stats().live_objects as u64)
            .saturating_sub(self.session.pending_updates());
        layers.live_objects_end = layers.live_objects_end.max(stray);
        layers.leaves_per_node_sum += LEAVES as f64;
        if let Some(&ms) = rec.drive_ms.last() {
            layers.drive_steady_ms.push(ms);
        }
        Ok(())
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            pool: self.session.pool().stats(),
            admission: self.session.admission_stats(),
        }
    }

    fn sample_update(&self) -> (Vec<f32>, u64) {
        (
            inputs::params(self.seed, 0, DIM),
            inputs::samples(self.seed, 0),
        )
    }

    fn lossy(&self) -> bool {
        false
    }

    fn finish(&mut self) -> Result<(), String> {
        check(
            self.session.pending_updates() == 0,
            "updates left in the session after the last round",
        )
    }
}
