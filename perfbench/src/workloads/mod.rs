//! The three workloads. Each drives the engine's public API the way an FL
//! deployment does: a closed loop from one caller thread, offering client
//! updates with `try_ingest` and closing each round with `drive`. Inputs are
//! synthesised from the seed before each timed round.

pub mod cluster_streaming;
pub mod cluster_uniform8;
pub mod session_dense;

use crate::harness::{EngineStats, LayerCounts, Recorder};
use lifl_core::cluster::{Cluster, ClusterReport};
use lifl_shmem::StoreStats;
use std::fmt::Display;

pub trait Workload: Sized {
    /// Builds the engine and runs the warm-up rounds through `warm`.
    /// Returns the workload and the seconds `build()` took. `shadow` keeps
    /// the equivalent single session running for the whole run (the traced
    /// run compares against it); otherwise it only shadows the warm-up.
    fn setup(seed: u64, shadow: bool, warm: &mut Recorder) -> Result<(Self, f64), String>;

    /// One timed round, with its untimed input synthesis and checks.
    fn round(&mut self, rec: &mut Recorder) -> Result<(), String>;

    /// Pool and admission counters now.
    fn engine_stats(&self) -> EngineStats;

    /// One client update of the workload and its weight, for the floors.
    fn sample_update(&self) -> (Vec<f32>, u64);

    /// Whether updates travel encoded (the fused fold is then the floor).
    fn lossy(&self) -> bool;

    /// Untimed checks at the end of the run.
    fn finish(&mut self) -> Result<(), String>;
}

/// Formats an engine error for the run's failure message.
pub fn engine_err(context: &str) -> impl Fn(lifl_types::LiflError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

pub fn check(ok: bool, what: impl Display) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Store snapshots of every node session, in node order.
pub fn node_store_stats(cluster: &Cluster) -> Vec<StoreStats> {
    cluster
        .node_sessions()
        .iter()
        .map(|s| s.store().stats())
        .collect()
}

/// Store objects that belong to no open round, across every node store.
fn stray_objects(cluster: &Cluster) -> u64 {
    let live: usize = cluster
        .node_sessions()
        .iter()
        .map(|s| s.store().stats().live_objects)
        .sum();
    (live as u64).saturating_sub(cluster.pending_updates())
}

/// Accounts one driven cluster round into the per-layer counters.
/// `node_before` holds the node stores before the round and `leaves` the
/// per-node leaf counts the round ran with; `top` is the top store after
/// the previous round, advanced to this one.
pub fn account_cluster(
    layers: &mut LayerCounts,
    cluster: &Cluster,
    report: &ClusterReport,
    node_before: &[StoreStats],
    leaves: &[usize],
    top: &mut StoreStats,
    drive_ms: f64,
) {
    for node in &report.nodes {
        if let Some(before) = node_before.get(node.node.index() as usize) {
            layers.add_store(&node.store_stats, before);
        }
        layers.ingress_wire_bytes += node.ingress_wire_bytes;
    }
    layers.add_store(&report.top_store_stats, top);
    *top = report.top_store_stats;
    layers.live_objects_end = layers.live_objects_end.max(stray_objects(cluster));
    layers.hops += report.hops.len() as u64;
    layers.same_node_hops += report.hops.iter().filter(|h| h.same_node).count() as u64;
    layers.inter_node_bytes += report.inter_node_wire_bytes();
    layers.priced_hop_ms += report.serialized_hop_latency().as_secs() * 1e3;
    layers.top_moves += u64::from(report.replacement.is_some());
    let resizes = report
        .scaling
        .iter()
        .filter(|a| a.decision.is_resize())
        .count() as u64;
    layers.resizes += resizes;
    layers.leaves_per_node_sum += leaves.iter().sum::<usize>() as f64 / leaves.len().max(1) as f64;
    if resizes > 0 {
        layers.drive_resize_ms.push(drive_ms);
    } else {
        layers.drive_steady_ms.push(drive_ms);
    }
}
