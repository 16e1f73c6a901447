//! The recorder every workload drives the engine through: it times each call
//! the benchmark makes into the engine's public API, keeps the per-round
//! samples the end-to-end metrics are computed from, and — in a traced
//! phase — records a span per call.

use crate::probe::{self, Series};
use crate::stats::Span;
use lifl_core::AdmissionStats;
use lifl_shmem::{PoolStats, StoreStats};
use lifl_types::{AdmissionOutcome, Result};
use std::time::Instant;

/// Name of the span enclosing one round.
pub const ROUND: &str = "round";

/// Counters one workload accumulates for the per-layer metrics, over the
/// rounds of one measured phase.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub puts: u64,
    pub encoded_bytes: u64,
    pub dense_equiv_bytes: u64,
    /// Highest count, after any round, of store objects that belong to no
    /// open round (a leak check: 0 when every round frees what it put).
    pub live_objects_end: u64,
    pub ingress_wire_bytes: u64,
    pub hops: u64,
    pub same_node_hops: u64,
    pub inter_node_bytes: u64,
    /// Modelled (not measured) serialised hop latency, summed over rounds.
    pub priced_hop_ms: f64,
    pub top_moves: u64,
    pub resizes: u64,
    /// Sum over rounds of the mean leaf aggregators per node.
    pub leaves_per_node_sum: f64,
    pub drive_resize_ms: Series<f64>,
    pub drive_steady_ms: Series<f64>,
    /// Per round: cluster drive minus the equivalent single session's drive.
    pub overhead_ms: Series<f64>,
}

impl LayerCounts {
    /// Adds the store activity between two snapshots of one store.
    pub fn add_store(&mut self, after: &StoreStats, before: &StoreStats) {
        self.puts += after.total_puts.saturating_sub(before.total_puts);
        self.encoded_bytes += after.encoded_bytes.saturating_sub(before.encoded_bytes);
        self.dense_equiv_bytes += after
            .dense_equivalent_bytes
            .saturating_sub(before.dense_equivalent_bytes);
    }
}

/// Engine-wide counters read at the edges of a measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    pub pool: PoolStats,
    pub admission: AdmissionStats,
}

/// Samples and spans of one measured phase.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    pub spans: Series<Span>,
    rounds_begun: u64,
    round_span: Option<usize>,
    round_start: Option<Instant>,
    last_offer_end: Option<Instant>,
    last_drive_end: Option<Instant>,
    cpu_at_round_start: f64,
    pub round_ms: Series<f64>,
    pub close_ms: Series<f64>,
    pub offer_us: Series<f64>,
    pub admitted_us: Series<f64>,
    pub queued_us: Series<f64>,
    pub rejected_us: Series<f64>,
    pub depart_us: Series<f64>,
    pub drive_ms: Series<f64>,
    pub offered: u64,
    pub rejected: u64,
    /// Calls into the engine that returned an error.
    pub failed: u64,
    /// Updates folded into global models.
    pub updates: u64,
    pub cpu_s: f64,
    pub layers: LayerCounts,
}

fn us(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            tracing,
            spans: Series::default(),
            rounds_begun: 0,
            round_span: None,
            round_start: None,
            last_offer_end: None,
            last_drive_end: None,
            cpu_at_round_start: 0.0,
            round_ms: Series::default(),
            close_ms: Series::default(),
            offer_us: Series::default(),
            admitted_us: Series::default(),
            queued_us: Series::default(),
            rejected_us: Series::default(),
            depart_us: Series::default(),
            drive_ms: Series::default(),
            offered: 0,
            rejected: 0,
            failed: 0,
            updates: 0,
            cpu_s: 0.0,
            layers: LayerCounts::default(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push_span(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let in_round = self.round_start.is_some();
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: if in_round { self.round_span } else { None },
            round: in_round.then_some(self.rounds_begun - 1),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `call`, recording a span named `name` when tracing. Inside a
    /// round the span is a child of the round's span.
    pub fn timed<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        if self.tracing {
            self.push_span(name, start, end);
        }
        (out, us(start, end) / 1e3)
    }

    /// Opens a round: its wall time runs from here (just before the first
    /// offer) to the return of the drive that closes it.
    pub fn begin_round(&mut self) {
        self.cpu_at_round_start = probe::process_cpu_s();
        self.rounds_begun += 1;
        self.last_offer_end = None;
        self.last_drive_end = None;
        let start = Instant::now();
        self.round_start = Some(start);
        if self.tracing {
            self.round_span = None;
            let index = self.push_span(ROUND, start, start);
            self.round_span = Some(index);
        }
    }

    /// One blocking offer: `call` is the client's `try_ingest`.
    pub fn offer(&mut self, call: impl FnOnce() -> Result<AdmissionOutcome>) -> AdmissionOutcome {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let took = us(start, end);
        self.offered += 1;
        self.offer_us.push(took);
        self.last_offer_end = Some(end);
        let (name, outcome) = match out {
            Ok(outcome @ AdmissionOutcome::Admitted) => {
                self.admitted_us.push(took);
                ("front.offer.admitted", outcome)
            }
            Ok(outcome @ AdmissionOutcome::Queued { .. }) => {
                self.queued_us.push(took);
                ("front.offer.queued", outcome)
            }
            Ok(outcome @ AdmissionOutcome::Rejected { .. }) => {
                self.rejected += 1;
                self.rejected_us.push(took);
                ("front.offer.rejected", outcome)
            }
            Err(_) => {
                // An errored offer counts as refused.
                self.failed += 1;
                self.rejected += 1;
                (
                    "front.offer.error",
                    AdmissionOutcome::Rejected {
                        retry_after: lifl_types::SimDuration::ZERO,
                    },
                )
            }
        };
        if self.tracing {
            self.push_span(name, start, end);
        }
        outcome
    }

    /// One client departure.
    pub fn depart(&mut self, call: impl FnOnce() -> bool) -> bool {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.depart_us.push(us(start, end));
        if self.tracing {
            self.push_span("front.depart", start, end);
        }
        out
    }

    /// The drive closing the round.
    pub fn drive<T>(&mut self, call: impl FnOnce() -> Result<T>) -> Option<T> {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.drive_ms.push(us(start, end) / 1e3);
        self.last_drive_end = Some(end);
        if self.tracing {
            self.push_span("front.drive", start, end);
        }
        if out.is_err() {
            self.failed += 1;
        }
        out.ok()
    }

    /// Closes the round opened by [`Recorder::begin_round`], whose drive
    /// folded `updates` client updates into the global model.
    pub fn end_round(&mut self, updates: u64) {
        let Some(start) = self.round_start.take() else {
            return;
        };
        let end = self.last_drive_end.unwrap_or_else(Instant::now);
        let last_offer = self.last_offer_end.unwrap_or(start);
        self.round_ms.push(us(start, end) / 1e3);
        self.close_ms.push(us(last_offer, end) / 1e3);
        self.updates += updates;
        self.cpu_s += probe::process_cpu_s() - self.cpu_at_round_start;
        if let Some(index) = self.round_span.take() {
            self.spans[index].end_ns = self.ns(end);
        }
    }

    /// Sum of the timed rounds' wall time, in seconds.
    pub fn timed_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn round_spans_nest_the_calls_and_account_the_round() {
        let mut rec = Recorder::new(true);
        rec.begin_round();
        rec.offer(|| Ok(AdmissionOutcome::Admitted));
        rec.offer(|| {
            Ok(AdmissionOutcome::Rejected {
                retry_after: lifl_types::SimDuration::ZERO,
            })
        });
        rec.depart(|| true);
        let report = rec.drive(|| Ok(7u64));
        rec.end_round(report.unwrap_or(0));
        let (_, outside_ms) = rec.timed("bench.synth", || ());

        assert_eq!(
            (rec.offered, rec.rejected, rec.failed, rec.updates),
            (2, 1, 0, 7)
        );
        assert_eq!((rec.round_ms.len(), rec.close_ms.len()), (1, 1));
        assert!(rec.close_ms[0] <= rec.round_ms[0] && outside_ms >= 0.0);
        let names: Vec<_> = rec.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                ROUND,
                "front.offer.admitted",
                "front.offer.rejected",
                "front.depart",
                "front.drive",
                "bench.synth"
            ]
        );
        assert!(rec.spans[1..5]
            .iter()
            .all(|s| s.parent == Some(0) && s.round == Some(0)));
        assert_eq!((rec.spans[5].parent, rec.spans[5].round), (None, None));
        let round = &rec.spans[0];
        assert!((round.duration_ns() as f64 / 1e6 - rec.round_ms[0]).abs() < 1e-3);
        let share = stats::unattributed_share(&rec.spans, ROUND);
        assert!((0.0..1.0).contains(&share));
    }
}
