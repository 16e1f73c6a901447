//! The round front: the one place an update enters a round, shared by
//! [`Session`](crate::session::Session) and [`Cluster`](crate::cluster::Cluster).
//!
//! A [`RoundFront`] owns everything about admission that does not depend on
//! where a round's slots live: attributing anonymous updates, the lossy
//! encode with per-client error feedback, the bounded admission queues, the
//! slot rule (a backend's priority lane, then a vacancy reclaimed by churn,
//! then the round-robin cursor) with its commit or rollback, the backlog
//! drain and the exact/quorum close check. A backend describes its slots
//! through [`Lanes`] — a session's lanes are its leaves, a cluster's are its
//! nodes — and stores what the front hands it. Both the direct ingress and
//! the backlog drain pick their slot through [`RoundFront::place`], so the
//! two paths cannot route differently.

use crate::admission::{AdmissionQueues, AdmissionStats, QueuedOffer};
use lifl_fl::codec::{EncodedView, ErrorFeedback, UpdateCodec};
use lifl_fl::kernels::dense_le_bytes;
use lifl_fl::update::Update;
use lifl_shmem::BufferPool;
use lifl_types::{
    AdmissionConfig, AdmissionOutcome, ClientId, CodecKind, LiflError, Result, RoundClose,
    SimDuration, Topology,
};

/// What a backend stores for an admitted slot: an update from the direct
/// ingress (already attributed and, under a lossy codec, encoded) or a
/// drained backlog offer in wire form.
pub(crate) enum Arrival {
    Update(Update),
    Prepared(QueuedOffer),
}

/// A backend's side of the front: how many updates a round holds, which
/// lane the round-robin cursor points at, and the store step.
pub(crate) trait Lanes {
    /// The backend's name in "round is full" errors.
    const NAME: &'static str;

    /// Updates one round holds.
    fn capacity(&self) -> usize;

    /// The lane round-robin position `cursor` routes to.
    fn cursor_lane(&self, cursor: u64) -> usize;

    /// A lane that must be filled before vacancies and the cursor.
    fn priority_lane(&self) -> Option<usize> {
        None
    }

    /// Stores `arrival`, attributed to `client`, in `lane` (`priority` when
    /// it is the priority lane's slot). On error nothing may count toward
    /// the round.
    fn admit(
        &mut self,
        lane: usize,
        priority: bool,
        client: ClientId,
        arrival: Arrival,
        feedback: &ErrorFeedback,
    ) -> Result<()>;
}

/// The admission state of one round ingress (see the module docs).
#[derive(Debug)]
pub(crate) struct RoundFront {
    codec: CodecKind,
    feedback: ErrorFeedback,
    admission: Option<AdmissionQueues>,
    close: RoundClose,
    /// Updates in the current round.
    ingested: u64,
    /// Successful ingests over the front's whole life (never reset): the
    /// fallback client id of anonymous updates, so residual slots never
    /// alias across rounds.
    lifetime_ingested: u64,
    /// Round-robin position of the next cursor slot. Equal to `ingested`
    /// until churn opens a vacancy or a priority lane takes a slot, so
    /// legacy routing is bit-exact.
    route_cursor: u64,
    /// Lanes vacated by departed clients, refilled before the cursor
    /// advances so survivors keep their assignment.
    vacancies: Vec<usize>,
}

impl RoundFront {
    /// A front encoding with `codec` (error feedback seeded by `seed`,
    /// scratch from `pool`). With `admission`, overflow parks in one queue
    /// per lane and the config's close applies; otherwise `close` does.
    pub(crate) fn new(
        codec: CodecKind,
        seed: u64,
        pool: &BufferPool,
        admission: Option<AdmissionConfig>,
        lanes: usize,
        close: RoundClose,
    ) -> RoundFront {
        RoundFront {
            codec,
            feedback: ErrorFeedback::new(
                UpdateCodec::with_seed(codec, seed).with_pool(pool.clone()),
            ),
            close: admission.map_or(close, |config| config.round_close),
            admission: admission.map(|config| AdmissionQueues::new(config, lanes, pool.clone())),
            ingested: 0,
            lifetime_ingested: 0,
            route_cursor: 0,
            vacancies: Vec::new(),
        }
    }

    /// Updates in the current round.
    pub(crate) fn pending(&self) -> u64 {
        self.ingested
    }

    /// The close policy the round is validated against.
    pub(crate) fn close(&self) -> RoundClose {
        self.close
    }

    /// The strict ingress: [`RoundFront::try_ingest`], with a turned-away
    /// update as an error (the round is full and there is no backlog, or
    /// the queue budget is exhausted).
    #[inline]
    pub(crate) fn ingest<L: Lanes>(&mut self, lanes: &mut L, update: Update) -> Result<()> {
        match self.try_ingest(lanes, update)? {
            AdmissionOutcome::Rejected { .. } if self.admission.is_some() => {
                Err(LiflError::InvalidConfig(format!(
                    "{} round is full and the admission queue budget is exhausted",
                    L::NAME
                )))
            }
            AdmissionOutcome::Rejected { .. } => Err(full::<L>(lanes.capacity())),
            _ => Ok(()),
        }
    }

    /// [`RoundFront::ingest`] over a batch, stopping at the first error.
    pub(crate) fn ingest_all<L: Lanes>(
        &mut self,
        lanes: &mut L,
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<()> {
        for update in updates {
            self.ingest(lanes, update)?;
        }
        Ok(())
    }

    /// The streaming ingress: admits while the round has room, then parks
    /// (`Queued`) or turns away (`Rejected`, with a zero retry hint when
    /// there is no backlog) — a full round is an outcome, not an error.
    #[inline]
    pub(crate) fn try_ingest<L: Lanes>(
        &mut self,
        lanes: &mut L,
        update: Update,
    ) -> Result<AdmissionOutcome> {
        if (self.ingested as usize) >= lanes.capacity() {
            return self.queue_offer(update);
        }
        let (update, client) = normalise(
            &mut self.feedback,
            self.codec,
            self.lifetime_ingested,
            update,
        );
        self.place(lanes, client, Arrival::Update(update))?;
        Ok(AdmissionOutcome::Admitted)
    }

    /// Admits a payload already in wire form, keeping its attribution (the
    /// drain half of the admission path).
    pub(crate) fn ingest_prepared<L: Lanes>(
        &mut self,
        lanes: &mut L,
        offer: QueuedOffer,
    ) -> Result<()> {
        let capacity = lanes.capacity();
        if self.ingested as usize >= capacity {
            return Err(full::<L>(capacity));
        }
        let client = offer
            .client
            .unwrap_or(ClientId::new(self.lifetime_ingested));
        self.place(lanes, client, Arrival::Prepared(offer))
    }

    /// Drains queued offers into the open round — globally best first
    /// (utility desc, arrival asc) — until the round is full or the backlog
    /// is empty.
    ///
    /// An offer that fails to enter the round is dropped (and counted in
    /// [`AdmissionStats::dropped`]). After a payload error
    /// ([`LiflError::Codec`]) the valid offers behind it still drain; after
    /// any other error (a full store) the drain stops and they stay queued.
    pub(crate) fn drain_backlog<L: Lanes>(&mut self, lanes: &mut L) {
        while (self.ingested as usize) < lanes.capacity() {
            let Some(offer) = self.admission.as_mut().and_then(AdmissionQueues::take_best) else {
                break;
            };
            let Err(error) = self.ingest_prepared(lanes, offer) else {
                continue;
            };
            if let Some(queues) = self.admission.as_mut() {
                queues.record_failed_drain();
            }
            if !matches!(error, LiflError::Codec(_)) {
                break;
            }
        }
    }

    /// Checks the round may close: an exact fill, or the quorum of a
    /// [`RoundClose::Quorum`] close. `capacity` is the live round size,
    /// which differs from `topology`'s once fleet scaling re-split it.
    pub(crate) fn validate_close(&self, topology: &Topology, capacity: usize) -> Result<()> {
        let ingested = self.ingested as usize;
        match self.close {
            RoundClose::Exact if capacity == topology.total_updates() => {
                topology.validate(ingested)
            }
            RoundClose::Exact if ingested != capacity => Err(LiflError::InvalidConfig(format!(
                "round incomplete: the scaled fleet aggregates {capacity} updates, got {ingested}"
            ))),
            RoundClose::Exact => Ok(()),
            quorum @ RoundClose::Quorum { .. } => {
                let required = quorum.required_updates(capacity);
                if ingested < required {
                    return Err(LiflError::InvalidConfig(format!(
                        "quorum not met: round has {ingested} of {required} required updates"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Returns `count` slots of `lane` to the round (their updates left
    /// mid-round); the next admissions refill them first.
    pub(crate) fn reclaim(&mut self, lane: usize, count: u64) {
        self.ingested = self.ingested.saturating_sub(count);
        self.vacancies
            .extend(std::iter::repeat_n(lane, count as usize));
    }

    /// Forgets `count` updates lost outside the slot rule (a killed node's,
    /// refilled through the backend's priority lane).
    pub(crate) fn forget(&mut self, count: u64) {
        self.ingested = self.ingested.saturating_sub(count);
    }

    /// Empties the round's slot state; the backlog and lifetime counters
    /// persist.
    pub(crate) fn reset_round(&mut self) {
        self.ingested = 0;
        self.route_cursor = 0;
        self.vacancies.clear();
    }

    /// Drops every offer `client` has parked; true if there was one.
    pub(crate) fn remove_client(&mut self, client: ClientId) -> bool {
        self.admission
            .as_mut()
            .is_some_and(|queues| queues.remove_client(client) > 0)
    }

    /// Records a client's Oort utility for drain priority (no-op without
    /// admission).
    pub(crate) fn record_client_utility(&mut self, client: ClientId, utility: f64) {
        if let Some(queues) = self.admission.as_mut() {
            queues.record_utility(client, utility);
        }
    }

    /// The admission configuration, when the streaming path is enabled.
    pub(crate) fn admission_config(&self) -> Option<&AdmissionConfig> {
        self.admission.as_ref().map(AdmissionQueues::config)
    }

    /// Occupancy of every lane queue (empty without admission).
    pub(crate) fn queue_depths(&self) -> Vec<usize> {
        self.admission
            .as_ref()
            .map_or_else(Vec::new, AdmissionQueues::depths)
    }

    /// Total parked offers.
    pub(crate) fn queued_updates(&self) -> usize {
        self.admission
            .as_ref()
            .map_or(0, AdmissionQueues::total_queued)
    }

    /// Lifetime admission counters (zero without admission).
    pub(crate) fn admission_stats(&self) -> AdmissionStats {
        self.admission
            .as_ref()
            .map(AdmissionQueues::stats)
            .unwrap_or_default()
    }

    /// The admission queues, for tests that park an offer directly.
    #[cfg(test)]
    pub(crate) fn queues_mut(&mut self) -> Option<&mut AdmissionQueues> {
        self.admission.as_mut()
    }

    /// Parks an update that found the round full, in wire form; without
    /// admission queues it is turned away with a zero retry hint.
    fn queue_offer(&mut self, update: Update) -> Result<AdmissionOutcome> {
        let Some(queues) = self.admission.as_mut() else {
            return Ok(AdmissionOutcome::Rejected {
                retry_after: SimDuration::ZERO,
            });
        };
        // Same attribution and encode as the admitted path, so a
        // queued-then-drained update flows exactly as a direct ingest would.
        let (update, _) = normalise(
            &mut self.feedback,
            self.codec,
            self.lifetime_ingested,
            update,
        );
        let outcome = match &update {
            // The model's little-endian byte view goes straight to the
            // queue, which makes the one copy into its pooled backlog.
            Update::Dense(dense) => queues.offer(
                dense.client,
                &dense_le_bytes(dense.model.as_slice()),
                dense.samples,
                false,
            ),
            Update::Encoded {
                client,
                update: encoded,
                samples,
            } => queues.offer(*client, &encoded.to_bytes(), *samples, true),
            Update::RemoteBytes {
                wire,
                weight,
                encoded,
            } => {
                // Malformed payloads are refused at queue time, just as the
                // direct ingress refuses them.
                EncodedView::parse_wire(wire, *encoded)?;
                queues.offer(None, wire, *weight, *encoded)
            }
        };
        self.feedback.recycle_update(update);
        Ok(outcome)
    }

    /// Picks the slot — the priority lane, then a vacancy, then the cursor
    /// — has the backend store `arrival` there, and commits the slot on
    /// success or returns it on failure.
    #[inline]
    fn place<L: Lanes>(&mut self, lanes: &mut L, client: ClientId, arrival: Arrival) -> Result<()> {
        let priority = lanes.priority_lane();
        let vacancy = priority.is_none().then(|| self.vacancies.pop()).flatten();
        let lane = priority
            .or(vacancy)
            .unwrap_or_else(|| lanes.cursor_lane(self.route_cursor));
        let outcome = lanes.admit(lane, priority.is_some(), client, arrival, &self.feedback);
        if outcome.is_err() {
            self.vacancies.extend(vacancy);
            return outcome;
        }
        self.ingested += 1;
        self.lifetime_ingested += 1;
        if priority.is_none() && vacancy.is_none() {
            self.route_cursor += 1;
        }
        outcome
    }
}

/// One attribution and encode rule for every path: an anonymous dense or
/// encoded update takes the lifetime arrival index `lifetime` as its client
/// id, and under a lossy `codec` a dense update is encoded with that
/// client's error-feedback residual. Returns the update and its attribution
/// (the fallback id for remote bytes, which carry none).
#[inline]
fn normalise(
    feedback: &mut ErrorFeedback,
    codec: CodecKind,
    lifetime: u64,
    update: Update,
) -> (Update, ClientId) {
    let fallback = ClientId::new(lifetime);
    match update {
        Update::Dense(mut dense) => {
            let client = *dense.client.get_or_insert(fallback);
            if codec.is_lossless() {
                (Update::Dense(dense), client)
            } else {
                let samples = dense.samples;
                (feedback.encode_update(client, dense.model, samples), client)
            }
        }
        Update::Encoded {
            client,
            update,
            samples,
        } => {
            let client = client.unwrap_or(fallback);
            let update = Update::Encoded {
                client: Some(client),
                update,
                samples,
            };
            (update, client)
        }
        other => (other, fallback),
    }
}

/// The error of an ingest into a round with no room and no backlog.
fn full<L: Lanes>(capacity: usize) -> LiflError {
    LiflError::InvalidConfig(format!(
        "{} round is full: topology aggregates {capacity} updates",
        L::NAME
    ))
}
