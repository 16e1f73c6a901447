//! The unified session API: one builder-driven, codec-transparent entry point
//! for N-level hierarchical aggregation.
//!
//! Before this module, the in-process runtime had forked into parallel
//! codec-blind and codec-aware free functions (plus four `Gateway::ingest_*`
//! variants) and the tree shape was hard-wired to two levels. A [`Session`]
//! owns the whole stack — gateway, shared-memory store, scratch pool,
//! error-feedback encoder and the aggregator tree described by a
//! [`Topology`] — behind exactly two operations:
//!
//! * [`Session::ingest`] — the single polymorphic ingress. Every
//!   representation an update can arrive in ([`Update::Dense`],
//!   [`Update::Encoded`], [`Update::RemoteBytes`]) goes through the same
//!   call; under a lossy codec, dense updates are transparently encoded with
//!   per-client error feedback before they enter shared memory.
//! * [`Session::drive`] — runs the configured tree to completion (leaves on
//!   their own threads, every interior level folding child intermediates in
//!   deterministic child order) and returns a [`SessionReport`].
//!
//! With [`CodecKind::Identity`] and a two-level topology the session is
//! bit-exact with the seed two-level fold semantics (enforced by the
//! proptests below and the `tests/it` tiers); the legacy free functions that
//! used to shim over this type were deleted in PR 6 — see `MIGRATION.md`.

#![deny(missing_docs)]

use crate::admission::QueuedOffer;
use crate::aggregator::AggregatorRuntime;
use crate::front::{Arrival, Lanes, RoundFront};
use crate::gateway::Gateway;
use lifl_fl::aggregate::ModelUpdate;
use lifl_fl::codec::{EncodedView, ErrorFeedback, UpdateCodec};
use lifl_fl::DenseModel;
use lifl_shmem::queue::QueuedUpdate;
use lifl_shmem::{BufferPool, InPlaceQueue, ObjectStore, StoreStats};
use lifl_types::{
    AdmissionConfig, AdmissionOutcome, ClientId, CodecKind, FoldPolicy, LiflError, NodeId, Result,
    RoundClose, Topology, WIRE_HEADER_BYTES,
};

pub use lifl_fl::update::Update;

/// Default seed of the session's client-side error-feedback encoder (the
/// value the pre-redesign codec path used).
const DEFAULT_SEED: u64 = 0x5EED;

/// Builds a [`Session`]: topology, codec, shard count, RNG seed and
/// store/pool injection, with working defaults for all of them.
///
/// ```
/// use lifl_core::session::SessionBuilder;
/// use lifl_types::{CodecKind, Topology};
///
/// let session = SessionBuilder::new()
///     .topology(Topology::new(vec![2, 2, 2]).unwrap()) // 3-level tree
///     .codec(CodecKind::Uniform8)
///     .shards(4)
///     .build()
///     .unwrap();
/// assert_eq!(session.topology().levels(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    topology: Topology,
    codec: CodecKind,
    shards: usize,
    policy: FoldPolicy,
    seed: u64,
    node: NodeId,
    level_offset: usize,
    branch: usize,
    store: Option<ObjectStore>,
    pool: Option<BufferPool>,
    admission: Option<AdmissionConfig>,
    close: RoundClose,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// A builder with the seed defaults: the classic 4×2 two-level tree,
    /// [`CodecKind::Identity`], one shard (sequential fold), a fresh
    /// shared-memory store and scratch pool.
    pub fn new() -> Self {
        SessionBuilder {
            topology: Topology::default(),
            codec: CodecKind::Identity,
            shards: 1,
            policy: FoldPolicy::FedAvg,
            seed: DEFAULT_SEED,
            node: NodeId::new(0),
            level_offset: 0,
            branch: 0,
            store: None,
            pool: None,
            admission: None,
            close: RoundClose::Exact,
        }
    }

    /// Sets the aggregation-tree shape (any [`Topology`]; see
    /// [`Topology::two_level`] for the seed shape).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Convenience for the classic two-level tree: `leaves` leaf aggregators
    /// each consuming `updates_per_leaf` client updates.
    pub fn two_level(self, leaves: usize, updates_per_leaf: usize) -> Self {
        self.topology(Topology::two_level(leaves, updates_per_leaf))
    }

    /// Sets the wire codec every update travels with. Lossy codecs encode
    /// dense ingests with per-client error feedback and re-encode every
    /// interior intermediate; `Identity` is bit-exact with the dense path.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the number of parameter-vector shards every aggregator folds
    /// batches across (`LiflConfig.aggregation_shards`; clamped to ≥ 1,
    /// where 1 is the sequential eager fold).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the fold policy every aggregator in the tree combines updates
    /// with (`LiflConfig.fold_policy`). The default [`FoldPolicy::FedAvg`] is
    /// bit-exact with the pre-policy path; robust policies compute a
    /// coordinate-wise statistic per aggregator (each level's statistic runs
    /// over that level's inputs — raw client updates at the leaves, child
    /// intermediates above).
    pub fn fold_policy(mut self, policy: FoldPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Seeds the client-side error-feedback encoder's stochastic-rounding
    /// stream (per-aggregator codec streams derive deterministically from the
    /// tree position, so whole runs are reproducible).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the node identity of the session's gateway.
    pub fn node(mut self, node: NodeId) -> Self {
        self.node = node;
        self
    }

    /// Places this session's tree at a position inside a larger,
    /// cluster-spanning tree: the session drives `branch`-th subtree of the
    /// level-`level_offset` layer, so every aggregator identity — and with
    /// it the deterministic per-position codec stream — matches what a
    /// single session over the whole tree would use at the same position.
    /// This is what makes a multi-node round composed over
    /// [`Update::RemoteBytes`] bit-exact with its single-session equivalent
    /// (see [`crate::cluster::ClusterBuilder`], which wires this up).
    ///
    /// The default `(0, 0)` places the session at the origin of its own
    /// tree — the ordinary standalone case.
    ///
    /// ```
    /// use lifl_core::session::SessionBuilder;
    /// use lifl_types::{NodeId, Topology};
    ///
    /// // Node 1 of a cluster drives the second [2, 2] subtree of a global
    /// // [2, 2, 4] tree; a parent session at level 2 folds the node exports.
    /// let child = SessionBuilder::new()
    ///     .topology(Topology::new(vec![2, 2]).unwrap())
    ///     .node(NodeId::new(1))
    ///     .tree_position(0, 1)
    ///     .build()
    ///     .unwrap();
    /// let parent = SessionBuilder::new()
    ///     .topology(Topology::flat(4))
    ///     .tree_position(2, 0)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(child.topology().total_updates(), 4);
    /// assert_eq!(parent.topology().total_updates(), 4);
    /// ```
    pub fn tree_position(mut self, level_offset: usize, branch: usize) -> Self {
        self.level_offset = level_offset;
        self.branch = branch;
        self
    }

    /// Injects a shared-memory object store (e.g. one shared with other
    /// components on the node) instead of creating a fresh one.
    pub fn store(mut self, store: ObjectStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Injects the scratch-buffer pool the codecs draw encode bodies and
    /// compensation buffers from, instead of creating a fresh one.
    pub fn pool(mut self, pool: BufferPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Enables the bounded streaming-admission path: when a round is full,
    /// [`Session::try_ingest`] parks overflow in per-leaf queues capped by
    /// `config` (instead of erroring), queued clients win admission into the
    /// next round by Oort utility, and the round-close policy in `config`
    /// decides whether [`Session::drive`] demands an exact fill or accepts a
    /// quorum. Without this, `try_ingest` rejects overflow outright and
    /// every legacy exact-fill behaviour is unchanged.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Sets the close policy of a session without admission queues: a
    /// cluster's node and top sessions take the quorum of a quorum-closed
    /// cluster round this way. [`SessionBuilder::admission`]'s close wins.
    pub(crate) fn round_close(mut self, close: RoundClose) -> Self {
        self.close = close;
        self
    }

    /// Builds the session: registers one gateway inbox per leaf aggregator
    /// and wires the error-feedback encoder to the scratch pool.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] for an invalid codec or fold
    /// policy configuration (e.g. `TopK` with a permille outside `1..=1000`,
    /// or a trimmed mean that trims everything).
    pub fn build(self) -> Result<Session> {
        if let CodecKind::TopK { permille } = self.codec {
            if permille == 0 || permille > 1000 {
                return Err(LiflError::InvalidConfig(format!(
                    "TopK permille must be in 1..=1000, got {permille}"
                )));
            }
        }
        self.policy.validate().map_err(LiflError::InvalidConfig)?;
        if let Some(config) = &self.admission {
            config.validate()?;
        }
        let store = self.store.unwrap_or_default();
        let pool = self.pool.unwrap_or_default();
        let mut gateway = Gateway::new(self.node, store.clone());
        let leaves = self.topology.leaves();
        let leaf_inboxes: Vec<InPlaceQueue> = (0..leaves)
            .map(|j| {
                gateway.register_aggregator(crate::aggregator::position_id(
                    self.level_offset,
                    self.branch * leaves + j,
                ))
            })
            .collect();
        let front = RoundFront::new(
            self.codec,
            self.seed,
            &pool,
            self.admission,
            leaves,
            self.close,
        );
        Ok(Session {
            codec: self.codec,
            shards: self.shards,
            policy: self.policy,
            level_offset: self.level_offset,
            branch: self.branch,
            store,
            pool,
            leaf_inboxes,
            front,
            leaves: Leaves {
                capacity: self.topology.total_updates(),
                count: leaves,
                level_offset: self.level_offset,
                first_leaf: self.branch * leaves,
                gateway,
                ingress_wire_bytes: 0,
                round_keys: Vec::new(),
                round_entries: Vec::new(),
            },
            topology: self.topology,
        })
    }
}

/// What one driven round produced, beyond the global model: the
/// shared-memory accounting proving what representation actually flowed
/// through the store.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The aggregated global model (decoded to dense parameters).
    pub update: ModelUpdate,
    /// Object-store statistics at the end of the round (encoded puts, real
    /// and dense-equivalent bytes).
    pub store_stats: StoreStats,
    /// Total data-plane payload bytes the ingested updates occupied in their
    /// wire form.
    pub ingress_wire_bytes: u64,
    /// Updates ingested into this round.
    pub updates_ingested: u64,
    /// The tree the round ran over.
    pub topology: Topology,
}

/// One driven round exported in wire form for a cluster hop: what a node's
/// gateway ships to the parent gateway instead of a decoded model.
#[derive(Debug, Clone)]
pub struct WireExport {
    /// The merged subtree update as [`Update::RemoteBytes`]: a zero-copy
    /// handle onto the session store's top intermediate — the
    /// self-describing encoded form under a lossy codec, headerless
    /// little-endian `f32` otherwise — ready for the parent session's
    /// [`Session::ingest`].
    pub update: Update,
    /// Object-store statistics at the end of the round.
    pub store_stats: StoreStats,
    /// Total data-plane payload bytes the round's ingests occupied in wire
    /// form.
    pub ingress_wire_bytes: u64,
    /// Updates ingested into the round.
    pub updates_ingested: u64,
}

impl WireExport {
    /// Payload bytes this export puts on the inter-node wire (the 16-byte
    /// descriptor of an encoded export rides the control channel and is
    /// excluded, consistent with [`Update::wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        self.update.wire_bytes()
    }
}

/// One in-process aggregation session: the gateway, the shared-memory store,
/// the codec state and an N-level aggregator tree behind a single ingress
/// ([`Session::ingest`]) and a single driver ([`Session::drive`]).
///
/// A session is reusable: after [`Session::drive`] returns — successfully or
/// with an aggregation error (which discards the failed round) — the next
/// round's updates can be ingested immediately, and per-client
/// error-feedback residuals persist across rounds, exactly as a long-lived
/// deployment would keep them.
///
/// ```
/// use lifl_core::session::{SessionBuilder, Update};
/// use lifl_fl::DenseModel;
/// use lifl_types::ClientId;
///
/// // 2 leaves × 2 updates each, identity codec (the defaults, shrunk).
/// let mut session = SessionBuilder::new().two_level(2, 2).build().unwrap();
/// for i in 0..4u64 {
///     let model = DenseModel::from_vec(vec![i as f32; 8]);
///     session
///         .ingest(Update::dense(ClientId::new(i), model, i + 1))
///         .unwrap();
/// }
/// let report = session.drive().unwrap();
/// assert_eq!(report.update.samples, 1 + 2 + 3 + 4);
/// assert_eq!(report.update.model.dim(), 8);
/// ```
#[derive(Debug)]
pub struct Session {
    topology: Topology,
    codec: CodecKind,
    shards: usize,
    policy: FoldPolicy,
    /// The session's position inside a larger cluster-spanning tree (see
    /// [`SessionBuilder::tree_position`]); `(0, 0)` for standalone sessions.
    level_offset: usize,
    branch: usize,
    store: ObjectStore,
    pool: BufferPool,
    leaf_inboxes: Vec<InPlaceQueue>,
    /// Attribution, error-feedback encode, admission queues and the slot
    /// rule over the leaves.
    front: RoundFront,
    leaves: Leaves,
}

/// Per-ingest bookkeeping: enough to reclaim one client's slot mid-round.
#[derive(Debug, Clone, Copy)]
struct RoundEntry {
    client: Option<ClientId>,
    key: lifl_types::ObjectKey,
    wire_bytes: u64,
    leaf: usize,
}

/// A session's leaves as the front's lanes, with the gateway that stores
/// into them and the current round's record of what it stored.
#[derive(Debug)]
struct Leaves {
    capacity: usize,
    count: usize,
    level_offset: usize,
    /// This session's first leaf in the enclosing cluster-spanning tree.
    first_leaf: usize,
    gateway: Gateway,
    ingress_wire_bytes: u64,
    /// Every object key the current round has put into the store (client
    /// payloads at ingest, intermediates per level): recycled when the round
    /// ends so a long-lived session does not grow the store round over round.
    round_keys: Vec<lifl_types::ObjectKey>,
    /// Per-ingest bookkeeping for the current round: what mid-round churn
    /// needs to reclaim a departed client's slot.
    round_entries: Vec<RoundEntry>,
}

impl Lanes for Leaves {
    const NAME: &'static str = "session";

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn cursor_lane(&self, cursor: u64) -> usize {
        (cursor as usize) % self.count
    }

    fn admit(
        &mut self,
        leaf: usize,
        _priority: bool,
        _client: ClientId,
        arrival: Arrival,
        feedback: &ErrorFeedback,
    ) -> Result<()> {
        let target = crate::aggregator::position_id(self.level_offset, self.first_leaf + leaf);
        let (queued, wire_bytes) = match arrival {
            Arrival::Update(update) => {
                let wire_bytes = update.wire_bytes();
                // A dense update's buffer moves into shared memory (no
                // copy); an encoded one's body returns to the scratch pool
                // once stored.
                let queued = self
                    .gateway
                    .ingest_recycling(target, update, |encoded| feedback.recycle(encoded))?;
                (queued, wire_bytes)
            }
            Arrival::Prepared(offer) => {
                let len = offer.payload.len() as u64;
                let wire_bytes = if offer.encoded {
                    len.saturating_sub(WIRE_HEADER_BYTES)
                } else {
                    len
                };
                let queued = self.gateway.ingest_prepared(
                    target,
                    offer.client,
                    offer.payload,
                    offer.weight,
                    offer.encoded,
                )?;
                (queued, wire_bytes)
            }
        };
        self.ingress_wire_bytes += wire_bytes;
        self.round_keys.push(queued.key);
        self.round_entries.push(RoundEntry {
            client: queued.producer,
            key: queued.key,
            wire_bytes,
            leaf,
        });
        Ok(())
    }
}

impl Session {
    /// The aggregator identity at local position (`level`, `index`) of this
    /// session's tree, mapped into the enclosing cluster-spanning tree via
    /// the configured [`SessionBuilder::tree_position`] (identity for
    /// standalone sessions; the packing is shared with
    /// [`AggregatorRuntime::for_level`]).
    fn aggregator_id(&self, level: usize, index: usize) -> lifl_types::AggregatorId {
        crate::aggregator::position_id(
            level + self.level_offset,
            self.branch * self.topology.width(level) + index,
        )
    }

    /// The tree this session aggregates over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The wire codec in use.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// The fold policy every aggregator in the tree combines updates with.
    pub fn fold_policy(&self) -> FoldPolicy {
        self.policy
    }

    /// The shared-memory store backing the session.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The scratch-buffer pool the session's codecs recycle through.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Updates ingested into the current (not yet driven) round.
    pub fn pending_updates(&self) -> u64 {
        self.front.pending()
    }

    /// The single polymorphic ingress: accepts an update in whatever
    /// representation it arrived and routes it to the next leaf aggregator
    /// round-robin (update *k* of a round feeds leaf `k % leaves`, exactly
    /// the distribution of the seed two-level runtime).
    ///
    /// Under a lossy codec, a [`Update::Dense`] ingest is transparently
    /// encoded with the producing client's error-feedback residual before it
    /// enters shared memory; [`Update::Encoded`] and [`Update::RemoteBytes`]
    /// are stored in their arriving form (one-time payload processing). A
    /// dense or encoded update missing a client id is attributed to its
    /// session-lifetime arrival index (the same rule on every codec path).
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload, on a codec
    /// dimension mismatch, or if the round already holds a full tree's worth
    /// of updates. A failed ingest counts nothing toward the round; note
    /// that if the store rejects a lossy-encoded dense update, the client's
    /// error-feedback residual already reflects the attempted encoding (the
    /// standard feedback construction re-absorbs the loss only if the
    /// client keeps sending).
    pub fn ingest(&mut self, update: Update) -> Result<()> {
        self.front.ingest(&mut self.leaves, update)
    }

    /// Ingests a batch of updates in order (see [`Session::ingest`]).
    ///
    /// # Errors
    /// Same conditions as [`Session::ingest`]; updates before the failing one
    /// stay ingested.
    pub fn ingest_all(&mut self, updates: impl IntoIterator<Item = Update>) -> Result<()> {
        self.front.ingest_all(&mut self.leaves, updates)
    }

    /// The streaming ingress: offers one update and answers with typed
    /// backpressure. While the round has room the update is admitted exactly
    /// as [`Session::ingest`] would; once the round is full the update is
    /// parked in a bounded per-leaf queue (`Queued{depth}`) or, when the
    /// queue's slot/byte budget is exhausted, turned away
    /// (`Rejected{retry_after}`). Queued clients win admission into the next
    /// round in Oort-utility order (see
    /// [`Session::record_client_utility`]). Without an
    /// [`SessionBuilder::admission`] configuration there is no backlog and
    /// overflow is rejected with a zero retry hint.
    ///
    /// # Errors
    /// Fails only on store/codec errors; a full round is an outcome, not an
    /// error.
    pub fn try_ingest(&mut self, update: Update) -> Result<AdmissionOutcome> {
        self.front.try_ingest(&mut self.leaves, update)
    }

    /// Ingests a payload that is already in wire form, preserving its client
    /// attribution (a cluster's drain path). Routing follows the same slot
    /// rule as [`Session::ingest`].
    pub(crate) fn ingest_prepared(&mut self, offer: QueuedOffer) -> Result<()> {
        self.front.ingest_prepared(&mut self.leaves, offer)
    }

    /// Mid-round churn: removes a departed client's update from the current
    /// round (reclaiming its slot and store object) and drops any offers it
    /// has parked in the admission queues. The vacated leaf is refilled from
    /// the backlog when possible — the replacement lands on the departed
    /// client's leaf *behind* the survivors, so every survivor keeps its
    /// position and the surviving fold stays bit-exact. Returns `true` if
    /// anything (slot or queued offer) was reclaimed.
    pub fn depart_client(&mut self, client: ClientId) -> bool {
        let mut departed = self.front.remove_client(client);
        while let Some(pos) = self
            .leaves
            .round_entries
            .iter()
            .position(|e| e.client == Some(client))
        {
            let entry = self.leaves.round_entries.remove(pos);
            let removed = self
                .leaf_inboxes
                .get(entry.leaf)
                .and_then(|inbox| inbox.remove_first(|q| q.key == entry.key));
            if removed.is_none() {
                continue;
            }
            let _ = self.store.recycle(&entry.key);
            if let Some(kpos) = self.leaves.round_keys.iter().position(|k| *k == entry.key) {
                self.leaves.round_keys.remove(kpos);
            }
            self.leaves.ingress_wire_bytes = self
                .leaves
                .ingress_wire_bytes
                .saturating_sub(entry.wire_bytes);
            self.front.reclaim(entry.leaf, 1);
            departed = true;
        }
        // Refill vacated slots from the backlog (highest utility first).
        self.front.drain_backlog(&mut self.leaves);
        departed
    }

    /// Records a client's Oort utility score for admission priority (no-op
    /// without an admission configuration).
    pub fn record_client_utility(&mut self, client: ClientId, utility: f64) {
        self.front.record_client_utility(client, utility);
    }

    /// The producing clients of the current round's updates, in arrival
    /// order (`None` for anonymous remote forwards).
    pub fn round_clients(&self) -> Vec<Option<ClientId>> {
        self.leaves.round_entries.iter().map(|e| e.client).collect()
    }

    /// The admission configuration, when the streaming path is enabled.
    pub fn admission_config(&self) -> Option<&AdmissionConfig> {
        self.front.admission_config()
    }

    /// Occupancy of every per-leaf admission queue (empty without an
    /// admission configuration).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.front.queue_depths()
    }

    /// Total updates parked in the admission queues.
    pub fn queued_updates(&self) -> usize {
        self.front.queued_updates()
    }

    /// Lifetime admission counters (zero-default without an admission
    /// configuration).
    pub fn admission_stats(&self) -> crate::admission::AdmissionStats {
        self.front.admission_stats()
    }

    /// Drives the configured tree to completion over the ingested updates and
    /// returns the aggregated global model with the round's accounting.
    ///
    /// Every aggregator of a level runs on its own thread; intermediates are
    /// handed to the next level in child-index order (not completion order),
    /// so results are bit-identical run-to-run regardless of thread
    /// scheduling — and, for `Identity`, bit-identical to the seed two-level
    /// path.
    ///
    /// # Errors
    /// Fails if the ingested updates do not exactly fill the tree
    /// ([`Topology::validate`] — the round is kept and can be topped up) or
    /// on any store/codec/aggregation error — in which case the partially
    /// folded round cannot be resumed, so its remaining updates are
    /// discarded and the session is reset to an empty round.
    pub fn drive(&mut self) -> Result<SessionReport> {
        let capacity = self.topology.total_updates();
        self.front.validate_close(&self.topology, capacity)?;
        let outcome = self.drive_and_decode();
        let report = outcome.map(|(model, weight)| SessionReport {
            update: ModelUpdate::intermediate(model, weight),
            store_stats: self.store.stats(),
            ingress_wire_bytes: self.leaves.ingress_wire_bytes,
            updates_ingested: self.front.pending(),
            topology: self.topology.clone(),
        });
        // Success or aggregation failure, the round is over: free its store
        // objects and counters so the session stays bounded over its life.
        self.reset_round();
        // The next round opens immediately: queued clients win admission in
        // utility order.
        self.front.drain_backlog(&mut self.leaves);
        report
    }

    /// Drives the configured tree to completion like [`Session::drive`], but
    /// exports the merged update as codec-tagged wire bytes instead of
    /// decoding it — the transmit half of a cluster hop. No intermediate
    /// [`DenseModel`] is materialised: the returned [`Update::RemoteBytes`]
    /// shares the store's top-intermediate buffer (the store's objects are
    /// immutable, so the handle stays valid after the round's objects are
    /// recycled), and the parent gateway ingests it with header-only
    /// parsing.
    ///
    /// # Errors
    /// Same conditions as [`Session::drive`].
    pub fn drive_to_wire(&mut self) -> Result<WireExport> {
        let capacity = self.topology.total_updates();
        self.front.validate_close(&self.topology, capacity)?;
        let outcome = self
            .drive_below_top()
            .and_then(|mut top| top.run_to_completion())
            .and_then(|result| {
                self.leaves.round_keys.push(result.key);
                let object = self.store.get(&result.key)?;
                Ok(WireExport {
                    update: Update::remote_bytes(object.bytes(), result.weight, result.encoded),
                    store_stats: self.store.stats(),
                    ingress_wire_bytes: self.leaves.ingress_wire_bytes,
                    updates_ingested: self.front.pending(),
                })
            });
        self.reset_round();
        self.front.drain_backlog(&mut self.leaves);
        outcome
    }

    /// Runs the tree to completion and returns the top's aggregate as dense
    /// parameters. Under a lossless codec the top hands its finalized buffer
    /// over by move (no store round-trip, no copy); under a lossy one it
    /// publishes its re-encoded intermediate, which is decoded here exactly
    /// as a parent session would decode it.
    fn drive_and_decode(&mut self) -> Result<(DenseModel, u64)> {
        let mut top = self.drive_below_top()?;
        if self.codec.is_lossless() {
            let result = top.run_to_model()?;
            return Ok((result.model, result.samples));
        }
        let result = top.run_to_completion()?;
        self.leaves.round_keys.push(result.key);
        let object = self.store.get(&result.key)?;
        // The one remaining full-decode site: parse the header in place and
        // dequantize straight into the output buffer (no body copy).
        let view = EncodedView::parse_wire(object.as_slice(), result.encoded)?;
        let mut out = vec![0.0f32; view.dim()];
        view.decode_into(&mut out)?;
        Ok((DenseModel::from_vec(out), result.weight))
    }

    /// Runs every level below the top and returns the top aggregator, its
    /// inbox holding the children's intermediates in child order.
    ///
    /// A full round runs every position; a partial (quorum) round skips
    /// positions whose inboxes are empty — each station aggregates exactly
    /// what arrived, and parents fold only the children that produced
    /// output, in child order. On a full round the two paths are
    /// identical position for position, so exact-fill results stay
    /// bit-exact.
    fn drive_below_top(&mut self) -> Result<AggregatorRuntime> {
        let levels = self.topology.levels();
        let full = self.front.pending() as usize == self.topology.total_updates();
        let mut stations: Vec<(usize, InPlaceQueue)> = self
            .leaf_inboxes
            .iter()
            .cloned()
            .enumerate()
            .filter(|(_, inbox)| full || !inbox.is_empty())
            .collect();
        for level in 0..levels.saturating_sub(1) {
            // Record every successful sibling's intermediate key before
            // surfacing a failure, so a failed level's survivors are still
            // recycled by reset_round instead of leaking in the store.
            let mut first_error = None;
            let results = self.run_level(level, &stations, full);
            let mut outputs = Vec::with_capacity(stations.len());
            for ((index, _), result) in stations.iter().zip(results) {
                match result {
                    Ok(output) => {
                        self.leaves.round_keys.push(output.key);
                        outputs.push((*index, output));
                    }
                    Err(error) if first_error.is_none() => first_error = Some(error),
                    Err(_) => {}
                }
            }
            if let Some(error) = first_error {
                return Err(error);
            }
            // Group this level's outputs onto the next level's inboxes in
            // child order: parent j consumes children j·f .. (j+1)·f (the
            // children that exist, in a partial round).
            let fan_in = self.topology.fan_in(level + 1);
            let mut next: Vec<(usize, InPlaceQueue)> = Vec::new();
            for (pos, output) in &outputs {
                let parent = pos / fan_in;
                if next.last().map(|(p, _)| *p) != Some(parent) {
                    next.push((parent, InPlaceQueue::new()));
                }
                if let Some((_, inbox)) = next.last() {
                    inbox.enqueue(*output);
                }
            }
            stations = next;
        }
        let (index, inbox) = stations
            .pop()
            .ok_or_else(|| LiflError::Simulation("top level produced no output".to_string()))?;
        self.station(levels.saturating_sub(1), index, inbox, full)
    }

    /// Discards the current (not yet driven) round: every ingested update is
    /// dropped, its store objects are recycled and the counters are zeroed,
    /// leaving the session ready for a fresh round. Per-client
    /// error-feedback residuals are kept — the discarded round's loss is
    /// re-absorbed if the clients keep sending, exactly as after a failed
    /// [`Session::drive`]. Used by a cluster coordinator to abort sibling
    /// nodes' rounds when one node's drive fails.
    pub fn discard_round(&mut self) {
        self.reset_round();
    }

    /// Returns the session to an empty round: drains whatever a failed (or
    /// finished) round left in the leaf inboxes, recycles every store object
    /// the round created (only this round's keys — an injected shared store's
    /// other objects are untouched) and zeroes the counters.
    fn reset_round(&mut self) {
        for inbox in &self.leaf_inboxes {
            while inbox.dequeue().is_some() {}
        }
        for key in self.leaves.round_keys.drain(..) {
            let _ = self.store.recycle(&key);
        }
        self.front.reset_round();
        self.leaves.ingress_wire_bytes = 0;
        self.leaves.round_entries.clear();
    }

    /// Runs every listed station (position, inbox) of one level on its own
    /// thread, returning each position's outcome in station order (no
    /// short-circuiting: the caller needs every survivor's key even when a
    /// sibling fails).
    fn run_level(
        &self,
        level: usize,
        stations: &[(usize, InPlaceQueue)],
        full: bool,
    ) -> Vec<Result<QueuedUpdate>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = stations
                .iter()
                .map(|(index, inbox)| {
                    let runtime = self.station(level, *index, inbox.clone(), full);
                    scope.spawn(move || runtime?.run_to_completion())
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|_| {
                        Err(LiflError::Simulation(
                            "aggregator thread panicked".to_string(),
                        ))
                    })
                })
                .collect()
        })
    }

    /// The aggregator serving position (`level`, `index`) over `inbox`. A
    /// full round uses the topology's fan-in as the goal; a partial round
    /// aggregates exactly what the inbox holds. Under a lossless codec every
    /// station folds into an accumulator drawn from the session's pool and
    /// stores its result through an owner that returns the buffer there.
    fn station(
        &self,
        level: usize,
        index: usize,
        inbox: InPlaceQueue,
        full: bool,
    ) -> Result<AggregatorRuntime> {
        // Deterministic, position-unique codec stream (the same (level,
        // index) packing as the aggregator identity, mapped into the
        // enclosing cluster tree): leaves of a standalone session draw from
        // seed = index, exactly the streams of the pre-redesign codec path.
        let seed = self.aggregator_id(level, index).index();
        let codec = UpdateCodec::with_seed(self.codec, seed).with_pool(self.pool.clone());
        let store = self.store.clone();
        let mut aggregator = if full {
            AggregatorRuntime::for_level(&self.topology, level, index, store, inbox, codec)?
        } else {
            let role = if level + 1 == self.topology.levels() {
                lifl_types::AggregatorRole::Top
            } else if level == 0 {
                lifl_types::AggregatorRole::Leaf
            } else {
                lifl_types::AggregatorRole::Middle
            };
            let goal = inbox.len() as u64;
            AggregatorRuntime::with_codec(
                crate::aggregator::position_id(level, index),
                role,
                goal,
                store,
                inbox,
                codec,
            )?
        };
        aggregator.set_shards(self.shards);
        aggregator.set_policy(self.policy)?;
        Ok(aggregator)
    }
}

/// A session is an [`Ingest`](lifl_fl::Ingest) backend: the single-node
/// target the multi-round training driver
/// ([`crate::training::TrainingDriver`]) runs over — the reference a
/// federated [`crate::cluster::Cluster`] must (and does) match bit-for-bit.
impl lifl_fl::Ingest for Session {
    fn ingest_update(&mut self, update: Update) -> Result<()> {
        self.ingest(update)
    }

    fn try_ingest(&mut self, update: Update) -> Result<lifl_types::AdmissionOutcome> {
        Session::try_ingest(self, update)
    }

    fn round_capacity(&self) -> usize {
        self.topology.total_updates()
    }

    fn ingress_codec(&self) -> CodecKind {
        self.codec
    }

    fn aggregate_round(&mut self) -> Result<lifl_fl::RoundAggregate> {
        let report = self.drive()?;
        Ok(lifl_fl::RoundAggregate {
            update: report.update,
            ingress_wire_bytes: report.ingress_wire_bytes,
            updates_ingested: report.updates_ingested,
        })
    }

    fn discard_round(&mut self) {
        Session::discard_round(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifl_fl::aggregate::fedavg;
    use lifl_types::SimDuration;

    fn updates(n: usize, dim: usize) -> Vec<ModelUpdate> {
        (0..n)
            .map(|i| {
                let values: Vec<f32> = (0..dim)
                    .map(|d| ((i * dim + d) % 89) as f32 * 0.05 - 2.0)
                    .collect();
                ModelUpdate::from_client(
                    ClientId::new(i as u64),
                    DenseModel::from_vec(values),
                    (i + 1) as u64,
                )
            })
            .collect()
    }

    fn drive(topology: Topology, codec: CodecKind, updates: &[ModelUpdate]) -> SessionReport {
        let mut session = SessionBuilder::new()
            .topology(topology)
            .codec(codec)
            .build()
            .unwrap();
        session
            .ingest_all(updates.iter().cloned().map(Update::Dense))
            .unwrap();
        session.drive().unwrap()
    }

    #[test]
    fn two_level_identity_matches_flat_fedavg() {
        let updates = updates(8, 16);
        let report = drive(Topology::two_level(4, 2), CodecKind::Identity, &updates);
        let flat = fedavg(&updates).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert_eq!(report.store_stats.encoded_puts, 0);
        assert_eq!(report.updates_ingested, 8);
        assert_eq!(report.ingress_wire_bytes, 8 * 16 * 4);
    }

    #[test]
    fn three_level_tree_matches_flat_fedavg() {
        // 2 updates per leaf, 4 leaves feeding 2 middles, 1 top: 8 updates.
        let updates = updates(8, 16);
        let topology = Topology::new(vec![2, 2, 2]).unwrap();
        let report = drive(topology.clone(), CodecKind::Identity, &updates);
        assert_eq!(report.topology, topology);
        let flat = fedavg(&updates).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn flat_topology_runs_one_aggregator() {
        let updates = updates(3, 8);
        let report = drive(Topology::flat(3), CodecKind::Identity, &updates);
        let flat = fedavg(&updates).unwrap();
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "flat session is the flat fold");
        }
    }

    #[test]
    fn wrong_update_count_is_rejected_and_over_ingest_refused() {
        let mut session = SessionBuilder::new().two_level(2, 2).build().unwrap();
        session
            .ingest_all(updates(3, 4).into_iter().map(Update::Dense))
            .unwrap();
        let err = session.drive().unwrap_err().to_string();
        assert!(
            err.contains("expected 4 updates (2 leaves x 2), got 3"),
            "{err}"
        );
        // The round survives the failed drive; topping it up works.
        session
            .ingest(Update::Dense(updates(4, 4).pop().unwrap()))
            .unwrap();
        assert!(session.drive().is_ok());
        // A full round refuses a fifth ingest.
        session
            .ingest_all(updates(4, 4).into_iter().map(Update::Dense))
            .unwrap();
        assert!(session
            .ingest(Update::Dense(updates(1, 4).pop().unwrap()))
            .is_err());
    }

    #[test]
    fn encoded_and_remote_ingests_share_the_round() {
        let dim = 64;
        let batch = updates(4, dim);
        // Two dense, one pre-encoded, one forwarded as remote wire bytes.
        let mut client_codec = UpdateCodec::with_seed(CodecKind::Uniform8, 7);
        let encoded = client_codec.encode(&batch[2].model);
        let remote_wire = client_codec.encode(&batch[3].model).to_bytes();

        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .codec(CodecKind::Uniform8)
            .build()
            .unwrap();
        session.ingest(Update::Dense(batch[0].clone())).unwrap();
        session.ingest(Update::Dense(batch[1].clone())).unwrap();
        session
            .ingest(Update::encoded(ClientId::new(2), encoded, batch[2].samples))
            .unwrap();
        session
            .ingest(Update::remote_bytes(remote_wire, batch[3].samples, true))
            .unwrap();
        let report = session.drive().unwrap();

        let flat = fedavg(&batch).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        let max_abs = batch
            .iter()
            .flat_map(|u| u.model.as_slice())
            .fold(0.0f32, |a, v| a.max(v.abs()));
        let tolerance = 3.0 * max_abs / 127.0;
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() <= tolerance, "{a} vs {b}");
        }
        assert!(report.store_stats.encoded_puts > 0);
    }

    #[test]
    fn sessions_are_reusable_across_rounds() {
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .codec(CodecKind::Uniform4)
            .build()
            .unwrap();
        let batch = updates(4, 32);
        for _ in 0..3 {
            session
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
            let report = session.drive().unwrap();
            assert_eq!(report.updates_ingested, 4);
            assert_eq!(session.pending_updates(), 0);
        }
        // Long-lived sessions stay bounded: every round's store objects are
        // recycled when the round ends.
        assert_eq!(
            session.store().stats().live_objects,
            0,
            "rounds must not leak store objects"
        );
        // Error feedback accumulated residuals for the lossy codec.
        assert_eq!(session.codec(), CodecKind::Uniform4);
        assert!(session.store().stats().encoded_puts > 0);
        assert!(session.pool().stats().hits > 0, "codec scratch was pooled");
    }

    #[test]
    fn failed_round_is_discarded_and_the_session_recovers() {
        let mut session = SessionBuilder::new().two_level(2, 2).build().unwrap();
        let batch = updates(4, 16);
        // Three valid updates plus raw remote bytes of the wrong dimension:
        // the fold fails mid-drive.
        for update in batch.iter().take(3) {
            session.ingest(Update::Dense(update.clone())).unwrap();
        }
        session
            .ingest(Update::remote_bytes(vec![0u8; 8], 1, false))
            .unwrap();
        assert!(session.drive().is_err(), "mismatched dimension must fail");
        // The corrupt round is gone: counters are zero, nothing leaked in
        // the store (surviving siblings' intermediates included), and a
        // fresh, fully valid round drives cleanly.
        assert_eq!(session.pending_updates(), 0);
        assert_eq!(
            session.store().stats().live_objects,
            0,
            "failed rounds must not leak store objects"
        );
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = session.drive().unwrap();
        assert_eq!(report.updates_ingested, 4);
        // A malformed *encoded* ingest is rejected up front and counts
        // nothing toward the round or its wire accounting.
        assert!(session
            .ingest(Update::remote_bytes(vec![1u8, 2, 3], 1, true))
            .is_err());
        assert_eq!(session.pending_updates(), 0);
    }

    #[test]
    fn invalid_topk_is_rejected_at_build() {
        assert!(SessionBuilder::new()
            .codec(CodecKind::TopK { permille: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn invalid_fold_policy_is_rejected_at_build() {
        assert!(SessionBuilder::new()
            .fold_policy(FoldPolicy::TrimmedMean { trim_permille: 500 })
            .build()
            .is_err());
    }

    #[test]
    fn robust_session_bounds_an_adversarially_scaled_client() {
        // 3 leaves × 3 updates; one client scales its update by 1e6.
        let mut batch = updates(9, 8);
        for v in batch[4].model.as_mut_slice() {
            *v *= 1e6;
        }
        let honest: Vec<ModelUpdate> = batch
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 4)
            .map(|(_, u)| u.clone())
            .collect();
        let honest_mean = fedavg(&honest).unwrap();
        let bound = honest
            .iter()
            .flat_map(|u| u.model.as_slice())
            .fold(0.0f32, |a, v| a.max(v.abs()));

        let drive_with = |policy: FoldPolicy| {
            let mut session = SessionBuilder::new()
                .two_level(3, 3)
                .fold_policy(policy)
                .build()
                .unwrap();
            assert_eq!(session.fold_policy(), policy);
            session
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
            session.drive().unwrap()
        };
        // FedAvg is dragged far outside the honest envelope...
        let fedavg_report = drive_with(FoldPolicy::FedAvg);
        assert!(fedavg_report
            .update
            .model
            .as_slice()
            .iter()
            .any(|v| v.abs() > 100.0 * bound));
        // ...the median stays inside it, close to the honest mean.
        let median_report = drive_with(FoldPolicy::Median);
        for (v, h) in median_report
            .update
            .model
            .as_slice()
            .iter()
            .zip(honest_mean.model.as_slice())
        {
            assert!(v.abs() <= bound, "median escaped the honest envelope: {v}");
            assert!((v - h).abs() <= 2.0 * bound, "{v} vs honest mean {h}");
        }
    }

    #[test]
    fn try_ingest_queues_overflow_and_drains_next_round() {
        let batch = updates(6, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..4] {
            assert!(session
                .try_ingest(Update::Dense(u.clone()))
                .unwrap()
                .is_admitted());
        }
        // The round is full: the next two offers park in the per-leaf queues.
        assert_eq!(
            session.try_ingest(Update::Dense(batch[4].clone())).unwrap(),
            AdmissionOutcome::Queued { depth: 1 }
        );
        assert_eq!(
            session.try_ingest(Update::Dense(batch[5].clone())).unwrap(),
            AdmissionOutcome::Queued { depth: 1 }
        );
        assert_eq!(session.queued_updates(), 2);
        assert_eq!(session.queue_depths(), vec![1, 1]);
        session.drive().unwrap();
        // Driving opened the next round and drained the backlog into it.
        assert_eq!(session.pending_updates(), 2);
        assert_eq!(session.queued_updates(), 0);
        let stats = session.admission_stats();
        assert_eq!(stats.queued, 2);
        assert_eq!(stats.drained, 2);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn pooled_accumulators_stay_bounded_by_the_station_count() {
        let batch = updates(8, 64);
        let stations = 4 + 2 + 1;
        let mut session = SessionBuilder::new()
            .topology(Topology::new(vec![2, 2, 2]).unwrap())
            .build()
            .unwrap();
        let ingest = |session: &mut Session| {
            session
                .ingest_all(batch.iter().cloned().map(Update::Dense))
                .unwrap();
        };
        for _ in 0..3 {
            ingest(&mut session);
            session.drive().unwrap();
        }
        // Every station but the top returned its buffer; the top's left
        // with the report. Client buffers were never pooled.
        let stats = session.pool().stats();
        assert_eq!(stats.idle_buffers, stations - 1, "{stats:?}");
        assert!(stats.peak_idle_buffers <= stations, "{stats:?}");
        // An exported top buffer returns once the last hop handle drops.
        ingest(&mut session);
        let export = session.drive_to_wire().unwrap();
        assert_eq!(session.store().stats().live_objects, 0);
        assert_eq!(session.pool().stats().idle_buffers, stations - 1);
        drop(export);
        assert_eq!(session.pool().stats().idle_buffers, stations);
        ingest(&mut session);
        session.drive().unwrap();
        let stats = session.pool().stats();
        assert_eq!(stats.idle_buffers, stations - 1, "{stats:?}");
        assert!(stats.peak_idle_buffers <= stations, "{stats:?}");
    }

    #[test]
    fn a_failing_backlog_offer_is_dropped_and_the_drain_continues() {
        let batch = updates(7, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..5] {
            session.try_ingest(Update::Dense(u.clone())).unwrap();
        }
        // Queue-time validation refuses malformed payloads, so park one
        // straight in the queues to model an offer that fails at drain time.
        session
            .front
            .queues_mut()
            .unwrap()
            .offer(None, &[1, 2, 3], 1, true);
        for u in &batch[5..] {
            session.try_ingest(Update::Dense(u.clone())).unwrap();
        }
        assert_eq!(session.queued_updates(), 4);
        session.drive().unwrap();
        // The bad offer was dropped; every valid one behind it drained.
        assert_eq!(session.queued_updates(), 0);
        assert_eq!(
            session.round_clients(),
            vec![
                Some(ClientId::new(4)),
                Some(ClientId::new(5)),
                Some(ClientId::new(6))
            ]
        );
        let stats = session.admission_stats();
        assert_eq!((stats.queued, stats.drained, stats.dropped), (4, 3, 1));
    }

    #[test]
    fn a_full_store_stops_the_drain_and_keeps_the_backlog_queued() {
        let batch = updates(7, 64);
        let store = ObjectStore::with_capacity(1 << 16);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .store(store.clone())
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        // The round holds four small client-encoded updates; three dense
        // offers, each larger than an encoded one, park behind them.
        let mut client_codec = UpdateCodec::with_seed(CodecKind::Uniform8, 3);
        for u in &batch[..4] {
            let encoded = client_codec.encode(&u.model);
            session
                .ingest(Update::encoded(u.client.unwrap(), encoded, u.samples))
                .unwrap();
        }
        for u in &batch[4..] {
            session.try_ingest(Update::Dense(u.clone())).unwrap();
        }
        assert_eq!(session.queued_updates(), 3);
        // Fill the store: a departure then frees less than a dense offer
        // needs, so its refill fails on capacity.
        let stats = store.stats();
        let filler = store
            .put(vec![
                0u8;
                (stats.capacity_bytes - stats.allocated_bytes) as usize
            ])
            .unwrap();
        assert!(session.depart_client(ClientId::new(0)));
        // That one offer is dropped; the two behind it stay queued instead
        // of failing the same way.
        assert_eq!(session.queued_updates(), 2);
        let stats = session.admission_stats();
        assert_eq!((stats.queued, stats.drained, stats.dropped), (3, 0, 1));
        // With room again, the next drain fills the round from them.
        store.recycle(&filler).unwrap();
        assert!(session.depart_client(ClientId::new(1)));
        assert_eq!(session.queued_updates(), 0);
        assert_eq!(
            session.round_clients(),
            vec![
                Some(ClientId::new(2)),
                Some(ClientId::new(3)),
                Some(ClientId::new(5)),
                Some(ClientId::new(6))
            ]
        );
        let stats = session.admission_stats();
        assert_eq!((stats.queued, stats.drained, stats.dropped), (3, 2, 1));
    }

    #[test]
    fn admission_rejects_past_queue_budget_with_retry_hint() {
        let batch = updates(7, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(
                AdmissionConfig::bounded(1, 1 << 20)
                    .with_retry_after(SimDuration::from_millis(250.0)),
            )
            .build()
            .unwrap();
        for u in &batch[..4] {
            session.ingest(Update::Dense(u.clone())).unwrap();
        }
        // Two offers fit the slot budget; the third is turned away.
        assert!(session
            .try_ingest(Update::Dense(batch[4].clone()))
            .unwrap()
            .is_queued());
        assert!(session
            .try_ingest(Update::Dense(batch[5].clone()))
            .unwrap()
            .is_queued());
        assert_eq!(
            session.try_ingest(Update::Dense(batch[6].clone())).unwrap(),
            AdmissionOutcome::Rejected {
                retry_after: SimDuration::from_millis(250.0)
            }
        );
        // The legacy strict ingress reports budget exhaustion as an error.
        let err = session
            .ingest(Update::Dense(batch[6].clone()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("admission queue budget is exhausted"), "{err}");
        assert_eq!(session.admission_stats().rejected, 2);
    }

    #[test]
    fn queued_clients_drain_in_utility_order() {
        let batch = updates(8, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        for u in &batch[..4] {
            session.ingest(Update::Dense(u.clone())).unwrap();
        }
        // Clients 4..8 park; 6 is hot, 5 is cold, 4 and 7 are unexplored.
        for u in &batch[4..8] {
            assert!(session
                .try_ingest(Update::Dense(u.clone()))
                .unwrap()
                .is_queued());
        }
        session.record_client_utility(ClientId::new(6), 3.0);
        session.record_client_utility(ClientId::new(5), 0.1);
        session.drive().unwrap();
        // Highest utility first, unexplored (1.0) next in arrival order,
        // lowest last — all four fit the fresh round.
        let drained: Vec<Option<ClientId>> = session.round_clients().to_vec();
        assert_eq!(
            drained,
            vec![
                Some(ClientId::new(6)),
                Some(ClientId::new(4)),
                Some(ClientId::new(7)),
                Some(ClientId::new(5)),
            ]
        );
    }

    #[test]
    fn quorum_round_closes_partial_and_matches_flat_fedavg() {
        let batch = updates(3, 16);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20).with_quorum(3))
            .build()
            .unwrap();
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let report = session.drive().unwrap();
        assert_eq!(report.updates_ingested, 3);
        let flat = fedavg(&batch).unwrap();
        assert_eq!(report.update.samples, flat.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(flat.model.as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn quorum_below_minimum_still_refuses_to_close() {
        let batch = updates(2, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20).with_quorum(3))
            .build()
            .unwrap();
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        let err = session.drive().unwrap_err().to_string();
        assert!(err.contains("quorum not met"), "{err}");
        // Topping up to the quorum closes the round.
        session
            .ingest(Update::Dense(updates(3, 8).pop().unwrap()))
            .unwrap();
        assert!(session.drive().is_ok());
    }

    #[test]
    fn departed_client_refills_from_backlog_without_perturbing_survivors() {
        let batch = updates(4, 16);
        let replacement =
            ModelUpdate::from_client(ClientId::new(9), DenseModel::from_vec(vec![0.25; 16]), 5);

        let mut churned = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20))
            .build()
            .unwrap();
        churned
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        assert!(churned
            .try_ingest(Update::Dense(replacement.clone()))
            .unwrap()
            .is_queued());
        // Client 1 (leaf 1) departs mid-round; its slot refills from the
        // backlog without disturbing the surviving assignments.
        assert!(churned.depart_client(ClientId::new(1)));
        assert_eq!(churned.pending_updates(), 4);
        assert_eq!(churned.queued_updates(), 0);
        let report = churned.drive().unwrap();

        // Reference: a plain session whose arrival order lands the same
        // updates on the same leaves, the replacement last on leaf 1.
        let mut reference = SessionBuilder::new().two_level(2, 2).build().unwrap();
        reference
            .ingest_all(
                [
                    batch[0].clone(),
                    batch[3].clone(),
                    batch[2].clone(),
                    replacement,
                ]
                .into_iter()
                .map(Update::Dense),
            )
            .unwrap();
        let expected = reference.drive().unwrap();
        assert_eq!(report.update.samples, expected.update.samples);
        for (a, b) in report
            .update
            .model
            .as_slice()
            .iter()
            .zip(expected.update.model.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "survivor fold diverged");
        }
    }

    #[test]
    fn departing_the_last_quorum_member_reopens_the_round() {
        let batch = updates(3, 8);
        let mut session = SessionBuilder::new()
            .two_level(2, 2)
            .admission(AdmissionConfig::bounded(8, 1 << 20).with_quorum(3))
            .build()
            .unwrap();
        session
            .ingest_all(batch.iter().cloned().map(Update::Dense))
            .unwrap();
        assert!(session.depart_client(ClientId::new(2)));
        assert_eq!(session.pending_updates(), 2);
        assert!(session.drive().unwrap_err().to_string().contains("quorum"));
        // A departure that never happened reclaims nothing.
        assert!(!session.depart_client(ClientId::new(77)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lifl_fl::aggregate::CumulativeFedAvg;
    use proptest::prelude::*;

    /// The seed two-level fold semantics, restated from first principles:
    /// update k feeds leaf k % leaves; each leaf folds its share in arrival
    /// order and finalizes; the top folds leaf intermediates in leaf order.
    fn seed_reference(leaves: usize, per_leaf: usize, updates: &[ModelUpdate]) -> ModelUpdate {
        let dim = updates[0].model.dim();
        let mut top = CumulativeFedAvg::new(dim);
        for leaf in 0..leaves {
            let mut acc = CumulativeFedAvg::new(dim);
            for update in updates
                .iter()
                .enumerate()
                .filter(|(k, _)| k % leaves == leaf)
                .map(|(_, u)| u)
            {
                acc.fold(update).unwrap();
            }
            assert_eq!(acc.updates_folded(), per_leaf as u64);
            top.fold(&acc.finalize().unwrap()).unwrap();
        }
        top.finalize().unwrap()
    }

    proptest! {
        /// Acceptance: a `Session` with `Identity` is bit-exact with the seed
        /// two-level fold semantics for arbitrary two-level shapes.
        #[test]
        fn identity_session_bit_exact_with_seed_semantics(
            leaves in 1usize..6,
            per_leaf in 1usize..5,
            dim in 1usize..24,
            values in proptest::collection::vec(-50.0f32..50.0, 30 * 24),
            samples in proptest::collection::vec(1u64..40, 30),
        ) {
            let n = leaves * per_leaf;
            let updates: Vec<ModelUpdate> = (0..n)
                .map(|i| {
                    let params: Vec<f32> =
                        (0..dim).map(|d| values[(i * dim + d) % values.len()]).collect();
                    ModelUpdate::from_client(
                        ClientId::new(i as u64),
                        DenseModel::from_vec(params),
                        samples[i % samples.len()],
                    )
                })
                .collect();
            let mut session = SessionBuilder::new()
                .two_level(leaves, per_leaf)
                .build()
                .unwrap();
            session
                .ingest_all(updates.iter().cloned().map(Update::Dense))
                .unwrap();
            let report = session.drive().unwrap();
            let reference = seed_reference(leaves, per_leaf, &updates);
            prop_assert_eq!(report.update.samples, reference.samples);
            for (a, b) in report
                .update
                .model
                .as_slice()
                .iter()
                .zip(reference.model.as_slice())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "session diverged: {} vs {}", a, b);
            }
        }

        /// Deep trees are deterministic run-to-run for every codec: two
        /// sessions over the same ingests produce bit-identical models.
        #[test]
        fn deep_sessions_are_deterministic(
            fan0 in 1usize..4,
            fan1 in 1usize..4,
            fan2 in 1usize..4,
            seed in 0u64..500,
        ) {
            let topology = Topology::new(vec![fan0, fan1, fan2]).unwrap();
            let n = topology.total_updates();
            let updates: Vec<ModelUpdate> = (0..n)
                .map(|i| {
                    let params: Vec<f32> = (0..16)
                        .map(|d| ((i * 31 + d * 7 + seed as usize) % 101) as f32 * 0.07 - 3.0)
                        .collect();
                    ModelUpdate::from_client(
                        ClientId::new(i as u64),
                        DenseModel::from_vec(params),
                        (i + 1) as u64,
                    )
                })
                .collect();
            for codec in [CodecKind::Uniform8, CodecKind::TopK { permille: 400 }] {
                let run = || {
                    let mut session = SessionBuilder::new()
                        .topology(topology.clone())
                        .codec(codec)
                        .seed(seed)
                        .build()
                        .unwrap();
                    session
                        .ingest_all(updates.iter().cloned().map(Update::Dense))
                        .unwrap();
                    session.drive().unwrap()
                };
                let first = run();
                let second = run();
                prop_assert_eq!(first.update.samples, second.update.samples);
                for (a, b) in first
                    .update
                    .model
                    .as_slice()
                    .iter()
                    .zip(second.update.model.as_slice())
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} not deterministic", codec);
                }
            }
        }
    }
}
