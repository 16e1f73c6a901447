//! The per-node gateway (§4.2, Appendix C): the only stateful data-plane
//! component in LIFL. It ingests model updates from remote clients or peer
//! gateways, performs the one-time payload processing, writes the payload into
//! the local shared-memory store and enqueues the object key to the consuming
//! aggregator's in-place queue. On the transmit side it reads a local object
//! and ships it to a remote node's gateway.

use lifl_fl::codec::{EncodedUpdate, EncodedView};
use lifl_fl::kernels::DenseBytes;
use lifl_fl::update::Update;
use lifl_shmem::queue::QueuedUpdate;
use lifl_shmem::{InPlaceQueue, ObjectStore};
use lifl_types::{AggregatorId, ClientId, NodeId, Result};
use std::collections::BTreeMap;

/// The per-node gateway.
#[derive(Debug)]
pub struct Gateway {
    node: NodeId,
    store: ObjectStore,
    inboxes: BTreeMap<AggregatorId, InPlaceQueue>,
    ingested_updates: u64,
    ingested_bytes: u64,
    forwarded_bytes: u64,
}

impl Gateway {
    /// Creates a gateway over the node's shared-memory store.
    pub fn new(node: NodeId, store: ObjectStore) -> Self {
        Gateway {
            node,
            store,
            inboxes: BTreeMap::new(),
            ingested_updates: 0,
            ingested_bytes: 0,
            forwarded_bytes: 0,
        }
    }

    /// The node this gateway serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers (or returns) the in-place queue feeding `aggregator`.
    pub fn register_aggregator(&mut self, aggregator: AggregatorId) -> InPlaceQueue {
        self.inboxes.entry(aggregator).or_default().clone()
    }

    /// The single polymorphic ingress: accepts a model update in whatever
    /// representation it arrived ([`Update`]) and performs the matching
    /// one-time payload processing before the object key is queued for
    /// `target`:
    ///
    /// * a dense update's parameter buffer *moves* into shared memory (see
    ///   [`Gateway::ingest_dense`]) — no copy;
    /// * an encoded update is written as its self-describing wire string;
    /// * remote wire bytes are stored as-is after validation: encoded bytes
    ///   have their descriptor parsed in place, dense bytes must hold whole
    ///   `f32`s (a dimension mismatch surfaces at fold time).
    ///
    /// The representation-specific methods below remain as typed shortcuts;
    /// this entry point is what representation-agnostic callers use
    /// (`Session::ingest` through its recycling form). A dense or encoded
    /// update with no client id is attributed to its arrival index.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload or remote
    /// wire bytes are malformed.
    pub fn ingest(&mut self, target: AggregatorId, update: Update) -> Result<QueuedUpdate> {
        self.ingest_recycling(target, update, drop)
    }

    /// [`Gateway::ingest`], handing an encoded update back to `recycle` once
    /// its wire string is stored (or failed to store), so a session can
    /// return the encode body to its scratch pool.
    pub(crate) fn ingest_recycling(
        &mut self,
        target: AggregatorId,
        update: Update,
        recycle: impl FnOnce(EncodedUpdate),
    ) -> Result<QueuedUpdate> {
        let fallback = ClientId::new(self.ingested_updates);
        match update {
            Update::Dense(dense) => {
                let client = dense.client.unwrap_or(fallback);
                self.ingest_dense(client, target, dense.model.into_vec(), dense.samples)
            }
            Update::Encoded {
                client,
                update,
                samples,
            } => {
                let client = client.unwrap_or(fallback);
                let outcome = self.ingest_encoded_update(client, target, &update, samples);
                recycle(update);
                outcome
            }
            Update::RemoteBytes {
                wire,
                weight,
                encoded,
            } => {
                if encoded {
                    self.ingest_remote_encoded(target, wire, weight)
                } else {
                    // Headerless dense little-endian `f32` bytes, stored
                    // as-is (byte-identical to `put_f32` of the decoded
                    // values, with no intermediate decode).
                    EncodedView::parse_dense(&wire)?;
                    let wire_len = wire.len() as u64;
                    let key = self.store.put(wire)?;
                    let queued = QueuedUpdate::intermediate(key, weight);
                    self.deliver(target, queued);
                    self.ingested_updates += 1;
                    self.ingested_bytes += wire_len;
                    Ok(queued)
                }
            }
        }
    }

    /// Ingests an owned dense client update by move: `values` becomes the
    /// owner of the stored object through the little-endian byte view
    /// [`DenseBytes`], so the parameters reach shared memory without being
    /// copied (on little-endian targets) and the stored bytes equal what
    /// [`ObjectStore::put_f32`] would write. The buffer is freed when the
    /// round recycles the object.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload.
    pub fn ingest_dense(
        &mut self,
        client: ClientId,
        target: AggregatorId,
        values: Vec<f32>,
        samples: u64,
    ) -> Result<QueuedUpdate> {
        let payload_bytes = (values.len() * 4) as u64;
        let key = self
            .store
            .put(bytes::Bytes::from_owner(DenseBytes::new(values)))?;
        let mut queued = QueuedUpdate::from_client(client, key);
        queued.weight = samples;
        self.deliver(target, queued);
        self.ingested_updates += 1;
        self.ingested_bytes += payload_bytes;
        Ok(queued)
    }

    /// Ingests a raw client update: writes the payload into shared memory and
    /// enqueues the key for `target` (in-place message queuing, §4.2). The
    /// borrowed payload is copied once; [`Gateway::ingest_dense`] moves an
    /// owned one instead.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload.
    pub fn ingest_client_update(
        &mut self,
        client: ClientId,
        target: AggregatorId,
        payload: &[f32],
        samples: u64,
    ) -> Result<QueuedUpdate> {
        self.ingest_dense(client, target, payload.to_vec(), samples)
    }

    /// Ingests a codec-encoded client update: the compressed self-describing
    /// form is written to shared memory as-is (one-time payload processing,
    /// no re-expansion) and the key is queued for `target` with the encoded
    /// marker set.
    ///
    /// [`Gateway::ingested_bytes`] counts what lands in shared memory — the
    /// stored form, 16-byte descriptor included. Data-plane *wire*
    /// accounting (payload only, [`EncodedUpdate::wire_bytes`]) is tracked by
    /// the callers that price transfers.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload.
    pub fn ingest_encoded_update(
        &mut self,
        client: ClientId,
        target: AggregatorId,
        encoded: &EncodedUpdate,
        samples: u64,
    ) -> Result<QueuedUpdate> {
        let wire = encoded.to_bytes();
        let wire_len = wire.len() as u64;
        let key = self.store.put_encoded(wire, encoded.dense_bytes())?;
        let mut queued = QueuedUpdate::from_client(client, key).encoded();
        queued.weight = samples;
        self.deliver(target, queued);
        self.ingested_updates += 1;
        self.ingested_bytes += wire_len;
        Ok(queued)
    }

    /// Ingests a codec-encoded intermediate arriving from a remote gateway.
    /// The arriving buffer is stored as-is: pass shared `Bytes` (as a
    /// cluster hop does) and zero model-sized copies are made.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload.
    pub fn ingest_remote_encoded(
        &mut self,
        target: AggregatorId,
        wire: impl Into<bytes::Bytes>,
        weight: u64,
    ) -> Result<QueuedUpdate> {
        let wire = wire.into();
        // Only the 16-byte descriptor needs parsing here; the payload is
        // validated in place (no body copy) and stored as-is.
        let dense_bytes = EncodedView::parse(&wire)?.dim() as u64 * 4;
        let wire_len = wire.len() as u64;
        let key = self.store.put_encoded(wire, dense_bytes)?;
        let queued = QueuedUpdate::intermediate(key, weight).encoded();
        self.deliver(target, queued);
        self.ingested_updates += 1;
        self.ingested_bytes += wire_len;
        Ok(queued)
    }

    /// Ingests an intermediate update arriving from a remote node's gateway.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload.
    pub fn ingest_remote_update(
        &mut self,
        target: AggregatorId,
        payload: &[f32],
        weight: u64,
    ) -> Result<QueuedUpdate> {
        let key = self.store.put_f32(payload)?;
        let queued = QueuedUpdate::intermediate(key, weight);
        self.deliver(target, queued);
        self.ingested_updates += 1;
        self.ingested_bytes += (payload.len() * 4) as u64;
        Ok(queued)
    }

    /// Admission-drain ingress: stores a payload that is already in wire
    /// form (headerless dense `f32` bytes, or a self-describing encoded
    /// string) and delivers it attributed to `producer`. The polymorphic
    /// [`Gateway::ingest`] loses client attribution for remote bytes; a
    /// drained backlog offer must keep its producer so mid-round churn can
    /// find and reclaim the client's slot.
    ///
    /// # Errors
    /// Fails if the shared-memory store cannot hold the payload, an encoded
    /// payload is malformed or a dense one does not hold whole `f32`s.
    pub fn ingest_prepared(
        &mut self,
        target: AggregatorId,
        producer: Option<ClientId>,
        wire: Vec<u8>,
        weight: u64,
        encoded: bool,
    ) -> Result<QueuedUpdate> {
        let wire_len = wire.len() as u64;
        let key = if encoded {
            let dense_bytes = EncodedView::parse(&wire)?.dim() as u64 * 4;
            self.store.put_encoded(wire, dense_bytes)?
        } else {
            EncodedView::parse_dense(&wire)?;
            self.store.put(wire)?
        };
        let mut queued = QueuedUpdate {
            producer,
            key,
            weight,
            encoded: false,
        };
        if encoded {
            queued = queued.encoded();
        }
        self.deliver(target, queued);
        self.ingested_updates += 1;
        self.ingested_bytes += wire_len;
        Ok(queued)
    }

    /// Delivers an already-stored update key to a local aggregator's queue
    /// (the SKMSG redirect path).
    pub fn deliver(&mut self, target: AggregatorId, queued: QueuedUpdate) {
        self.inboxes.entry(target).or_default().enqueue(queued);
    }

    /// Transmit path: reads a local object and returns the payload to ship to
    /// a remote gateway (which will call [`Gateway::ingest_remote_update`]).
    ///
    /// # Errors
    /// Fails if the object key is unknown.
    pub fn forward_remote(&mut self, update: &QueuedUpdate) -> Result<Vec<f32>> {
        let object = self.store.get(&update.key)?;
        self.forwarded_bytes += object.len() as u64;
        Ok(object.as_f32_vec())
    }

    /// Transmit path for codec-encoded updates: ships the raw wire bytes (the
    /// compressed representation crosses the network, never the dense form).
    /// The returned handle shares the store's buffer — no copy is made.
    ///
    /// # Errors
    /// Fails if the object key is unknown.
    pub fn forward_remote_bytes(&mut self, update: &QueuedUpdate) -> Result<bytes::Bytes> {
        let object = self.store.get(&update.key)?;
        self.forwarded_bytes += object.len() as u64;
        Ok(object.bytes())
    }

    /// Number of updates ingested.
    pub fn ingested_updates(&self) -> u64 {
        self.ingested_updates
    }

    /// Bytes written into shared memory by this gateway (stored form: for
    /// encoded updates this includes the 16-byte codec descriptor, which is
    /// metadata rather than data-plane payload).
    pub fn ingested_bytes(&self) -> u64 {
        self.ingested_bytes
    }

    /// Bytes shipped to remote gateways.
    pub fn forwarded_bytes(&self) -> u64 {
        self.forwarded_bytes
    }

    /// The shared-memory store backing this gateway.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_lands_key_in_target_queue() {
        let store = ObjectStore::new();
        let mut gw = Gateway::new(NodeId::new(0), store.clone());
        let agg = AggregatorId::new(1);
        let inbox = gw.register_aggregator(agg);
        gw.ingest_client_update(ClientId::new(7), agg, &[1.0, 2.0], 5)
            .unwrap();
        assert_eq!(inbox.len(), 1);
        let queued = inbox.dequeue().unwrap();
        assert_eq!(queued.weight, 5);
        assert_eq!(store.get(&queued.key).unwrap().as_f32_vec(), vec![1.0, 2.0]);
        assert_eq!(gw.ingested_updates(), 1);
        assert_eq!(gw.ingested_bytes(), 8);
    }

    #[test]
    fn forward_reads_payload_for_remote_shipping() {
        let store = ObjectStore::new();
        let mut gw_a = Gateway::new(NodeId::new(0), store.clone());
        let mut gw_b = Gateway::new(NodeId::new(1), ObjectStore::new());
        let agg_local = AggregatorId::new(1);
        let agg_remote = AggregatorId::new(2);
        gw_a.register_aggregator(agg_local);
        let remote_inbox = gw_b.register_aggregator(agg_remote);

        let queued = gw_a
            .ingest_client_update(ClientId::new(1), agg_local, &[3.0, 4.0], 2)
            .unwrap();
        let payload = gw_a.forward_remote(&queued).unwrap();
        gw_b.ingest_remote_update(agg_remote, &payload, queued.weight)
            .unwrap();
        assert_eq!(remote_inbox.len(), 1);
        assert_eq!(gw_a.forwarded_bytes(), 8);
        assert!(gw_b.store().stats().live_objects > 0);
        assert_eq!(gw_a.node(), NodeId::new(0));
    }

    #[test]
    fn encoded_ingest_keeps_payload_compressed_end_to_end() {
        use lifl_fl::codec::UpdateCodec;
        use lifl_fl::DenseModel;
        use lifl_types::CodecKind;

        let store_a = ObjectStore::new();
        let mut gw_a = Gateway::new(NodeId::new(0), store_a.clone());
        let mut gw_b = Gateway::new(NodeId::new(1), ObjectStore::new());
        let agg_a = AggregatorId::new(1);
        let agg_b = AggregatorId::new(2);
        gw_a.register_aggregator(agg_a);
        let inbox_b = gw_b.register_aggregator(agg_b);

        let model = DenseModel::from_vec((0..64).map(|i| i as f32 * 0.1).collect());
        let mut codec = UpdateCodec::new(CodecKind::Uniform8);
        let encoded = codec.encode(&model);
        let queued = gw_a
            .ingest_encoded_update(ClientId::new(3), agg_a, &encoded, 5)
            .unwrap();
        assert!(queued.encoded);
        assert_eq!(gw_a.ingested_bytes(), encoded.stored_bytes());
        assert!(store_a.stats().bytes_saved() > 0);

        // Cross-node: the compressed bytes travel, the remote store stays compressed.
        let wire = gw_a.forward_remote_bytes(&queued).unwrap();
        assert_eq!(wire.len() as u64, encoded.stored_bytes());
        let remote = gw_b.ingest_remote_encoded(agg_b, wire.clone(), 5).unwrap();
        assert!(remote.encoded);
        assert_eq!(inbox_b.len(), 1);
        assert!(gw_b.store().stats().encoded_puts > 0);
    }

    #[test]
    fn polymorphic_ingest_covers_every_representation() {
        use lifl_fl::codec::UpdateCodec;
        use lifl_fl::{DenseModel, ModelUpdate, Update};
        use lifl_types::CodecKind;

        let store = ObjectStore::new();
        let mut gw = Gateway::new(NodeId::new(0), store.clone());
        let agg = AggregatorId::new(1);
        let inbox = gw.register_aggregator(agg);

        let model = DenseModel::from_vec((0..32).map(|i| i as f32 * 0.5).collect());
        // Dense without a client id: attributed to the arrival index.
        let dense = gw
            .ingest(
                agg,
                Update::Dense(ModelUpdate::intermediate(model.clone(), 3)),
            )
            .unwrap();
        assert_eq!(dense.producer, Some(ClientId::new(0)));
        assert_eq!(dense.weight, 3);
        assert!(!dense.encoded);

        let mut codec = UpdateCodec::new(CodecKind::Uniform8);
        let encoded = codec.encode(&model);
        let wire = encoded.to_bytes();
        let queued = gw
            .ingest(agg, Update::encoded(ClientId::new(9), encoded, 4))
            .unwrap();
        assert!(queued.encoded);

        let remote = gw.ingest(agg, Update::remote_bytes(wire, 7, true)).unwrap();
        assert!(remote.encoded);
        assert_eq!(remote.weight, 7);

        // Remote dense bytes land byte-identical to put_f32.
        let raw: Vec<u8> = model
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let dense_remote = gw.ingest(agg, Update::remote_bytes(raw, 2, false)).unwrap();
        assert!(!dense_remote.encoded);
        assert_eq!(
            store.get(&dense_remote.key).unwrap().as_f32_vec(),
            model.as_slice()
        );

        assert_eq!(inbox.len(), 4);
        assert_eq!(gw.ingested_updates(), 4);
        assert!(gw
            .ingest(agg, Update::remote_bytes(vec![1u8, 2], 1, true))
            .is_err());
    }

    #[test]
    fn moved_dense_update_stores_the_put_f32_bytes_without_copying() {
        use lifl_fl::{DenseModel, ModelUpdate, Update};
        use lifl_shmem::SharedObject;

        let store = ObjectStore::new();
        let mut gw = Gateway::new(NodeId::new(0), store.clone());
        let agg = AggregatorId::new(1);
        gw.register_aggregator(agg);
        let values: Vec<f32> = (0..1000)
            .map(|i| (i as f32 * 0.37).sin() * 3.0)
            .chain([f32::NAN, -0.0, f32::INFINITY, f32::MIN_POSITIVE / 2.0])
            .collect();
        let want = SharedObject::encode_f32(&values);
        let ptr = values.as_ptr().cast::<u8>();
        let update = Update::dense(ClientId::new(4), DenseModel::from_vec(values), 6);
        let queued = gw.ingest(agg, update).unwrap();
        let object = store.get(&queued.key).unwrap();
        assert_eq!(object.as_slice(), want.as_slice());
        assert_eq!(queued.producer, Some(ClientId::new(4)));
        assert_eq!(queued.weight, 6);
        assert_eq!(gw.ingested_bytes(), want.len() as u64);
        if cfg!(target_endian = "little") {
            assert_eq!(
                object.as_slice().as_ptr(),
                ptr,
                "the buffer moved, not copied"
            );
        }
        // The borrowed shortcut stores the same bytes.
        let copied = gw
            .ingest(
                agg,
                Update::Dense(ModelUpdate::intermediate(
                    DenseModel::from_vec(object.as_f32_vec()),
                    1,
                )),
            )
            .unwrap();
        assert_eq!(store.get(&copied.key).unwrap().as_slice(), want.as_slice());
    }

    #[test]
    fn dense_wire_payloads_must_hold_whole_f32s() {
        use lifl_fl::Update;

        let store = ObjectStore::new();
        let mut gw = Gateway::new(NodeId::new(0), store.clone());
        let agg = AggregatorId::new(1);
        let inbox = gw.register_aggregator(agg);
        for len in [1usize, 2, 3, 7] {
            let ragged = vec![0u8; len];
            let err = gw
                .ingest(agg, Update::remote_bytes(ragged.clone(), 1, false))
                .unwrap_err();
            assert!(matches!(err, lifl_types::LiflError::Codec(_)), "{err:?}");
            let err = gw
                .ingest_prepared(agg, Some(ClientId::new(1)), ragged, 1, false)
                .unwrap_err();
            assert!(matches!(err, lifl_types::LiflError::Codec(_)), "{err:?}");
        }
        // Nothing malformed reached the store or the queue.
        assert_eq!(store.stats().total_puts, 0);
        assert!(inbox.is_empty());
        assert_eq!(gw.ingested_updates(), 0);
        gw.ingest_prepared(agg, None, vec![0u8; 8], 1, false)
            .unwrap();
        assert_eq!(inbox.len(), 1);
    }

    #[test]
    fn forward_unknown_key_fails() {
        let mut gw = Gateway::new(NodeId::new(0), ObjectStore::new());
        let bogus = QueuedUpdate::intermediate(lifl_types::ObjectKey::from_words(1, 2), 1);
        assert!(gw.forward_remote(&bogus).is_err());
    }
}
