//! Model-update codecs: quantized / sparsified wire representations.
//!
//! LIFL's headline win is cutting the per-update *hand-off* cost; this module
//! attacks the remaining term, the payload bytes themselves, in the spirit of
//! implicitly/quantization-enhanced RL representations (iQRL, QeRL —
//! PAPERS.md). Three lossy representations are provided next to the lossless
//! [`CodecKind::Identity`]:
//!
//! * **Uniform8 / Uniform4** — stochastic uniform quantization with one `f32`
//!   scale per tensor. Stochastic rounding makes the quantizer *unbiased*
//!   (`E[decode(encode(x))] = x`), so cumulative FedAvg over many clients and
//!   rounds is not systematically dragged; the worst-case per-element error is
//!   one quantization step (`scale`), half a step in expectation.
//! * **TopK** — magnitude sparsification; only the largest-magnitude
//!   coordinates travel as `(index, value)` pairs.
//!
//! [`ErrorFeedback`] keeps a per-client residual (the part of each update the
//! codec dropped) and folds it into the client's next transmission, the
//! standard error-feedback construction that keeps long-run FedAvg convergent
//! even under aggressive compression.
//!
//! The wire form [`EncodedUpdate`] is a self-describing byte string (16-byte
//! header + payload) so it can be stored zero-copy in the `lifl-shmem` object
//! store and re-parsed by any aggregator without side-channel metadata. Its
//! size always equals [`CodecKind::encoded_bytes`] applied to the dense size,
//! keeping the simulator's cost accounting and the in-process runtime's real
//! byte counters consistent.
//!
//! The per-codec encode, decode and fused decode-fold inner loops all live in
//! [`crate::kernels`], which dispatches between an AVX2 arm and a bit-exact
//! scalar reference at runtime; this module owns the wire format, scale
//! derivation and buffer management around those kernels. There is exactly
//! one decode routine per codec — [`EncodedUpdate::decode_into`] and
//! [`EncodedView::decode_into`] both resolve to it.

use crate::kernels;
use crate::kernels::StochasticRng;
use crate::model::DenseModel;
use crate::update::Update;
use lifl_shmem::BufferPool;
use lifl_types::{ClientId, CodecKind, LiflError, Result, WIRE_HEADER_BYTES};
use std::collections::BTreeMap;

/// Codec tags used in byte 0 of the wire header.
const TAG_IDENTITY: u8 = 0;
const TAG_UNIFORM8: u8 = 1;
const TAG_UNIFORM4: u8 = 2;
const TAG_TOPK: u8 = 3;

/// Quantization levels on each side of zero for the uniform codecs.
const U8_LEVELS: f32 = 127.0;
const U4_LEVELS: f32 = 7.0;

/// A model update in its on-wire representation: a self-describing header
/// followed by the codec-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedUpdate {
    codec: CodecKind,
    dim: u32,
    scale: f32,
    kept: u32,
    body: Vec<u8>,
}

impl EncodedUpdate {
    /// The codec that produced this update.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Number of parameters of the dense model this encodes.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The per-tensor quantization scale (0 for `Identity` and `TopK`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Payload bytes this update puts on the data plane. The 16-byte
    /// descriptor header travels the SKMSG control channel alongside the
    /// object key and weight, so it is excluded here — this always equals
    /// [`CodecKind::encoded_bytes`] of the dense size.
    pub fn wire_bytes(&self) -> u64 {
        self.body.len() as u64
    }

    /// Bytes the self-describing form occupies in shared memory (descriptor
    /// header + payload). The headerless dense representation of the
    /// pre-codec path is produced by `ObjectStore::put_f32`, not by this
    /// type, so every `EncodedUpdate` — `Identity` included — carries the
    /// header and round-trips through [`EncodedUpdate::from_bytes`].
    pub fn stored_bytes(&self) -> u64 {
        WIRE_HEADER_BYTES + self.body.len() as u64
    }

    /// Bytes of the dense `f32` representation of the same model.
    pub fn dense_bytes(&self) -> u64 {
        u64::from(self.dim) * 4
    }

    /// Serializes header + payload into one byte string for shared memory or
    /// the wire; [`EncodedUpdate::from_bytes`] is its exact inverse for every
    /// codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WIRE_HEADER_BYTES as usize + self.body.len());
        let (tag, permille) = match self.codec {
            CodecKind::Identity => (TAG_IDENTITY, 0u16),
            CodecKind::Uniform8 => (TAG_UNIFORM8, 0),
            CodecKind::Uniform4 => (TAG_UNIFORM4, 0),
            CodecKind::TopK { permille } => (TAG_TOPK, permille),
        };
        out.push(tag);
        out.push(0);
        out.extend_from_slice(&permille.to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&self.scale.to_le_bytes());
        out.extend_from_slice(&self.kept.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a wire byte string produced by [`EncodedUpdate::to_bytes`] into
    /// an owned update (the body is copied). The zero-copy alternative is
    /// [`EncodedView::parse`], which borrows the payload in place.
    ///
    /// # Errors
    /// Returns [`LiflError::Codec`] on a truncated or malformed buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(EncodedView::parse(bytes)?.to_update())
    }

    /// A zero-copy view over this update's payload, for in-place decode and
    /// fused decode-fold.
    pub fn view(&self) -> EncodedView<'_> {
        EncodedView {
            codec: self.codec,
            dim: self.dim,
            scale: self.scale,
            kept: self.kept,
            body: &self.body,
        }
    }

    /// Reconstructs the dense model this update encodes.
    pub fn decode(&self) -> DenseModel {
        self.view().decode()
    }

    /// Dequantizes this update into `out` without allocating; `out` becomes
    /// exactly what [`EncodedUpdate::decode`] would return.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if `out.len() != self.dim()`.
    pub fn decode_into(&self, out: &mut [f32]) -> Result<()> {
        self.view().decode_into(out)
    }

    /// Consumes the update and returns its body buffer so it can be checked
    /// back into a [`BufferPool`] (see [`UpdateCodec::recycle`]).
    pub fn into_body(self) -> Vec<u8> {
        self.body
    }
}

/// A borrowed, zero-copy view of an encoded update: the parsed 16-byte
/// descriptor plus a reference to the payload bytes, typically straight out of
/// the shared-memory object store. All decode and fused decode-fold kernels
/// operate on views so interior aggregators never materialise an intermediate
/// `DenseModel` (or even copy the payload) on the Recv+Agg critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedView<'a> {
    codec: CodecKind,
    dim: u32,
    scale: f32,
    kept: u32,
    body: &'a [u8],
}

impl<'a> EncodedView<'a> {
    /// Parses the self-describing wire form without copying the payload.
    ///
    /// # Errors
    /// Returns [`LiflError::Codec`] on a truncated or malformed buffer.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let header = bytes
            .get(..WIRE_HEADER_BYTES as usize)
            .ok_or_else(|| LiflError::Codec("wire buffer shorter than header".to_string()))?;
        let permille = u16::from_le_bytes([header[2], header[3]]);
        let dim = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let scale = f32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let kept = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let codec = match header[0] {
            TAG_IDENTITY => CodecKind::Identity,
            TAG_UNIFORM8 => CodecKind::Uniform8,
            TAG_UNIFORM4 => CodecKind::Uniform4,
            TAG_TOPK => CodecKind::TopK { permille },
            other => return Err(LiflError::Codec(format!("unknown codec tag {other}"))),
        };
        let body = &bytes[WIRE_HEADER_BYTES as usize..];
        let expected = match codec {
            CodecKind::Identity => dim as usize * 4,
            CodecKind::Uniform8 => dim as usize,
            CodecKind::Uniform4 => (dim as usize).div_ceil(2),
            CodecKind::TopK { .. } => kept as usize * 8,
        };
        if body.len() != expected {
            return Err(LiflError::Codec(format!(
                "payload length {} does not match header (codec {codec}, dim {dim}, kept {kept})",
                body.len()
            )));
        }
        Ok(EncodedView {
            codec,
            dim,
            scale,
            kept,
            body,
        })
    }

    /// Validates wire bytes in either form an update travels in: the
    /// self-describing encoded string when `encoded` (see
    /// [`EncodedView::parse`]), headerless dense `f32` bytes otherwise (see
    /// [`EncodedView::parse_dense`]).
    ///
    /// # Errors
    /// Returns [`LiflError::Codec`] on a malformed payload.
    pub fn parse_wire(bytes: &'a [u8], encoded: bool) -> Result<Self> {
        if encoded {
            Self::parse(bytes)
        } else {
            Self::parse_dense(bytes)
        }
    }

    /// Validates a headerless dense little-endian `f32` payload arriving
    /// from outside the process and wraps it like
    /// [`EncodedView::identity_over`]: the check every dense wire ingress
    /// runs before storing the bytes.
    ///
    /// # Errors
    /// Returns [`LiflError::Codec`] when the length is not a whole number of
    /// `f32`s (or exceeds the `u32` dimension range).
    pub fn parse_dense(payload: &'a [u8]) -> Result<Self> {
        if !payload.len().is_multiple_of(4) || payload.len() / 4 > u32::MAX as usize {
            return Err(LiflError::Codec(format!(
                "dense payload length {} is not a whole number of f32 values",
                payload.len()
            )));
        }
        Ok(Self::identity_over(payload))
    }

    /// Wraps a headerless dense little-endian `f32` payload (the pre-codec
    /// `ObjectStore::put_f32` representation) as an `Identity` view, so dense
    /// and encoded payloads share one fused fold path. Trailing bytes short
    /// of a whole `f32` are ignored; payloads from outside the process go
    /// through [`EncodedView::parse_dense`] first.
    pub fn identity_over(payload: &'a [u8]) -> Self {
        let dim = (payload.len() / 4) as u32;
        EncodedView {
            codec: CodecKind::Identity,
            dim,
            scale: 0.0,
            kept: dim,
            body: &payload[..dim as usize * 4],
        }
    }

    /// The codec that produced this update.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Number of parameters of the dense model this encodes.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The per-tensor quantization scale (0 for `Identity` and `TopK`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Copies the view into an owned [`EncodedUpdate`].
    pub fn to_update(&self) -> EncodedUpdate {
        EncodedUpdate {
            codec: self.codec,
            dim: self.dim,
            scale: self.scale,
            kept: self.kept,
            body: self.body.to_vec(),
        }
    }

    /// Reconstructs the dense model this view encodes (allocating).
    pub fn decode(&self) -> DenseModel {
        let mut out = vec![0.0f32; self.dim as usize];
        self.decode_into(&mut out)
            // lifl-lint: allow(panic) — `out` is sized to `dim` on the
            // previous line, the only failure `decode_into` has.
            .expect("freshly sized buffer matches dim");
        DenseModel::from_vec(out)
    }

    /// Dequantizes into `out` without allocating, bit-exactly reproducing
    /// [`EncodedView::decode`].
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if `out.len() != self.dim()`.
    pub fn decode_into(&self, out: &mut [f32]) -> Result<()> {
        if out.len() != self.dim as usize {
            return Err(LiflError::DimensionMismatch {
                expected: self.dim as usize,
                actual: out.len(),
            });
        }
        match self.codec {
            CodecKind::Identity => kernels::decode_dense_le(out, self.body),
            CodecKind::Uniform8 => kernels::decode_u8(out, self.body, self.scale),
            CodecKind::Uniform4 => kernels::decode_u4(out, self.body, self.scale),
            CodecKind::TopK { .. } => kernels::decode_topk(out, self.body),
        }
        Ok(())
    }

    /// Fused decode-fold: adds `weight * decode(self)` into `acc` in a single
    /// pass over the wire payload, with no intermediate buffer. `TopK` touches
    /// only its nonzero coordinates. For `Identity` this is bit-exact with
    /// decode-then-`axpy`; for the quantized codecs the dequantize and weight
    /// multiplies are fused (`level * (weight * scale)`), which differs from
    /// the two-step path by at most a few ulps — far inside one quantization
    /// step.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if `acc.len() != self.dim()`.
    pub fn fold_into(&self, weight: f32, acc: &mut [f32]) -> Result<()> {
        if acc.len() != self.dim as usize {
            return Err(LiflError::DimensionMismatch {
                expected: self.dim as usize,
                actual: acc.len(),
            });
        }
        self.fold_range_into(weight, 0, acc);
        Ok(())
    }

    /// Fused decode-fold over the element range `[start, start + acc.len())`
    /// of the decoded update: the shard-local kernel behind
    /// `ShardedFedAvg`. The caller guarantees the range lies inside
    /// `0..self.dim()`; out-of-range tails simply fold nothing.
    pub fn fold_range_into(&self, weight: f32, start: usize, acc: &mut [f32]) {
        let dim = self.dim as usize;
        let len = acc.len().min(dim.saturating_sub(start));
        if len == 0 {
            return;
        }
        let acc = &mut acc[..len];
        match self.codec {
            CodecKind::Identity => {
                kernels::fold_dense_le(acc, &self.body[start * 4..(start + len) * 4], weight);
            }
            CodecKind::Uniform8 => {
                kernels::fold_u8(acc, &self.body[start..start + len], weight * self.scale);
            }
            CodecKind::Uniform4 => {
                kernels::fold_u4(acc, self.body, start, weight * self.scale);
            }
            CodecKind::TopK { .. } => {
                kernels::fold_topk(acc, self.body, start, start + len, weight);
            }
        }
    }

    /// Whether this is a `TopK` view whose indices are sorted ascending (the
    /// form [`UpdateCodec::encode`] produces). Sorted `TopK` payloads can be
    /// folded block-by-block with a resumable cursor
    /// ([`EncodedView::fold_topk_window`]) instead of rescanning the whole
    /// body per block.
    pub fn topk_indices_sorted(&self) -> bool {
        if !matches!(self.codec, CodecKind::TopK { .. }) {
            return false;
        }
        let mut previous = 0u32;
        for (i, pair) in self.body.chunks_exact(8).enumerate() {
            let index = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
            if i > 0 && index <= previous {
                return false;
            }
            previous = index;
        }
        true
    }

    /// Cursor-resumed `TopK` window fold for callers that walk blocks in
    /// ascending order over a sorted payload (see
    /// [`EncodedView::topk_indices_sorted`]): `cursor` is a pair offset that
    /// only ever advances, so a whole walk costs `O(kept + blocks)` instead
    /// of `O(kept × blocks)`. Folds exactly the pairs `fold_range_into`
    /// would, in the same order.
    pub fn fold_topk_window(&self, cursor: &mut usize, weight: f32, start: usize, acc: &mut [f32]) {
        let dim = self.dim as usize;
        let len = acc.len().min(dim.saturating_sub(start));
        let end = start + len;
        while let Some(pair) = self.body.get(*cursor * 8..*cursor * 8 + 8) {
            let index = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
            if index >= end {
                break;
            }
            if index >= start {
                let value = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
                acc[index - start] += weight * value;
            }
            *cursor += 1;
        }
    }
}

/// The encoder/decoder for one [`CodecKind`], owning the randomness stream the
/// stochastic rounding draws from (deterministic given the seed) and the
/// scratch-buffer pool its encode bodies are drawn from.
#[derive(Debug, Clone)]
pub struct UpdateCodec {
    kind: CodecKind,
    rng: StochasticRng,
    pool: BufferPool,
}

impl UpdateCodec {
    /// Creates a codec with a fixed default seed (deterministic streams).
    pub fn new(kind: CodecKind) -> Self {
        Self::with_seed(kind, 0xC0DEC)
    }

    /// Creates a codec whose stochastic rounding draws from `seed`.
    pub fn with_seed(kind: CodecKind, seed: u64) -> Self {
        UpdateCodec {
            kind,
            rng: StochasticRng::from_seed(seed),
            pool: BufferPool::new(),
        }
    }

    /// Shares `pool` as the scratch slab the encode bodies are drawn from.
    /// Retire encoded updates with [`UpdateCodec::recycle`] and steady-state
    /// encoding allocates nothing after warm-up.
    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        self.pool = pool;
        self
    }

    /// The scratch-buffer pool this codec draws encode bodies from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Checks a retired update's body buffer back into the pool so the next
    /// [`UpdateCodec::encode`] reuses it instead of allocating.
    pub fn recycle(&self, encoded: EncodedUpdate) {
        self.pool.checkin_bytes(encoded.into_body());
    }

    /// The configured codec kind.
    pub fn kind(&self) -> CodecKind {
        self.kind
    }

    /// Encodes a dense model into its wire representation.
    pub fn encode(&mut self, model: &DenseModel) -> EncodedUpdate {
        self.encode_slice(model.as_slice())
    }

    /// Encodes a raw parameter slice into its wire representation (the
    /// `DenseModel`-free entry point used by pooled scratch buffers). The
    /// body buffer is checked out of the codec's pool.
    pub fn encode_slice(&mut self, params: &[f32]) -> EncodedUpdate {
        let dim = params.len() as u32;
        match self.kind {
            CodecKind::Identity => {
                let mut body = self.pool.checkout_bytes(params.len() * 4);
                for v in params {
                    body.extend_from_slice(&v.to_le_bytes());
                }
                EncodedUpdate {
                    codec: self.kind,
                    dim,
                    scale: 0.0,
                    kept: dim,
                    body,
                }
            }
            CodecKind::Uniform8 => {
                let scale = tensor_scale(params, U8_LEVELS);
                let mut body = self.pool.checkout_bytes(params.len());
                kernels::encode_u8(params, scale, U8_LEVELS, &mut self.rng, &mut body);
                EncodedUpdate {
                    codec: self.kind,
                    dim,
                    scale,
                    kept: dim,
                    body,
                }
            }
            CodecKind::Uniform4 => {
                let scale = tensor_scale(params, U4_LEVELS);
                let mut body = self.pool.checkout_bytes(params.len().div_ceil(2));
                kernels::encode_u4(params, scale, U4_LEVELS, &mut self.rng, &mut body);
                EncodedUpdate {
                    codec: self.kind,
                    dim,
                    scale,
                    kept: dim,
                    body,
                }
            }
            CodecKind::TopK { permille } => {
                let kept = CodecKind::top_k_kept(params.len() as u64, permille) as usize;
                // The index scratch is pooled like the body: steady-state
                // top-k encoding touches the allocator zero times.
                let mut order = self.pool.checkout_u32(params.len());
                order.extend(0..params.len() as u32);
                let by_magnitude_desc = |a: &u32, b: &u32| {
                    params[*b as usize]
                        .abs()
                        .partial_cmp(&params[*a as usize].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(b))
                };
                // Linear-time selection of the top-k set; only the kept
                // prefix needs ordering (and only by index, for the wire).
                if kept < order.len() {
                    order.select_nth_unstable_by(kept, by_magnitude_desc);
                    order.truncate(kept);
                }
                order.sort_unstable();
                let mut body = self.pool.checkout_bytes(order.len() * 8);
                for index in &order {
                    body.extend_from_slice(&index.to_le_bytes());
                    body.extend_from_slice(&params[*index as usize].to_le_bytes());
                }
                let kept = order.len() as u32;
                self.pool.checkin_u32(order);
                EncodedUpdate {
                    codec: self.kind,
                    dim,
                    scale: 0.0,
                    kept,
                    body,
                }
            }
        }
    }

    /// Convenience: encode then immediately decode (what an aggregator sees).
    pub fn roundtrip(&mut self, model: &DenseModel) -> DenseModel {
        self.encode(model).decode()
    }
}

/// Per-tensor scale so the largest magnitude maps to the outermost level.
fn tensor_scale(params: &[f32], levels: f32) -> f32 {
    let max_abs = kernels::max_abs_finite(params);
    if max_abs == 0.0 {
        0.0
    } else {
        max_abs / levels
    }
}

/// Client-side error feedback: each client remembers the residual its codec
/// dropped last round and adds it back before encoding the next update, so the
/// *cumulative* FedAvg signal stays unbiased even under aggressive
/// compression.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    codec: UpdateCodec,
    residuals: BTreeMap<ClientId, DenseModel>,
}

impl ErrorFeedback {
    /// Creates an error-feedback encoder around `codec`.
    pub fn new(codec: UpdateCodec) -> Self {
        ErrorFeedback {
            codec,
            residuals: BTreeMap::new(),
        }
    }

    /// The codec kind in use.
    pub fn kind(&self) -> CodecKind {
        self.codec.kind()
    }

    /// Encodes `model` for `client`, compensating with the client's stored
    /// residual and retaining the new residual for the next round.
    ///
    /// The compensation scratch is drawn from the codec's [`BufferPool`] and
    /// the residual is updated in place via the fused decode-fold kernel, so
    /// steady-state encoding performs no model-sized heap allocation.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if the client's model changes
    /// dimension between rounds.
    pub fn encode(&mut self, client: ClientId, model: &DenseModel) -> Result<EncodedUpdate> {
        let dim = model.dim();
        if let Some(residual) = self.residuals.get(&client) {
            if residual.dim() != dim {
                return Err(LiflError::DimensionMismatch {
                    expected: dim,
                    actual: residual.dim(),
                });
            }
        }
        let pool = self.codec.pool().clone();
        let mut compensated = pool.checkout_f32(dim);
        compensated.copy_from_slice(model.as_slice());
        if let Some(residual) = self.residuals.get(&client) {
            for (c, r) in compensated.iter_mut().zip(residual.as_slice()) {
                *c += r;
            }
        }
        let encoded = self.codec.encode_slice(&compensated);
        if self.codec.kind().is_lossless() {
            self.residuals.remove(&client);
        } else {
            // residual = compensated - decode(encoded), computed in place.
            let residual = self.residuals.entry(client).or_default();
            residual.copy_from_slice(&compensated);
            encoded.view().fold_into(-1.0, residual.as_mut_slice())?;
        }
        pool.checkin_f32(compensated);
        Ok(encoded)
    }

    /// Checks a retired update's body back into the shared scratch pool.
    pub fn recycle(&self, encoded: EncodedUpdate) {
        self.codec.recycle(encoded);
    }

    /// Wraps `model` in the codec-transparent [`Update`] envelope the data
    /// plane carries: `Dense` under a lossless codec (bit-exact, no residual
    /// bookkeeping), `Encoded` otherwise, with this client's error-feedback
    /// compensation applied. If the stored residual no longer matches the
    /// model's dimension (the model changed shape mid-run), every residual is
    /// dropped and the update is re-encoded compensation-free.
    pub fn encode_update(&mut self, client: ClientId, model: DenseModel, samples: u64) -> Update {
        if self.kind().is_lossless() {
            return Update::dense(client, model, samples);
        }
        let encoded = match self.encode(client, &model) {
            Ok(encoded) => encoded,
            Err(_) => {
                self.reset();
                self.encode(client, &model)
                    // lifl-lint: allow(panic) — encode only fails on a
                    // residual-dimension mismatch, and `reset()` above just
                    // cleared every residual.
                    .expect("encode without a residual is infallible")
            }
        };
        Update::encoded(client, encoded, samples)
    }

    /// Returns a retired envelope's encode-body buffer to the shared scratch
    /// pool (a no-op for non-encoded variants).
    pub fn recycle_update(&self, update: Update) {
        if let Update::Encoded { update, .. } = update {
            self.recycle(update);
        }
    }

    /// The residual currently stored for `client`, if any.
    pub fn residual(&self, client: ClientId) -> Option<&DenseModel> {
        self.residuals.get(&client)
    }

    /// Drops every stored residual (e.g. when the model dimension changes).
    pub fn reset(&mut self) {
        self.residuals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(values: &[f32]) -> DenseModel {
        DenseModel::from_vec(values.to_vec())
    }

    #[test]
    fn fold_range_beyond_dim_folds_nothing() {
        let m = model(&[1.0, 2.0, 3.0]);
        for kind in CodecKind::ablation_set() {
            let mut codec = UpdateCodec::new(kind);
            let encoded = codec.encode(&m);
            let mut acc = [5.0f32; 4];
            // Entirely past the dimension: no-op, no panic.
            encoded.view().fold_range_into(2.0, 7, &mut acc);
            assert_eq!(acc, [5.0; 4], "{kind}");
            // Straddling the end folds only the in-range tail.
            encoded.view().fold_range_into(1.0, 2, &mut acc);
            let decoded = encoded.decode();
            assert!(
                (acc[0] - (5.0 + decoded.as_slice()[2])).abs() < 1e-6,
                "{kind}"
            );
            assert_eq!(&acc[1..], [5.0; 3], "{kind}");
        }
    }

    #[test]
    fn identity_roundtrip_is_bit_exact() {
        let m = model(&[1.0, -2.5, 3.75, f32::MIN_POSITIVE]);
        let mut codec = UpdateCodec::new(CodecKind::Identity);
        let encoded = codec.encode(&m);
        // The data plane accounts payload bytes only; the stored form adds
        // the 16-byte descriptor so from_bytes can re-parse it.
        assert_eq!(encoded.wire_bytes(), 16);
        assert_eq!(encoded.to_bytes().len(), 32);
        let parsed = EncodedUpdate::from_bytes(&encoded.to_bytes()).unwrap();
        assert_eq!(parsed, encoded);
        let decoded = encoded.decode();
        for (a, b) in m.as_slice().iter().zip(decoded.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wire_bytes_match_codec_kind_accounting() {
        let dims = [1usize, 2, 7, 64, 1001];
        for kind in CodecKind::ablation_set() {
            let mut codec = UpdateCodec::new(kind);
            for dim in dims {
                let m = DenseModel::from_vec((0..dim).map(|i| i as f32 * 0.3 - 1.0).collect());
                let encoded = codec.encode(&m);
                assert_eq!(
                    encoded.wire_bytes(),
                    kind.encoded_bytes((dim * 4) as u64),
                    "codec {kind} dim {dim}"
                );
                assert_eq!(encoded.to_bytes().len() as u64, encoded.stored_bytes());
            }
        }
    }

    #[test]
    fn from_bytes_roundtrips_every_codec() {
        for kind in [
            CodecKind::Identity,
            CodecKind::Uniform8,
            CodecKind::Uniform4,
            CodecKind::TopK { permille: 300 },
        ] {
            let mut codec = UpdateCodec::new(kind);
            let m = DenseModel::from_vec((0..33).map(|i| (i as f32 - 16.0) * 0.21).collect());
            let encoded = codec.encode(&m);
            let parsed = EncodedUpdate::from_bytes(&encoded.to_bytes()).unwrap();
            assert_eq!(parsed, encoded);
            assert_eq!(parsed.decode(), encoded.decode());
        }
    }

    #[test]
    fn malformed_wire_buffers_are_rejected() {
        assert!(EncodedUpdate::from_bytes(&[1, 2, 3]).is_err());
        let mut codec = UpdateCodec::new(CodecKind::Uniform8);
        let mut bytes = codec.encode(&model(&[1.0, 2.0])).to_bytes();
        bytes[0] = 99; // unknown tag
        assert!(EncodedUpdate::from_bytes(&bytes).is_err());
        bytes[0] = 1;
        bytes.pop(); // truncated payload
        assert!(EncodedUpdate::from_bytes(&bytes).is_err());
    }

    #[test]
    fn dense_payloads_must_hold_whole_f32s() {
        for len in [1usize, 2, 3, 5, 11] {
            let err = EncodedView::parse_dense(&vec![0u8; len]).unwrap_err();
            assert!(matches!(err, LiflError::Codec(_)), "{len}: {err:?}");
        }
        let payload: Vec<u8> = [1.5f32, -2.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let view = EncodedView::parse_dense(&payload).unwrap();
        assert_eq!(view.dim(), 2);
        assert_eq!(view.decode().as_slice(), &[1.5, -2.0]);
        assert_eq!(EncodedView::parse_dense(&[]).unwrap().dim(), 0);
    }

    #[test]
    fn uniform_error_is_bounded_by_one_step() {
        let values: Vec<f32> = (0..257)
            .map(|i| ((i * 37) % 101) as f32 * 0.13 - 6.5)
            .collect();
        let m = DenseModel::from_vec(values);
        for (kind, levels) in [
            (CodecKind::Uniform8, U8_LEVELS),
            (CodecKind::Uniform4, U4_LEVELS),
        ] {
            let mut codec = UpdateCodec::new(kind);
            let encoded = codec.encode(&m);
            let scale = encoded.scale();
            assert!((scale - 6.5 / levels).abs() < 0.2, "scale {scale}");
            for (x, y) in m.as_slice().iter().zip(encoded.decode().as_slice()) {
                assert!(
                    (x - y).abs() <= scale + 1e-6,
                    "{kind}: |{x} - {y}| > step {scale}"
                );
            }
        }
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let m = model(&[0.1, -9.0, 0.2, 7.0, -0.3, 0.05, 4.0, 0.0, 0.0, 0.0]);
        let mut codec = UpdateCodec::new(CodecKind::TopK { permille: 300 });
        let decoded = codec.encode(&m).decode();
        let slice = decoded.as_slice();
        assert_eq!(slice[1], -9.0);
        assert_eq!(slice[3], 7.0);
        assert_eq!(slice[6], 4.0);
        assert_eq!(slice.iter().filter(|v| **v != 0.0).count(), 3);
    }

    #[test]
    fn zero_tensor_encodes_losslessly_everywhere() {
        for kind in CodecKind::ablation_set() {
            let mut codec = UpdateCodec::new(kind);
            let decoded = codec.roundtrip(&DenseModel::zeros(9));
            assert_eq!(decoded.as_slice(), &[0.0f32; 9]);
        }
    }

    #[test]
    fn error_feedback_residual_tracks_dropped_mass() {
        let client = ClientId::new(7);
        let m = model(&[1.0, -0.4, 0.03, 0.8]);
        let mut feedback = ErrorFeedback::new(UpdateCodec::new(CodecKind::Uniform4));
        let encoded = feedback.encode(client, &m).unwrap();
        let residual = feedback.residual(client).unwrap().clone();
        // residual = compensated - decoded, so decoded + residual == input.
        let mut reconstructed = encoded.decode();
        reconstructed.axpy(1.0, &residual).unwrap();
        for (a, b) in m.as_slice().iter().zip(reconstructed.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Identity stores no residual.
        let mut lossless = ErrorFeedback::new(UpdateCodec::new(CodecKind::Identity));
        lossless.encode(client, &m).unwrap();
        assert!(lossless.residual(client).is_none());
        lossless.reset();
    }

    #[test]
    fn error_feedback_time_average_converges_to_input() {
        // A client repeatedly sends the same update through an aggressive
        // codec; with error feedback the *average* decoded signal converges to
        // the true update even though each round is coarsely quantized.
        let client = ClientId::new(1);
        let m = model(&[0.31, -0.27, 0.011, 0.44, -0.09]);
        let mut feedback = ErrorFeedback::new(UpdateCodec::new(CodecKind::Uniform4));
        let rounds = 400;
        let mut sum = DenseModel::zeros(m.dim());
        for _ in 0..rounds {
            let decoded = feedback.encode(client, &m).unwrap().decode();
            sum.axpy(1.0, &decoded).unwrap();
        }
        sum.scale(1.0 / rounds as f32);
        for (a, b) in m.as_slice().iter().zip(sum.as_slice()) {
            assert!((a - b).abs() < 0.02, "time-average {b} far from {a}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::aggregate::{fedavg, ModelUpdate};
    use proptest::prelude::*;

    fn arbitrary_params() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(-8.0f32..8.0, 1..48)
    }

    proptest! {
        /// `decode_into` (and the zero-copy view parse) reproduce `decode`
        /// bit-exactly for every codec, and the wire roundtrip preserves it.
        #[test]
        fn decode_into_is_bit_exact_with_decode(params in arbitrary_params(), seed in 0u64..500) {
            for kind in [
                CodecKind::Identity,
                CodecKind::Uniform8,
                CodecKind::Uniform4,
                CodecKind::TopK { permille: 400 },
            ] {
                let mut codec = UpdateCodec::with_seed(kind, seed);
                let encoded = codec.encode(&DenseModel::from_vec(params.clone()));
                let wire = encoded.to_bytes();
                let view = EncodedView::parse(&wire).unwrap();
                prop_assert_eq!(view.to_update(), encoded.clone());
                let mut out = vec![7.7f32; params.len()];
                encoded.decode_into(&mut out).unwrap();
                for (a, b) in out.iter().zip(encoded.decode().as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: {} vs {}", kind, a, b);
                }
                let mut short = vec![0.0f32; params.len() + 1];
                prop_assert!(encoded.decode_into(&mut short).is_err());
            }
        }

        /// The fused `fold_encoded` equals decode-then-fold bit-exactly for
        /// `Identity` and within one quantization step for `Uniform8/4`
        /// (`TopK` stores raw values, so it is bit-exact too).
        #[test]
        fn fused_fold_matches_decode_then_fold(
            params in arbitrary_params(),
            samples in 1u64..40,
            seed in 0u64..500,
        ) {
            use crate::aggregate::CumulativeFedAvg;
            for kind in [
                CodecKind::Identity,
                CodecKind::Uniform8,
                CodecKind::Uniform4,
                CodecKind::TopK { permille: 400 },
            ] {
                let mut codec = UpdateCodec::with_seed(kind, seed);
                let encoded = codec.encode(&DenseModel::from_vec(params.clone()));
                let mut two_step = CumulativeFedAvg::new(params.len());
                two_step
                    .fold(&ModelUpdate::intermediate(encoded.decode(), samples))
                    .unwrap();
                let mut fused = CumulativeFedAvg::new(params.len());
                fused.fold_encoded(&encoded, samples).unwrap();
                let expected = two_step.finalize().unwrap();
                let got = fused.finalize().unwrap();
                prop_assert_eq!(got.samples, expected.samples);
                let step = encoded.scale();
                for (a, b) in got.model.as_slice().iter().zip(expected.model.as_slice()) {
                    match kind {
                        CodecKind::Identity | CodecKind::TopK { .. } => {
                            prop_assert_eq!(a.to_bits(), b.to_bits(),
                                "{}: fused {} vs two-step {}", kind, a, b);
                        }
                        _ => prop_assert!((a - b).abs() <= step.max(1e-6),
                            "{}: fused {} vs two-step {} beyond one step {}", kind, a, b, step),
                    }
                }
            }
        }

        /// Stochastic uniform quantization never errs by more than one step
        /// per element (and half a step in expectation; the hard bound is what
        /// holds sample-wise).
        #[test]
        fn quantize_dequantize_error_bounded_by_step(params in arbitrary_params(), seed in 0u64..1000) {
            for (kind, levels) in [(CodecKind::Uniform8, 127.0f32), (CodecKind::Uniform4, 7.0f32)] {
                let mut codec = UpdateCodec::with_seed(kind, seed);
                let m = DenseModel::from_vec(params.clone());
                let encoded = codec.encode(&m);
                let step = encoded.scale();
                let max_abs = params.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                prop_assert!((step - max_abs / levels).abs() <= max_abs * 1e-5 + 1e-12);
                for (x, y) in m.as_slice().iter().zip(encoded.decode().as_slice()) {
                    prop_assert!((x - y).abs() <= step * 1.0001 + 1e-6,
                        "{}: |{} - {}| exceeds step {}", kind, x, y, step);
                }
            }
        }

        /// Error-feedback FedAvg over many rounds converges to the
        /// unquantized mean: the running average of the decoded aggregate
        /// approaches the true FedAvg of the client updates.
        #[test]
        fn error_feedback_fedavg_converges_to_unquantized_mean(
            updates in proptest::collection::vec((arbitrary_params(), 1u64..20), 2..5),
            seed in 0u64..200,
        ) {
            let dim = updates[0].0.len();
            let clients: Vec<ModelUpdate> = updates
                .iter()
                .enumerate()
                .map(|(i, (params, samples))| {
                    let mut p = params.clone();
                    p.resize(dim, 0.0);
                    ModelUpdate::from_client(ClientId::new(i as u64), DenseModel::from_vec(p), *samples)
                })
                .collect();
            let exact = fedavg(&clients).unwrap();
            let mut feedback = ErrorFeedback::new(UpdateCodec::with_seed(CodecKind::Uniform4, seed));
            let rounds = 150usize;
            let mut mean = DenseModel::zeros(dim);
            for _ in 0..rounds {
                let round: Vec<ModelUpdate> = clients
                    .iter()
                    .map(|u| {
                        let decoded = feedback
                            .encode(u.client.unwrap(), &u.model)
                            .unwrap()
                            .decode();
                        ModelUpdate::from_client(u.client.unwrap(), decoded, u.samples)
                    })
                    .collect();
                mean.axpy(1.0 / rounds as f32, &fedavg(&round).unwrap().model).unwrap();
            }
            let max_abs = exact.model.as_slice().iter().fold(1.0f32, |a, v| a.max(v.abs()));
            for (a, b) in exact.model.as_slice().iter().zip(mean.as_slice()) {
                prop_assert!((a - b).abs() <= 0.08 * max_abs + 0.05,
                    "round-averaged {} drifted from exact {}", b, a);
            }
        }

        /// Hierarchical aggregation over Identity-encoded updates is bit-exact
        /// with the same hierarchy over the raw updates, and both match flat
        /// aggregation within float tolerance.
        #[test]
        fn identity_hierarchy_is_bit_exact(
            updates in proptest::collection::vec((proptest::collection::vec(-10.0f32..10.0, 4..=4), 1u64..30), 4..10),
            split in 1usize..9,
        ) {
            let raw: Vec<ModelUpdate> = updates
                .iter()
                .enumerate()
                .map(|(i, (p, s))| ModelUpdate::from_client(ClientId::new(i as u64), DenseModel::from_vec(p.clone()), *s))
                .collect();
            let mut codec = UpdateCodec::new(CodecKind::Identity);
            let encoded: Vec<ModelUpdate> = raw
                .iter()
                .map(|u| ModelUpdate {
                    client: u.client,
                    model: codec.encode(&u.model).decode(),
                    samples: u.samples,
                })
                .collect();
            let split = split.min(raw.len() - 1).max(1);
            let top_raw = fedavg(&[
                fedavg(&raw[..split]).unwrap(),
                fedavg(&raw[split..]).unwrap(),
            ]).unwrap();
            let top_encoded = fedavg(&[
                fedavg(&encoded[..split]).unwrap(),
                fedavg(&encoded[split..]).unwrap(),
            ]).unwrap();
            prop_assert_eq!(top_raw.samples, top_encoded.samples);
            for (a, b) in top_raw.model.as_slice().iter().zip(top_encoded.model.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "identity hierarchy not bit-exact");
            }
            let flat = fedavg(&raw).unwrap();
            for (a, b) in flat.model.as_slice().iter().zip(top_encoded.model.as_slice()) {
                prop_assert!((a - b).abs() < 1e-2);
            }
        }
    }
}
