//! Floor probes: each layer's primitive timed alone, in the same process and
//! on the same payload bytes as the workload, so per-layer ratios against
//! them are within-run and survive a noisy host.

use crate::stats::median;
use lifl_fl::aggregate::{CumulativeFedAvg, ModelUpdate};
use lifl_fl::codec::UpdateCodec;
use lifl_fl::DenseModel;
use lifl_shmem::ObjectStore;
use lifl_types::{ClientId, CodecKind};
use std::hint::black_box;
use std::time::Instant;

/// Median microseconds of each primitive on one update.
#[derive(Debug, Clone, Copy, Default)]
pub struct Floors {
    /// Copying the update's bytes into a preallocated buffer.
    pub memcpy_us: f64,
    /// `ObjectStore::put_f32` of the update (the dense offer's store copy).
    pub put_f32_us: f64,
    /// `UpdateCodec::encode_slice` under the uniform8 codec.
    pub encode_us: f64,
    /// `CumulativeFedAvg::fold_encoded_view` of the uniform8 encoding.
    pub fused_fold_us: f64,
    /// `CumulativeFedAvg::fold` of the dense update.
    pub dense_fold_us: f64,
    /// `EncodedView::decode_into` of the uniform8 encoding.
    pub decode_us: f64,
}

fn median_us(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Probes every floor on `params`, folding with weight `samples`.
pub fn measure(params: &[f32], samples: u64) -> Floors {
    // Repetitions for about 100 MB of traffic per probe, within 5..=400.
    let reps = (25_000_000 / params.len().max(1)).clamp(5, 400);
    let mut copy = vec![0.0f32; params.len()];
    let memcpy_us = median_us(reps, || {
        copy.copy_from_slice(black_box(params));
        black_box(&copy);
    });
    let store = ObjectStore::new();
    let put_f32_us = median_us(reps, || {
        let key = store.put_f32(black_box(params)).expect("unbounded store");
        let _ = store.recycle(&key);
    });
    let mut codec = UpdateCodec::with_seed(CodecKind::Uniform8, 1);
    let encode_us = median_us(reps, || {
        let encoded = codec.encode_slice(black_box(params));
        codec.recycle(encoded);
    });
    let encoded = codec.encode_slice(params);
    let mut acc = CumulativeFedAvg::new(params.len());
    let fused_fold_us = median_us(reps, || {
        acc.fold_encoded_view(&encoded.view(), samples)
            .expect("matching dimension");
    });
    let dense = ModelUpdate::from_client(
        ClientId::new(0),
        DenseModel::from_vec(params.to_vec()),
        samples,
    );
    let dense_fold_us = median_us(reps, || {
        acc.fold(black_box(&dense)).expect("matching dimension");
    });
    let decode_us = median_us(reps, || {
        encoded
            .view()
            .decode_into(&mut copy)
            .expect("buffer matches the dimension");
        black_box(&copy);
    });
    Floors {
        memcpy_us,
        put_f32_us,
        encode_us,
        fused_fold_us,
        dense_fold_us,
        decode_us,
    }
}
