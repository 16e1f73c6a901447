//! Little-endian byte views of `f32` buffers: how a dense update enters the
//! shared-memory store without being copied.
//!
//! The store holds dense payloads as headerless little-endian `f32` bytes
//! (exactly what `ObjectStore::put_f32` writes). On a little-endian target
//! an `[f32]` in memory already *is* that byte string, so the view below
//! reinterprets the buffer in place. On any other target the view is built
//! once, as one byte-swapped copy, and the stored bytes are the same.

use std::borrow::Cow;

/// An owned dense `f32` buffer that reads as its little-endian byte image:
/// the owner a moved dense update is stored through
/// (`bytes::Bytes::from_owner`). [`DenseBytes::into_values`] hands the
/// buffer back (e.g. to a `BufferPool`) once the last reader is done.
#[derive(Debug)]
pub struct DenseBytes {
    values: Vec<f32>,
    /// The little-endian image, kept next to the values on big-endian
    /// targets (the one copy those targets pay).
    #[cfg(not(target_endian = "little"))]
    image: Vec<u8>,
}

impl DenseBytes {
    /// Takes ownership of `values` (no copy on little-endian targets).
    pub fn new(values: Vec<f32>) -> Self {
        DenseBytes {
            #[cfg(not(target_endian = "little"))]
            image: values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            values,
        }
    }

    /// Gives the value buffer back.
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }
}

impl AsRef<[u8]> for DenseBytes {
    fn as_ref(&self) -> &[u8] {
        #[cfg(target_endian = "little")]
        {
            le_image(&self.values)
        }
        #[cfg(not(target_endian = "little"))]
        {
            &self.image
        }
    }
}

/// The little-endian byte image of `values`: borrowed in place on
/// little-endian targets, one copy elsewhere.
pub fn dense_le_bytes(values: &[f32]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        Cow::Borrowed(le_image(values))
    }
    #[cfg(not(target_endian = "little"))]
    {
        Cow::Owned(values.iter().flat_map(|v| v.to_le_bytes()).collect())
    }
}

/// Reinterprets `values` as bytes, which on a little-endian target are the
/// values' little-endian encoding.
#[cfg(target_endian = "little")]
fn le_image(values: &[f32]) -> &[u8] {
    // SAFETY: the pointer comes from a live `&[f32]`, so it is non-null and
    // valid for reads of `size_of_val(values)` bytes for the borrow's
    // lifetime, which the returned slice inherits. `u8` has alignment 1 and
    // every byte of an `f32` is an initialised, valid `u8`. The shared borrow
    // rules out mutation while the view lives. On a little-endian target
    // each `f32`'s in-memory bytes equal `f32::to_le_bytes`.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn views_equal_the_le_encoding() {
        let values = vec![1.0f32, -2.5, f32::NAN, -0.0, f32::INFINITY, 1e-40];
        let want = encoded(&values);
        assert_eq!(&*dense_le_bytes(&values), want.as_slice());
        let owned = DenseBytes::new(values.clone());
        assert_eq!(owned.as_ref(), want.as_slice());
        let back = owned.into_values();
        assert_eq!(encoded(&back), want);
        assert!(dense_le_bytes(&[]).is_empty());
    }

    #[cfg(target_endian = "little")]
    #[test]
    fn little_endian_views_alias_the_values() {
        let values = vec![3.0f32; 17];
        let ptr = values.as_ptr().cast::<u8>();
        assert!(matches!(dense_le_bytes(&values), Cow::Borrowed(b) if b.as_ptr() == ptr));
        let owned = DenseBytes::new(values);
        assert_eq!(owned.as_ref().as_ptr(), ptr);
        assert_eq!(owned.as_ref().len(), 17 * 4);
    }
}
