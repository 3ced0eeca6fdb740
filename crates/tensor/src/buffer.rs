//! Byte-addressed host staging buffers with typed accessors.
//!
//! A [`HostBuffer`] is the unit of I/O in the functional offloading path: a
//! subgroup's FP32 optimizer state is serialized into one before being
//! flushed to a tier, and deserialized out of one after a fetch. The fused
//! update pipeline goes further and mutates the fetched bytes *in place*
//! through [`HostBuffer::as_f32_mut`], so the backing storage is allocated
//! as `u32` words: the data pointer is always 4-byte aligned and
//! reinterpreting it as `f32` is sound (every bit pattern is a valid
//! `f32`/`u8`). That reinterpretation is one of the few contained uses
//! of `unsafe` in the workspace; all copy-based accessors
//! (`from_le_bytes`/`to_le_bytes`) remain safe code.

/// A byte-addressed staging buffer with a 4-byte-aligned backing store.
#[derive(Clone, Default)]
pub struct HostBuffer {
    /// Backing words; allocated so `words.len() * 4 >= len`.
    words: Vec<u32>,
    /// Logical length in bytes.
    len: usize,
}

impl HostBuffer {
    /// Creates a zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        HostBuffer {
            words: vec![0u32; len.div_ceil(4)],
            len,
        }
    }

    /// Creates a buffer holding a copy of `data`.
    pub fn from_slice(data: &[u8]) -> Self {
        let mut buf = HostBuffer::zeroed(data.len());
        buf.as_bytes_mut().copy_from_slice(data);
        buf
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the buffer can hold without reallocating: its length is at
    /// most this, and [`HostBuffer::set_len`] moves it within.
    pub fn capacity(&self) -> usize {
        self.words.len() * 4
    }

    /// Sets the length in bytes, clamped to [`HostBuffer::capacity`]. Bytes
    /// a longer length exposes keep whatever they last held — a recycled
    /// frame never promised its contents. A frame that carries a shorter
    /// object (an encoded one, say) keeps its allocation this way.
    pub fn set_len(&mut self, len: usize) {
        self.len = len.min(self.capacity());
    }

    /// Read-only byte view.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `zeroed` allocates `words` with `len.div_ceil(4)` u32s
        // and `len` never grows afterwards, so the pointer is valid for
        // reads of `self.len <= words.len() * 4` bytes within one
        // allocation (and `len <= isize::MAX` follows from the Vec's own
        // size bound). `u8` has alignment 1, every initialized byte of a
        // `u32` is a valid `u8`, and the cast keeps the Vec allocation's
        // provenance. The returned borrow is tied to `&self`, so the Vec
        // cannot be dropped, reallocated, or written through `&mut self`
        // while the slice lives.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// Mutable byte view.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: same bounds/validity argument as `as_bytes`; in
        // addition `&mut self` gives exclusive access to `words` for the
        // borrow's lifetime, so this is the only live view into the
        // allocation (no aliasing), and writing any byte value keeps the
        // underlying u32s initialized and valid.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    /// In-place `f32` view of the first `count` elements (bytes
    /// `0..4*count` interpreted as native-endian `f32`, which equals the
    /// serialized little-endian layout on every supported target).
    ///
    /// # Panics
    ///
    /// Panics if `4 * count` exceeds the buffer length.
    pub fn as_f32(&self, count: usize) -> &[f32] {
        assert!(count * 4 <= self.len, "as_f32 out of bounds");
        // SAFETY: the backing store is a `Vec<u32>`, so the pointer is
        // 4-byte aligned, which satisfies `f32`'s alignment; the assert
        // above plus the allocation invariant (`words.len() * 4 >= len`)
        // bound the view to `count <= words.len()` elements inside the
        // allocation. `u32` and `f32` have identical size/alignment and
        // every initialized `u32` bit pattern is a valid `f32` (including
        // NaN payloads), so the transmute of contents is lossless. The
        // borrow is tied to `&self`, preventing concurrent mutation or
        // reallocation for its lifetime.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<f32>(), count) }
    }

    /// Mutable in-place `f32` view of the first `count` elements — the
    /// zero-copy window the fused update kernels mutate directly, instead
    /// of deserializing into fresh `Vec<f32>`s.
    ///
    /// # Panics
    ///
    /// Panics if `4 * count` exceeds the buffer length.
    pub fn as_f32_mut(&mut self, count: usize) -> &mut [f32] {
        assert!(count * 4 <= self.len, "as_f32_mut out of bounds");
        // SAFETY: same alignment/bounds/validity argument as `as_f32`;
        // `&mut self` additionally guarantees this is the only live view
        // of the allocation (no aliasing), and any `f32` the kernels
        // store back is a valid `u32` bit pattern, so the backing words
        // stay initialized for later byte-level reads.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<f32>(), count) }
    }

    /// Copies `count` little-endian `f32`s starting at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_f32(&self, offset: usize, count: usize) -> Vec<f32> {
        let end = offset + count * 4;
        assert!(end <= self.len, "read_f32 out of bounds");
        self.as_bytes()[offset..end]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Writes `src` as little-endian `f32`s starting at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_f32(&mut self, offset: usize, src: &[f32]) {
        let end = offset + src.len() * 4;
        assert!(end <= self.len, "write_f32 out of bounds");
        for (c, s) in self.as_bytes_mut()[offset..end]
            .chunks_exact_mut(4)
            .zip(src)
        {
            c.copy_from_slice(&s.to_le_bytes());
        }
    }
}

impl std::fmt::Debug for HostBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostBuffer({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip() {
        let mut buf = HostBuffer::zeroed(64);
        let vals = [1.5f32, -2.25, 0.0, f32::MAX];
        buf.write_f32(8, &vals);
        assert_eq!(buf.read_f32(8, 4), vals);
    }

    #[test]
    fn layout_is_little_endian() {
        let mut buf = HostBuffer::zeroed(4);
        buf.write_f32(0, &[1.0]);
        assert_eq!(buf.as_bytes(), &1.0f32.to_le_bytes());
    }

    #[test]
    fn in_place_view_sees_serialized_values() {
        let mut buf = HostBuffer::zeroed(16);
        let vals = [0.25f32, -3.5, 1e-40, f32::INFINITY];
        buf.write_f32(0, &vals);
        assert_eq!(buf.as_f32(4), vals);
        buf.as_f32_mut(4)[1] = 7.0;
        assert_eq!(buf.read_f32(0, 4), vec![0.25, 7.0, 1e-40, f32::INFINITY]);
    }

    #[test]
    fn in_place_view_survives_byte_writes() {
        let mut buf = HostBuffer::zeroed(8);
        buf.as_bytes_mut()
            .copy_from_slice(&[0, 0, 128, 63, 0, 0, 0, 64]); // 1.0, 2.0 LE
        assert_eq!(buf.as_f32(2), [1.0, 2.0]);
    }

    #[test]
    fn odd_byte_lengths_round_trip() {
        let mut buf = HostBuffer::zeroed(7);
        assert_eq!(buf.len(), 7);
        buf.as_bytes_mut().copy_from_slice(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(buf.as_bytes(), &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(HostBuffer::from_slice(&[9; 5]).as_bytes(), &[9u8; 5]);
    }

    #[test]
    fn length_moves_within_the_capacity_and_keeps_the_bytes() {
        let mut buf = HostBuffer::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf.capacity(), 8);
        buf.set_len(3);
        assert_eq!((buf.len(), buf.as_bytes()), (3, &[1, 2, 3][..]));
        buf.set_len(100);
        assert_eq!(buf.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(HostBuffer::zeroed(5).capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut buf = HostBuffer::zeroed(4);
        buf.write_f32(4, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_f32_view_panics() {
        let mut buf = HostBuffer::zeroed(7);
        buf.as_f32_mut(2);
    }
}
