//! End-to-end integrity for offloaded state.
//!
//! A subgroup fetched from a tier becomes optimizer input with no further
//! validation, so silent corruption (torn write, bit rot on a long-lived
//! PFS object) would poison training undetectably. [`ChecksummedBackend`]
//! wraps any [`Backend`] and frames every object with a from-scratch
//! CRC-32 (IEEE 802.3 polynomial, table-driven), turning corruption into
//! an I/O error at fetch time.

use std::io;
use std::sync::Arc;

use crate::backend::Backend;

/// CRC-32 (IEEE) lookup table, generated at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Computes the CRC-32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // lint:allow(transitive-panic): index masked to the 256-entry table
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Backend decorator adding a 4-byte CRC-32 trailer to every object.
pub struct ChecksummedBackend {
    inner: Arc<dyn Backend>,
    name: String,
}

impl ChecksummedBackend {
    /// Wraps `inner`; all reads verify, all writes append the checksum.
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        let name = format!("{}+crc32", inner.name());
        ChecksummedBackend { inner, name }
    }
}

impl Backend for ChecksummedBackend {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        let mut framed = Vec::with_capacity(data.len() + 4);
        framed.extend_from_slice(data);
        framed.extend_from_slice(&crc32(data).to_le_bytes());
        self.inner.write(key, &framed)
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        let mut framed = self.inner.read(key)?;
        if framed.len() < 4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("object {key} shorter than its checksum trailer"),
            ));
        }
        let trailer = framed.split_off(framed.len() - 4);
        // lint:allow(transitive-panic): trailer is exactly 4 bytes — split_off after the length guard
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(&framed);
        if stored != computed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checksum mismatch on {key}: stored {stored:#010x}, computed {computed:#010x}"
                ),
            ));
        }
        Ok(framed)
    }

    /// The stored object carries its own trailer, so the medium links it.
    fn link(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.link(from, to)
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        self.inner.delete(key)
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trip_is_transparent() {
        let b = ChecksummedBackend::new(Arc::new(MemBackend::new("mem")));
        b.write("k", &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(b.read("k").unwrap(), vec![1, 2, 3, 4, 5]);
        assert!(b.contains("k"));
        b.delete("k").unwrap();
        assert!(!b.contains("k"));
    }

    #[test]
    fn empty_payload_round_trips() {
        let b = ChecksummedBackend::new(Arc::new(MemBackend::new("mem")));
        b.write("e", &[]).unwrap();
        assert_eq!(b.read("e").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corruption_is_detected() {
        let inner = Arc::new(MemBackend::new("mem"));
        let b = ChecksummedBackend::new(inner.clone());
        b.write("k", &[9u8; 64]).unwrap();

        // Flip one payload bit behind the wrapper's back.
        let mut raw = inner.read("k").unwrap();
        raw[10] ^= 0x01;
        inner.write("k", &raw).unwrap();

        let err = b.read("k").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn truncated_object_is_rejected() {
        let inner = Arc::new(MemBackend::new("mem"));
        let b = ChecksummedBackend::new(inner.clone());
        inner.write("short", &[1, 2]).unwrap();
        assert_eq!(
            b.read("short").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn trailer_corruption_is_detected_too() {
        let inner = Arc::new(MemBackend::new("mem"));
        let b = ChecksummedBackend::new(inner.clone());
        b.write("k", &[7u8; 16]).unwrap();
        let mut raw = inner.read("k").unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF;
        inner.write("k", &raw).unwrap();
        assert!(b.read("k").is_err());
    }
}
