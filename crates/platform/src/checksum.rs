//! Checksum generators for the checkpoint frame pipeline.
//!
//! Every frame the durable checkpoint pipeline (`ft-ckpt`) writes carries a
//! checksum so that restores can *verify* rather than trust the stored
//! image.  [`ChecksumGen`] is the pluggable generator behind the frame
//! writer: [`Crc32`] is the real thing (CRC-32/ISO-HDLC, the polynomial of
//! zlib and Ethernet), while [`NullChecksum`] is the identity generator the
//! micro-benchmarks use to isolate the cost of checksumming from the cost of
//! framing and I/O.
//!
//! Generators are streaming — `reset`, then any number of `push` calls,
//! then `value` — so the frame writer can checksum chunked payloads without
//! buffering them, and the same generator instance is reused across frames.
//!
//! [`Crc32`] uses slicing-by-8: eight compile-time tables fold 8 input
//! bytes per table step, and a bytewise loop handles the tail.  The frame
//! writer runs two CRC passes over every body byte (its chunk frame and the
//! stream trailer), so this loop bounds the cost of a checkpoint write and
//! of its verify.

/// A streaming 32-bit checksum generator.
///
/// Implementations must be pure functions of the pushed byte sequence:
/// pushing the same bytes in any chunking produces the same value, and
/// `reset` returns the generator to its initial state.
pub trait ChecksumGen {
    /// Returns the generator to its initial state.
    fn reset(&mut self);

    /// Feeds bytes into the running checksum.
    fn push(&mut self, data: &[u8]);

    /// The checksum of everything pushed since the last reset.
    fn value(&self) -> u32;

    /// Convenience: the checksum of one contiguous byte slice (resets the
    /// generator first, so the running state is consumed).
    fn checksum_of(&mut self, data: &[u8]) -> u32 {
        self.reset();
        self.push(data);
        self.value()
    }

    /// Short human-readable name of the algorithm.
    fn name(&self) -> &'static str;
}

/// The slicing-by-8 lookup tables of CRC-32/ISO-HDLC (reflected polynomial
/// `0xEDB88320`), built at compile time.  `tables[0]` is the classic
/// bytewise table; `tables[k][b]` is the CRC register after byte `b`
/// followed by `k` zero bytes, so eight lookups fold eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32/ISO-HDLC (a.k.a. the zlib/PNG/Ethernet CRC-32): init `0xFFFFFFFF`,
/// reflected polynomial `0xEDB88320`, final XOR `0xFFFFFFFF`.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh generator.
    pub fn new() -> Self {
        Self { state: !0 }
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl ChecksumGen for Crc32 {
    #[inline]
    fn reset(&mut self) {
        self.state = !0;
    }

    fn push(&mut self, data: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.state;
        let mut blocks = data.chunks_exact(8);
        for b in &mut blocks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    #[inline]
    fn value(&self) -> u32 {
        !self.state
    }

    fn name(&self) -> &'static str {
        "crc32"
    }
}

/// The identity generator: every checksum is zero.  Frames written with it
/// verify structurally (lengths, magic, frame kinds) but not byte-exactly —
/// it exists so benchmarks can measure the pipeline with checksumming
/// subtracted out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullChecksum;

impl ChecksumGen for NullChecksum {
    #[inline]
    fn reset(&mut self) {}

    #[inline]
    fn push(&mut self, _data: &[u8]) {}

    #[inline]
    fn value(&self) -> u32 {
        0
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_check_vector() {
        // The canonical CRC-32/ISO-HDLC check value.
        let mut c = Crc32::new();
        assert_eq!(c.checksum_of(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_of_empty_input_is_zero() {
        let mut c = Crc32::default();
        assert_eq!(c.checksum_of(b""), 0);
    }

    #[test]
    fn chunking_does_not_change_the_checksum() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut whole = Crc32::new();
        let one = whole.checksum_of(&data);
        let mut chunked = Crc32::new();
        chunked.reset();
        for chunk in data.chunks(37) {
            chunked.push(chunk);
        }
        assert_eq!(chunked.value(), one);
    }

    /// Bit-at-a-time CRC-32/ISO-HDLC written straight from the reflected
    /// polynomial: the reference the table-driven generator must equal.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn every_short_length_and_offset_matches_the_bitwise_reference() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926, "reference check vector");
        let data: Vec<u8> = (0..72u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let end = offset + len;
                let mut c = Crc32::new();
                assert_eq!(
                    c.checksum_of(&data[offset..end]),
                    crc32_bitwise(&data[offset..end]),
                    "slice at offset {offset}, length {len}"
                );
                // The same bytes continuing a stream that is `offset` bytes
                // in, so the 8-byte blocks straddle the earlier push.
                c.reset();
                c.push(&data[..offset]);
                c.push(&data[offset..end]);
                assert_eq!(c.value(), crc32_bitwise(&data[..end]), "stream {offset} + {len}");
            }
        }
    }

    mod slicing_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random buffers pushed in random splits checksum exactly as
            /// the bitwise reference does on the whole buffer.
            #[test]
            fn random_splits_match_the_bitwise_reference(
                bytes in proptest::collection::vec(0u8..=255, 0..2048),
                cuts in proptest::collection::vec(0usize..2048, 0..8),
            ) {
                let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
                cuts.push(0);
                cuts.push(bytes.len());
                cuts.sort_unstable();
                let mut c = Crc32::new();
                for w in cuts.windows(2) {
                    c.push(&bytes[w[0]..w[1]]);
                }
                prop_assert_eq!(c.value(), crc32_bitwise(&bytes));
            }
        }
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut c = Crc32::new();
        let first = c.checksum_of(b"hello");
        c.push(b"more bytes");
        c.reset();
        c.push(b"hello");
        assert_eq!(c.value(), first);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0x5Au8; 256];
        let mut c = Crc32::new();
        let clean = c.checksum_of(&data);
        for bit in [0usize, 7, 100, 2047] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(c.checksum_of(&flipped), clean, "bit {bit}");
        }
    }

    #[test]
    fn null_checksum_is_always_zero() {
        let mut n = NullChecksum;
        assert_eq!(n.checksum_of(b"anything"), 0);
        n.push(b"more");
        assert_eq!(n.value(), 0);
        assert_eq!(n.name(), "null");
        assert_eq!(Crc32::new().name(), "crc32");
    }
}
