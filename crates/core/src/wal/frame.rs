//! Record framing for the write-ahead log.
//!
//! Every record is laid out as `[len: u32 LE][crc32: u32 LE][payload]`,
//! where the checksum covers the payload bytes. Decoding walks a segment
//! front to back and stops at the first frame that does not check out —
//! a torn header, a torn payload, an implausible length, or a checksum
//! mismatch — reporting how many bytes were valid so recovery can
//! truncate there instead of erroring or accepting garbage.

use std::fmt;

/// Bytes of framing overhead per record (length + checksum).
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single record's payload; anything larger is treated
/// as corruption (a bit flip in the length field must not make recovery
/// attempt a gigabyte allocation).
pub const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

/// The slice-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups fold eight input bytes at once.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// IEEE CRC-32 (the Ethernet/zlib polynomial, reflected), eight bytes per
/// step; the bytewise loop finishes the last `len % 8` bytes.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Frames the text `write` appends as one log record, in one buffer: the
/// header's bytes are reserved, the payload is written after them, and
/// the header is then filled in with the payload's length and checksum.
pub fn encode_text(write: impl FnOnce(&mut String)) -> Vec<u8> {
    // Room for a settings record without regrowing: a preference
    // submission is ~290 bytes of JSON.
    let mut text = String::with_capacity(512);
    text.extend(['\0'; HEADER_LEN]);
    write(&mut text);
    let mut frame = text.into_bytes();
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// Why a segment's tail was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Fewer bytes remain than a record header needs (torn header).
    TornHeader,
    /// The header promises more payload bytes than the segment holds
    /// (torn write).
    TornPayload,
    /// The length field is implausibly large (corrupted header).
    OversizedLength,
    /// The payload does not match its checksum (bit rot or a torn
    /// overwrite).
    ChecksumMismatch,
    /// The payload passed its checksum but did not decode as a record
    /// (foreign or corrupted content).
    Undecodable,
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Corruption::TornHeader => "torn record header",
            Corruption::TornPayload => "torn record payload",
            Corruption::OversizedLength => "implausible record length",
            Corruption::ChecksumMismatch => "checksum mismatch",
            Corruption::Undecodable => "undecodable record payload",
        })
    }
}

/// The outcome of walking one segment's bytes.
#[derive(Debug)]
pub struct DecodedSegment {
    /// Each intact record's payload, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte offset just past each intact record (so `boundaries[i]` is
    /// where record `i + 1` starts).
    pub boundaries: Vec<usize>,
    /// How many leading bytes were valid; recovery truncates here.
    pub valid_len: usize,
    /// Why decoding stopped early, if it did.
    pub corruption: Option<Corruption>,
}

/// Walks a segment front to back, collecting intact records and stopping
/// at the first torn or corrupt frame.
pub fn decode_segment(bytes: &[u8]) -> DecodedSegment {
    let mut payloads = Vec::new();
    let mut boundaries = Vec::new();
    let mut off = 0usize;
    let corruption = loop {
        let remaining = bytes.len() - off;
        if remaining == 0 {
            break None;
        }
        if remaining < HEADER_LEN {
            break Some(Corruption::TornHeader);
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_LEN {
            break Some(Corruption::OversizedLength);
        }
        if remaining < HEADER_LEN + len {
            break Some(Corruption::TornPayload);
        }
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        let payload = &bytes[off + HEADER_LEN..off + HEADER_LEN + len];
        if crc32(payload) != crc {
            break Some(Corruption::ChecksumMismatch);
        }
        off += HEADER_LEN + len;
        payloads.push(payload.to_vec());
        boundaries.push(off);
    };
    DecodedSegment {
        payloads,
        boundaries,
        valid_len: off,
        corruption,
    }
}

/// Byte offsets just past each intact record in a segment — the crash
/// points a recovery fuzzer enumerates.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    decode_segment(bytes).boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// CRC-32 one bit at a time, straight from the polynomial.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        // Miri runs this module; a handful of cases keeps it tractable.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn slice_by_8_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            start in 0usize..16,
            cut in 0usize..16,
        ) {
            // Random offsets and lengths exercise every alignment and
            // every tail length.
            let start = start.min(bytes.len());
            let end = bytes.len().saturating_sub(cut).max(start);
            let slice = &bytes[start..end];
            prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }

    /// Frames a literal payload.
    fn encode(payload: &str) -> Vec<u8> {
        encode_text(|out| out.push_str(payload))
    }

    #[test]
    fn frames_lay_out_length_checksum_then_payload() {
        let frame = encode("payload");
        assert_eq!(frame[..4], 7u32.to_le_bytes());
        assert_eq!(frame[4..8], crc32(b"payload").to_le_bytes());
        assert_eq!(&frame[HEADER_LEN..], b"payload");
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut segment = Vec::new();
        segment.extend_from_slice(&encode("alpha"));
        segment.extend_from_slice(&encode(""));
        segment.extend_from_slice(&encode("gamma-record"));
        let decoded = decode_segment(&segment);
        assert_eq!(
            decoded.payloads,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma-record".to_vec()]
        );
        assert_eq!(decoded.valid_len, segment.len());
        assert!(decoded.corruption.is_none());
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let mut segment = Vec::new();
        segment.extend_from_slice(&encode("first"));
        let boundary = segment.len();
        segment.extend_from_slice(&encode("second-record"));
        for cut in boundary + 1..segment.len() {
            let decoded = decode_segment(&segment[..cut]);
            assert_eq!(decoded.payloads.len(), 1, "cut at {cut}");
            assert_eq!(decoded.valid_len, boundary);
            assert!(decoded.corruption.is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let segment = encode("checksummed payload");
        for byte in 0..segment.len() {
            let mut copy = segment.clone();
            copy[byte] ^= 1 << (byte % 8);
            let decoded = decode_segment(&copy);
            assert!(
                decoded.payloads.is_empty() && decoded.corruption.is_some(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut segment = Vec::new();
        segment.extend_from_slice(&(u32::MAX).to_le_bytes());
        segment.extend_from_slice(&[0, 0, 0, 0]);
        let decoded = decode_segment(&segment);
        assert_eq!(decoded.corruption, Some(Corruption::OversizedLength));
        assert_eq!(decoded.valid_len, 0);
    }
}
