//! Tamper-evident audit chain: HMAC-linked records, sealed segments.
//!
//! The chain is the engine's decision record: every audited decision and
//! deletion certificate is journaled here once, and
//! [`crate::Tippers::decisions`] reads the decisions back out of it. A
//! plain list would be honest but defenseless — anyone holding the
//! process image could rewrite history. The chain makes rewriting
//! *detectable*: every appended record carries the MAC of its predecessor
//! inside its own MAC, so mutating, dropping, swapping or truncating any
//! record breaks verification of everything after it. Full segments seal
//! under a signed root and archive through the WAL's
//! [`crate::wal::LogIo`] backend, where the resilience harness can flip
//! their bits and verification must notice; a checkpoint also seals the
//! open run, however short, so every decision made before it is durable
//! in the archive (the snapshot itself carries no decisions).
//!
//! The MAC key is a deployment parameter; this reproduction derives a
//! fixed key from a domain-separation string because there is no key
//! provisioning story in the paper. Everything else — linking, sealing,
//! verification — is key-agnostic.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use super::hash::{hex, hex_bytes, hex_u64, sha256, HmacKey};

/// Records per sealed segment. Small enough that a corrupted archive file
/// localizes to tens of decisions, large enough that sealing is rare.
pub const SEGMENT_RECORDS: usize = 64;

/// Archive file-name prefix for sealed segments (`audit-0000000000.seg`).
/// The WAL's recovery scan ignores non-`wal-*` names, so sealed segments
/// can share the log directory and its failure modes.
pub const ARCHIVE_PREFIX: &str = "audit-";

/// The chain's MAC key, its HMAC pad states computed once per process.
fn mac_key() -> &'static HmacKey {
    static KEY: OnceLock<HmacKey> = OnceLock::new();
    KEY.get_or_init(|| HmacKey::new(&sha256(b"tippers/audit-chain/mac-key/v1")))
}

fn genesis_link() -> String {
    hex(&sha256(b"tippers/audit-chain/genesis-link"))
}

fn genesis_root() -> String {
    hex(&sha256(b"tippers/audit-chain/genesis-root"))
}

/// HMAC over `{seq:016x}:{prev}:{payload}`, fed in parts. `prev` is a
/// fixed-width hex digest, so the join is unambiguous.
fn record_mac(seq: u64, prev: &str, payload: &str) -> [u8; 32] {
    mac_key().mac_parts(&[
        &hex_u64(seq),
        b":",
        prev.as_bytes(),
        b":",
        payload.as_bytes(),
    ])
}

/// HMAC over `seal:{first_seq:016x}:{last_seq:016x}:{last_mac}:{prev_root}`.
fn segment_root(first_seq: u64, last_seq: u64, last_mac: &str, prev_root: &str) -> [u8; 32] {
    mac_key().mac_parts(&[
        b"seal:",
        &hex_u64(first_seq),
        b":",
        &hex_u64(last_seq),
        b":",
        last_mac.as_bytes(),
        b":",
        prev_root.as_bytes(),
    ])
}

/// Whether a stored hex MAC or root is exactly `digest`'s hex.
fn matches(stored: &str, digest: &[u8; 32]) -> bool {
    stored.as_bytes() == hex_bytes(digest)
}

/// One chained audit record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainedRecord {
    /// Position in the chain, starting at 0 and never reused.
    pub seq: u64,
    /// MAC of the predecessor (the genesis link for record 0).
    pub prev: String,
    /// The audited event, as canonical JSON.
    pub payload: String,
    /// HMAC-SHA256 over (seq, prev, payload).
    pub mac: String,
}

/// A sealed, immutable run of chained records: [`SEGMENT_RECORDS`] of
/// them, or fewer when a checkpoint sealed the open run early.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedSegment {
    /// Sequence number of the first record.
    pub first_seq: u64,
    /// Sequence number of the last record.
    pub last_seq: u64,
    /// The link the first record chains from (previous segment's last MAC).
    pub prev_link: String,
    /// The previous segment's root (the genesis root for the first).
    pub prev_root: String,
    /// The records, in sequence order.
    pub records: Vec<ChainedRecord>,
    /// Signed root over the segment bounds, last MAC, and previous root.
    pub root: String,
}

/// How a chain or archive failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainFault {
    /// A record's MAC does not match its contents (mutation / bit-flip).
    Mac {
        /// Sequence number of the offending record.
        seq: u64,
    },
    /// A record's `prev` is not its predecessor's MAC (swap / splice).
    Link {
        /// Sequence number of the offending record.
        seq: u64,
    },
    /// Sequence numbers are not contiguous (drop / truncation / reorder).
    Sequence {
        /// The sequence number that should have come next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// A sealed segment's root does not match its contents, or root
    /// lineage across segments is broken.
    Root {
        /// First sequence number of the offending segment.
        first_seq: u64,
    },
    /// An archived segment could not be parsed at all.
    Corrupt {
        /// Archive file name.
        name: String,
    },
}

impl std::fmt::Display for ChainFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainFault::Mac { seq } => write!(f, "record {seq} fails its MAC"),
            ChainFault::Link { seq } => {
                write!(f, "record {seq} does not chain from its predecessor")
            }
            ChainFault::Sequence { expected, found } => {
                write!(f, "expected sequence {expected}, found {found}")
            }
            ChainFault::Root { first_seq } => {
                write!(f, "segment starting at {first_seq} fails its sealed root")
            }
            ChainFault::Corrupt { name } => write!(f, "archived segment {name} is unparseable"),
        }
    }
}

/// The live, append-only audit chain.
///
/// Node-local accountability state: the chain is *about* the replicated
/// audit events but is not itself replicated or snapshotted — each node
/// journals what it witnessed, and recovery resumes after the last sealed
/// segment rather than reconstructing unsealed history (a checkpoint
/// seals the open run, so nothing before the last checkpoint is
/// unsealed).
///
/// # Examples
///
/// ```
/// use tippers::AuditChain;
///
/// let mut chain = AuditChain::new();
/// chain.append("{\"event\":\"demo\"}".to_owned());
/// chain.append("{\"event\":\"demo2\"}".to_owned());
/// assert_eq!(chain.verify().unwrap(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditChain {
    /// Link the next unsealed run chains from.
    base: String,
    /// Root lineage carried into the next seal.
    prev_root: String,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Appended but not yet sealed records.
    open: Vec<ChainedRecord>,
    /// Segments sealed over this chain's lifetime (count only; the bytes
    /// live in the archive).
    sealed: u64,
}

impl Default for AuditChain {
    fn default() -> AuditChain {
        AuditChain::new()
    }
}

impl AuditChain {
    /// An empty chain anchored at the genesis link.
    pub fn new() -> AuditChain {
        AuditChain {
            base: genesis_link(),
            prev_root: genesis_root(),
            next_seq: 0,
            open: Vec::new(),
            sealed: 0,
        }
    }

    /// Appends an event payload, returning the new record.
    pub fn append(&mut self, payload: String) -> &ChainedRecord {
        let seq = self.next_seq;
        let prev = self.head();
        let mac = hex(&record_mac(seq, prev, &payload));
        let prev = prev.to_owned();
        self.next_seq += 1;
        self.open.push(ChainedRecord {
            seq,
            prev,
            payload,
            mac,
        });
        self.open.last().expect("just pushed")
    }

    /// The not-yet-sealed records, oldest first.
    pub fn open_records(&self) -> &[ChainedRecord] {
        &self.open
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of segments sealed over this chain's lifetime.
    pub fn sealed_segments(&self) -> u64 {
        self.sealed
    }

    /// The current head MAC (what the next record will chain from).
    pub fn head(&self) -> &str {
        self.open.last().map_or(self.base.as_str(), |r| &r.mac)
    }

    /// Verifies the open run: sequence continuity, linkage from the base,
    /// and every MAC. Returns the number of records checked.
    ///
    /// # Errors
    ///
    /// The first [`ChainFault`] encountered walking oldest-to-newest.
    pub fn verify(&self) -> Result<u64, ChainFault> {
        let first_seq = self.next_seq - self.open.len() as u64;
        let mut expected_prev = self.base.as_str();
        for (expected_seq, record) in (first_seq..).zip(self.open.iter()) {
            if record.seq != expected_seq {
                return Err(ChainFault::Sequence {
                    expected: expected_seq,
                    found: record.seq,
                });
            }
            if record.prev != expected_prev {
                return Err(ChainFault::Link { seq: record.seq });
            }
            if !matches(
                &record.mac,
                &record_mac(record.seq, &record.prev, &record.payload),
            ) {
                return Err(ChainFault::Mac { seq: record.seq });
            }
            expected_prev = &record.mac;
        }
        Ok(self.open.len() as u64)
    }

    /// Seals every full run of `cap` records into segments, advancing the
    /// chain's base and root lineage past them. Returns the segments in
    /// order; the caller owns archiving them.
    pub fn seal(&mut self, cap: usize) -> Vec<SealedSegment> {
        assert!(cap > 0, "segment capacity must be positive");
        let mut out = Vec::new();
        while self.open.len() >= cap {
            out.push(self.seal_run(cap));
        }
        out
    }

    /// Seals the whole open run, however short, into one segment (`None`
    /// when nothing is open): a checkpoint's way of making every record
    /// appended so far durable without waiting for a full segment.
    pub fn seal_open(&mut self) -> Option<SealedSegment> {
        (!self.open.is_empty()).then(|| self.seal_run(self.open.len()))
    }

    /// Seals the oldest `len` open records (`0 < len <= open.len()`).
    fn seal_run(&mut self, len: usize) -> SealedSegment {
        let records: Vec<ChainedRecord> = self.open.drain(..len).collect();
        let first = &records[0];
        let last = records.last().expect("len > 0");
        let root = hex(&segment_root(
            first.seq,
            last.seq,
            &last.mac,
            &self.prev_root,
        ));
        self.base = last.mac.clone();
        self.sealed += 1;
        SealedSegment {
            first_seq: first.seq,
            last_seq: last.seq,
            prev_link: first.prev.clone(),
            prev_root: std::mem::replace(&mut self.prev_root, root.clone()),
            records,
            root,
        }
    }

    /// Resumes a recovered chain directly after an archived segment: new
    /// appends continue its sequence numbers, link, and root lineage.
    /// Unsealed pre-crash records are gone by definition — recovery
    /// re-journals replayed events instead of reconstructing them.
    pub fn resume_after(&mut self, segment: &SealedSegment) {
        self.base = segment
            .records
            .last()
            .map_or_else(|| segment.prev_link.clone(), |r| r.mac.clone());
        self.prev_root = segment.root.clone();
        self.next_seq = segment.last_seq + 1;
        self.open.clear();
        self.sealed = 0;
    }

    /// Verifies an ordered archive of sealed segments *and* its continuity
    /// with this live chain: each segment internally, root/link lineage
    /// between segments, and that the newest segment is exactly what this
    /// chain resumed from (so deleting archive tails is detected too).
    /// Returns the total number of records checked.
    ///
    /// # Errors
    ///
    /// The first [`ChainFault`] encountered, oldest segment first.
    pub fn verify_archive(&self, segments: &[SealedSegment]) -> Result<u64, ChainFault> {
        let mut checked = 0u64;
        let mut expected_first = 0u64;
        let (genesis_link, genesis_root) = (genesis_link(), genesis_root());
        let mut expected_link = genesis_link.as_str();
        let mut expected_root = genesis_root.as_str();
        for segment in segments {
            if segment.first_seq != expected_first {
                return Err(ChainFault::Sequence {
                    expected: expected_first,
                    found: segment.first_seq,
                });
            }
            if segment.prev_link != expected_link {
                return Err(ChainFault::Link {
                    seq: segment.first_seq,
                });
            }
            if segment.prev_root != expected_root {
                return Err(ChainFault::Root {
                    first_seq: segment.first_seq,
                });
            }
            checked += verify_segment(segment)?;
            expected_first = segment.last_seq + 1;
            expected_link = &segment
                .records
                .last()
                .expect("verified segment is non-empty")
                .mac;
            expected_root = &segment.root;
        }
        // The live chain must take over exactly where the archive ends.
        let first_open = self.next_seq - self.open.len() as u64;
        if expected_first != first_open {
            return Err(ChainFault::Sequence {
                expected: expected_first,
                found: first_open,
            });
        }
        if self.base != expected_link {
            return Err(ChainFault::Link { seq: first_open });
        }
        if self.prev_root != expected_root {
            return Err(ChainFault::Root {
                first_seq: expected_first,
            });
        }
        Ok(checked)
    }
}

/// Verifies one sealed segment in isolation: bounds, linkage, MACs, root.
/// Returns the number of records checked.
///
/// # Errors
///
/// The first [`ChainFault`] encountered walking the segment.
pub fn verify_segment(segment: &SealedSegment) -> Result<u64, ChainFault> {
    let Some(first) = segment.records.first() else {
        return Err(ChainFault::Root {
            first_seq: segment.first_seq,
        });
    };
    if first.seq != segment.first_seq {
        return Err(ChainFault::Sequence {
            expected: segment.first_seq,
            found: first.seq,
        });
    }
    let mut expected_prev = segment.prev_link.as_str();
    for (expected_seq, record) in (segment.first_seq..).zip(segment.records.iter()) {
        if record.seq != expected_seq {
            return Err(ChainFault::Sequence {
                expected: expected_seq,
                found: record.seq,
            });
        }
        if record.prev != expected_prev {
            return Err(ChainFault::Link { seq: record.seq });
        }
        if !matches(
            &record.mac,
            &record_mac(record.seq, &record.prev, &record.payload),
        ) {
            return Err(ChainFault::Mac { seq: record.seq });
        }
        expected_prev = &record.mac;
    }
    let last = segment.records.last().expect("non-empty");
    if last.seq != segment.last_seq {
        return Err(ChainFault::Sequence {
            expected: segment.last_seq,
            found: last.seq,
        });
    }
    if !matches(
        &segment.root,
        &segment_root(
            segment.first_seq,
            segment.last_seq,
            &last.mac,
            &segment.prev_root,
        ),
    ) {
        return Err(ChainFault::Root {
            first_seq: segment.first_seq,
        });
    }
    Ok(segment.records.len() as u64)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The MAC input joined with `format!` and MACed in one piece: the
    /// reference the parted feeds must match byte for byte.
    fn joined_mac(input: &str) -> [u8; 32] {
        HmacKey::new(&sha256(b"tippers/audit-chain/mac-key/v1")).mac_parts(&[input.as_bytes()])
    }

    proptest! {
        #[test]
        fn parted_macs_equal_the_joined_reference(
            seq in any::<u64>(),
            last_seq in any::<u64>(),
            seed in any::<u64>(),
            text in proptest::collection::vec(32u8..127, 0..300),
        ) {
            let payload = String::from_utf8(text).expect("printable ASCII");
            let prev = hex(&sha256(&seed.to_le_bytes()));
            let root = hex(&sha256(&seed.to_be_bytes()));
            prop_assert_eq!(
                record_mac(seq, &prev, &payload),
                joined_mac(&format!("{seq:016x}:{prev}:{payload}"))
            );
            prop_assert_eq!(
                segment_root(seq, last_seq, &prev, &root),
                joined_mac(&format!("seal:{seq:016x}:{last_seq:016x}:{prev}:{root}"))
            );
        }
    }

    fn chain_with(n: usize) -> AuditChain {
        let mut chain = AuditChain::new();
        for i in 0..n {
            chain.append(format!("{{\"event\":{i}}}"));
        }
        chain
    }

    #[test]
    fn appends_verify_clean() {
        let chain = chain_with(10);
        assert_eq!(chain.verify().unwrap(), 10);
        assert_eq!(chain.next_seq(), 10);
    }

    #[test]
    fn any_mutation_drop_or_swap_is_detected() {
        let n = 12;
        for i in 0..n {
            // Mutate record i's payload.
            let mut chain = chain_with(n);
            chain.open[i].payload = "{\"event\":\"forged\"}".to_owned();
            assert!(chain.verify().is_err(), "mutation at {i} undetected");

            // Drop record i.
            let mut chain = chain_with(n);
            chain.open.remove(i);
            assert!(chain.verify().is_err(), "drop at {i} undetected");
        }
        for i in 0..n - 1 {
            let mut chain = chain_with(n);
            chain.open.swap(i, i + 1);
            assert!(chain.verify().is_err(), "swap at {i} undetected");
        }
    }

    #[test]
    fn sealing_advances_lineage_and_archive_verifies() {
        let mut chain = chain_with(150);
        let segments = chain.seal(64);
        assert_eq!(segments.len(), 2);
        assert_eq!(chain.open_records().len(), 150 - 128);
        assert_eq!(chain.verify().unwrap(), 22);
        assert_eq!(chain.verify_archive(&segments).unwrap(), 128);
        // Segments chain into each other.
        assert_eq!(segments[1].prev_root, segments[0].root);
        assert_eq!(
            segments[1].prev_link,
            segments[0].records.last().unwrap().mac
        );
    }

    #[test]
    fn archive_tampering_is_detected() {
        let mut chain = chain_with(200);
        let segments = chain.seal(64);
        assert_eq!(segments.len(), 3);
        assert!(chain.verify_archive(&segments).is_ok());

        // Bit-flip a payload deep inside a sealed segment.
        let mut forged = segments.clone();
        forged[1].records[10].payload.push('x');
        assert!(matches!(
            chain.verify_archive(&forged),
            Err(ChainFault::Mac { .. })
        ));

        // Drop a middle segment.
        let mut missing = segments.clone();
        missing.remove(1);
        assert!(chain.verify_archive(&missing).is_err());

        // Drop the newest segment: the live chain no longer lines up.
        let mut truncated = segments.clone();
        truncated.pop();
        assert!(chain.verify_archive(&truncated).is_err());

        // Reorder segments.
        let mut reordered = segments.clone();
        reordered.swap(0, 1);
        assert!(chain.verify_archive(&reordered).is_err());

        // Re-root a segment to hide a lineage break.
        let mut rerooted = segments;
        rerooted[2].prev_root = genesis_root();
        assert!(matches!(
            chain.verify_archive(&rerooted),
            Err(ChainFault::Root { .. })
        ));
    }

    #[test]
    fn sealing_the_open_run_early_keeps_the_lineage() {
        let mut chain = chain_with(70);
        let mut segments = chain.seal(64);
        segments.extend(chain.seal_open());
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[1].records.len(), 6);
        assert!(chain.seal_open().is_none(), "nothing left to seal");
        chain.append("{\"event\":\"after\"}".to_owned());
        segments.extend(chain.seal_open());
        assert_eq!(chain.sealed_segments(), 3);
        assert_eq!(chain.verify_archive(&segments).unwrap(), 71);

        let mut recovered = AuditChain::new();
        recovered.resume_after(&segments[2]);
        assert_eq!(recovered.next_seq(), 71);
        assert_eq!(recovered.verify_archive(&segments).unwrap(), 71);
    }

    #[test]
    fn resume_continues_sequence_and_lineage() {
        let mut chain = chain_with(64);
        let segments = chain.seal(64);
        assert_eq!(segments.len(), 1);

        let mut recovered = AuditChain::new();
        recovered.resume_after(&segments[0]);
        assert_eq!(recovered.next_seq(), 64);
        recovered.append("{\"event\":\"post-crash\"}".to_owned());
        assert_eq!(recovered.verify().unwrap(), 1);
        assert_eq!(recovered.verify_archive(&segments).unwrap(), 64);
    }

    #[test]
    fn sealed_segments_round_trip_serde() {
        let mut chain = chain_with(64);
        let segment = chain.seal(64).remove(0);
        let json = serde_json::to_string(&segment).unwrap();
        let back: SealedSegment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, segment);
        assert_eq!(verify_segment(&back).unwrap(), 64);
    }
}
