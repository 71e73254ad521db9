//! Crash-consistent durability for the BMS: an append-only,
//! CRC32-checksummed, length-prefixed write-ahead log over `Tippers`
//! mutations, with segment rotation and snapshot-anchored compaction.
//!
//! The paper's TIPPERS component is the system of record for captured
//! observations and user privacy settings — a lost privacy setting
//! silently reverts a user to default data collection, the exact harm
//! the framework exists to prevent. This module makes that state
//! durable and provably recoverable:
//!
//! * every public mutation appends one checksummed [`WalRecord`] and is
//!   synced before the call returns — a record boundary *is* a
//!   durability boundary;
//! * [`Tippers::checkpoint`](crate::Tippers::checkpoint) writes a
//!   full-state [`WalRecord::Checkpoint`] into a fresh segment and drops
//!   the older segments (compaction anchored on the snapshot);
//! * [`Tippers::open`](crate::Tippers::open) replays checkpoint + tail,
//!   and truncates at the first corrupt or torn record — counted in the
//!   [`RecoveryReport`], never silently accepted, never an error that
//!   strands the log.
//!
//! All I/O is routed through [`LogIo`], so every failure a disk can
//! produce is injectable via the fault plane ([`FaultyLog`]): torn
//! appends, flipped bits, dropped syncs, failed segment renames.

mod frame;
mod invalidate;
mod io;
mod record;

use std::fmt;

pub use frame::{crc32, record_boundaries, Corruption};
pub use invalidate::SettingsMutation;
pub use io::{FaultyLog, FsLog, LogIo, MemLog};
pub use record::WalRecord;

use serde::Serialize as _;
use tippers_resilience::{FaultPlan, FaultPoint};

use crate::snapshot::SnapshotError;

/// Write-ahead-log tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes (rotation bounds per-segment replay and loss-on-corruption).
    pub segment_max_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 1 << 20,
        }
    }
}

/// Why a write-ahead-log operation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// The storage backend failed.
    Io(std::io::Error),
    /// A recovered record could not be applied — the log and the code
    /// replaying it disagree about semantics, which is never safe to
    /// paper over.
    Replay(String),
    /// A checkpoint's snapshot failed validation on recovery.
    Snapshot(SnapshotError),
    /// A checkpoint could not be published; the previous segments remain
    /// authoritative and the log keeps working.
    Checkpoint(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "write-ahead log I/O failed: {e}"),
            WalError::Replay(detail) => write!(f, "write-ahead log replay failed: {detail}"),
            WalError::Snapshot(e) => write!(f, "checkpoint snapshot rejected: {e}"),
            WalError::Checkpoint(detail) => write!(f, "checkpoint not published: {detail}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        WalError::Snapshot(e)
    }
}

/// What recovery found and did while opening a log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records replayed into the recovered BMS.
    pub records_replayed: u64,
    /// Corrupt/torn-tail truncation events (0 on a clean log). Anything
    /// non-zero means bytes were rejected — audited here, never silently
    /// accepted.
    pub truncated_tails: u64,
    /// Bytes discarded by truncation and by dropping post-corruption
    /// segments.
    pub bytes_discarded: u64,
    /// Whole segments discarded because they followed a corruption.
    pub segments_discarded: u64,
    /// Leftover checkpoint temp files discarded (a crash between
    /// checkpoint prepare and publish).
    pub tmp_segments_discarded: u64,
    /// Human-readable description of the first corruption, if any.
    pub corruption: Option<String>,
}

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:010}.log")
}

/// A record as one log frame, serialized straight into the frame buffer.
fn encode(record: &WalRecord) -> Vec<u8> {
    frame::encode_text(|out| record.write_json(out))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The outcome of one group-committed batch append
/// ([`Wal::append_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitReport {
    /// Records handed to the batch (each one its own checksummed frame, so
    /// recovery stays exact at every intra-batch record boundary).
    pub records: usize,
    /// Whether the amortized fsync completed. `false` means the sync
    /// stalled past its budget (injected via
    /// [`FaultPoint::GroupCommitFsyncStall`]): the log rewinds the
    /// segment to its pre-batch length — no later sync can resurrect the
    /// frames — and the caller must treat the batch as unadmitted: drop
    /// and audit, never report stored.
    pub synced: bool,
}

/// The append-only, segmented, checksummed mutation log.
#[derive(Debug)]
pub struct Wal {
    io: Box<dyn LogIo>,
    config: WalConfig,
    /// Live segment sequence numbers, ascending; the last is current.
    live: Vec<u64>,
    /// The current segment's file name, kept beside `live`.
    current_name: String,
    current_len: u64,
    /// Records appended since open (single and batched).
    appended_records: u64,
    /// Syncs issued since open — `appended_records / syncs` is the
    /// group-commit amortization factor.
    syncs: u64,
}

impl Wal {
    /// Opens a log over a storage backend, recovering its intact record
    /// prefix. Corrupt or torn tails are truncated (and every segment
    /// after the corruption dropped), counted in the report; leftover
    /// checkpoint temp files are discarded.
    ///
    /// # Errors
    ///
    /// Only genuine backend I/O failures error; corruption never does.
    pub fn open(
        io: Box<dyn LogIo>,
        config: WalConfig,
    ) -> Result<(Wal, Vec<WalRecord>, RecoveryReport), WalError> {
        let mut wal = Wal {
            io,
            config,
            live: Vec::new(),
            current_name: String::new(),
            current_len: 0,
            appended_records: 0,
            syncs: 0,
        };
        let mut report = RecoveryReport::default();

        let mut seqs = Vec::new();
        for name in wal.io.list()? {
            if name.ends_with(".tmp") {
                // A checkpoint that was prepared but never published; the
                // rename is the commit point, so this is dead weight.
                wal.io.remove(&name)?;
                report.tmp_segments_discarded += 1;
            } else if let Some(seq) = parse_segment_name(&name) {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();

        // A missing middle segment (a crash can vaporize a whole file
        // whose sync never landed while later files survive) orphans
        // everything after it: those records' predecessors are gone, so
        // replaying them would fabricate a state no run ever had. Keep
        // only the contiguous leading run.
        let contiguous = (1..seqs.len())
            .find(|&i| seqs[i] != seqs[i - 1] + 1)
            .unwrap_or(seqs.len());
        if contiguous < seqs.len() {
            report.truncated_tails += 1;
            report.corruption = Some(format!(
                "segment sequence gap after {}",
                segment_name(seqs[contiguous - 1])
            ));
            for &seq in &seqs[contiguous..] {
                let name = segment_name(seq);
                report.bytes_discarded += wal.io.read(&name)?.len() as u64;
                wal.io.remove(&name)?;
                report.segments_discarded += 1;
            }
            seqs.truncate(contiguous);
        }

        let mut records = Vec::new();
        let mut corrupted_at: Option<usize> = None;
        for (i, &seq) in seqs.iter().enumerate() {
            let name = segment_name(seq);
            let bytes = wal.io.read(&name)?;
            let decoded = frame::decode_segment(&bytes);
            let mut valid_len = decoded.valid_len;
            let mut corruption = decoded.corruption;
            let mut start = 0usize;
            for (payload, &end) in decoded.payloads.iter().zip(&decoded.boundaries) {
                match WalRecord::from_payload(payload) {
                    Some(record) => records.push(record),
                    None => {
                        // Checksum held but the content is foreign:
                        // truncate at this record's start, same as any
                        // other corruption.
                        valid_len = start;
                        corruption = Some(Corruption::Undecodable);
                        break;
                    }
                }
                start = end;
            }
            if let Some(reason) = corruption {
                report.truncated_tails += 1;
                report.bytes_discarded += (bytes.len() - valid_len) as u64;
                report
                    .corruption
                    .get_or_insert_with(|| format!("{reason} in {name} at byte {valid_len}"));
                wal.io.truncate(&name, valid_len as u64)?;
                wal.current_len = valid_len as u64;
                corrupted_at = Some(i);
                break;
            }
            wal.current_len = bytes.len() as u64;
        }
        if let Some(i) = corrupted_at {
            // Everything after a corruption is unordered garbage relative
            // to the truncated prefix; drop it rather than replay records
            // whose predecessors are gone.
            for &seq in &seqs[i + 1..] {
                let name = segment_name(seq);
                report.bytes_discarded += wal.io.read(&name)?.len() as u64;
                wal.io.remove(&name)?;
                report.segments_discarded += 1;
            }
            seqs.truncate(i + 1);
        }
        if seqs.is_empty() {
            seqs.push(1);
            wal.current_len = 0;
        }
        wal.current_name = segment_name(*seqs.last().expect("pushed above when empty"));
        wal.live = seqs;
        report.records_replayed = records.len() as u64;
        Ok((wal, records, report))
    }

    fn current_seq(&self) -> u64 {
        *self
            .live
            .last()
            .expect("a log always has a current segment")
    }

    /// Makes segment `seq` the current one, appended to from offset `len`.
    fn set_current(&mut self, seq: u64, len: u64) {
        self.live.push(seq);
        self.current_name = segment_name(seq);
        self.current_len = len;
    }

    /// Rotates to a fresh segment when `incoming` more bytes would take
    /// a non-empty current one over [`WalConfig::segment_max_bytes`].
    fn rotate_for(&mut self, incoming: u64) {
        if self.current_len > 0 && self.current_len + incoming > self.config.segment_max_bytes {
            self.set_current(self.current_seq() + 1, 0);
        }
    }

    /// The current segment's file name (diagnostics, tests).
    pub fn current_segment(&self) -> String {
        self.current_name.clone()
    }

    /// Live segment file names, oldest first.
    pub fn segments(&self) -> Vec<String> {
        self.live.iter().map(|&s| segment_name(s)).collect()
    }

    /// Appends one record and syncs it — when this returns `Ok`, the
    /// record survives a crash. Rotates to a fresh segment when the
    /// current one is over [`WalConfig::segment_max_bytes`].
    ///
    /// # Errors
    ///
    /// Backend I/O failures (injected faults corrupt silently instead of
    /// erroring — they are caught by recovery's checksums, not here).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let bytes = encode(record);
        self.rotate_for(bytes.len() as u64);
        self.io.append(&self.current_name, &bytes)?;
        self.io.sync(&self.current_name)?;
        self.current_len += bytes.len() as u64;
        self.appended_records += 1;
        self.syncs += 1;
        Ok(())
    }

    /// Group-commits a batch: appends every record as its own checksummed
    /// frame, then issues a *single* sync for the whole batch — the fsync
    /// cost is amortized across the batch while recovery stays exact at
    /// every record boundary (each frame is atomic under its CRC, and a
    /// crash between frames recovers the intact prefix).
    ///
    /// Two capture-path faults are consulted on `plan`:
    ///
    /// * [`FaultPoint::IngestBatchTorn`] — only a prefix of the batch's
    ///   frames reaches the log, the last of them cut mid-frame. Silent,
    ///   like a real crash cut: only recovery sees it, and recovery keeps
    ///   each surviving record atomic.
    /// * [`FaultPoint::GroupCommitFsyncStall`] — the amortized sync never
    ///   completes. Reported via [`GroupCommitReport::synced`]`== false`
    ///   (a real stall is a timeout, which *is* observable): the caller
    ///   must treat the batch as unadmitted and drop-and-audit it. The
    ///   log rewinds the segment to its pre-batch length, so the
    ///   unproven frames can never become durable via a later batch's
    ///   sync and contradict that audit trail.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    pub fn append_batch(
        &mut self,
        records: &[WalRecord],
        plan: &FaultPlan,
    ) -> Result<GroupCommitReport, WalError> {
        if records.is_empty() {
            return Ok(GroupCommitReport {
                records: 0,
                synced: true,
            });
        }
        let frames: Vec<Vec<u8>> = records.iter().map(encode).collect();
        let total: u64 = frames.iter().map(|f| f.len() as u64).sum();
        // The whole batch lands in one segment (rotate up front if the
        // current one is full), so a batch never straddles a segment
        // boundary and recovery's per-segment scan sees it contiguously.
        self.rotate_for(total);
        let name = &self.current_name;
        let pre_len = self.current_len;
        let torn = plan.should_fail(FaultPoint::IngestBatchTorn);
        let surviving = if torn {
            let param = plan.param(FaultPoint::IngestBatchTorn);
            if param > 0 {
                (param as usize).min(frames.len() - 1)
            } else {
                frames.len() / 2
            }
        } else {
            frames.len()
        };
        for frame_bytes in &frames[..surviving] {
            self.io.append(name, frame_bytes)?;
            self.current_len += frame_bytes.len() as u64;
        }
        if torn {
            // Cut the next frame mid-record: recovery must truncate it
            // whole (all-out), never replay a partial row set.
            let cut = &frames[surviving][..frames[surviving].len() / 2];
            if !cut.is_empty() {
                self.io.append(name, cut)?;
                self.current_len += cut.len() as u64;
            }
        }
        if plan.should_fail(FaultPoint::GroupCommitFsyncStall) {
            // The sync stalled: the batch's durability cannot be proven,
            // and the caller will drop it as unadmitted. Fail closed in
            // the log too — rewind the segment to its pre-batch length so
            // a *later* batch's fsync can never quietly make these frames
            // durable and resurrect rows the audit trail says were
            // dropped.
            self.io.truncate(name, pre_len)?;
            self.current_len = pre_len;
            return Ok(GroupCommitReport {
                records: records.len(),
                synced: false,
            });
        }
        self.appended_records += surviving as u64;
        self.io.sync(name)?;
        self.syncs += 1;
        Ok(GroupCommitReport {
            records: records.len(),
            synced: true,
        })
    }

    /// Records appended since open (single and group-committed).
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Syncs issued since open; `appended_records() / sync_count()` is the
    /// group-commit amortization factor.
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Writes an immutable auxiliary blob (e.g. a sealed audit segment)
    /// into the log directory and syncs it, first discarding whatever an
    /// earlier failed write of the same name left. Archive files share the
    /// [`LogIo`] backend — and therefore its injectable failure modes —
    /// but are invisible to recovery's segment scan (non-`wal-*` names are
    /// skipped) and to checkpoint compaction (which removes only live log
    /// segments).
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    pub fn archive(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        assert!(
            parse_segment_name(name).is_none() && !name.ends_with(".tmp"),
            "archive names must not collide with log segments"
        );
        if self.io.durable_len(name).is_ok() {
            self.io.truncate(name, 0)?;
        }
        self.io.append(name, bytes)?;
        self.io.sync(name)?;
        Ok(())
    }

    /// Reads every archived blob whose name starts with `prefix`, sorted
    /// by name (archive names embed zero-padded sequence numbers, so name
    /// order is chain order).
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    pub fn archived(&self, prefix: &str) -> Result<Vec<(String, Vec<u8>)>, WalError> {
        let mut names: Vec<String> = self
            .io
            .list()?
            .into_iter()
            .filter(|n| n.starts_with(prefix))
            .collect();
        names.sort();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let bytes = self.io.read(&name)?;
            out.push((name, bytes));
        }
        Ok(out)
    }

    /// Publishes a checkpoint: writes `record` (which must carry the full
    /// durable state) into a fresh segment via a temp file, syncs and
    /// verifies it, atomically renames it live, then drops all older
    /// segments. On any failure the old segments remain authoritative.
    ///
    /// # Errors
    ///
    /// [`WalError::Checkpoint`] when the new segment could not be made
    /// durable or visible; the log keeps appending to the old segments.
    pub fn checkpoint(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let new_seq = self.current_seq() + 1;
        let tmp = format!("{}.tmp", segment_name(new_seq));
        let name = segment_name(new_seq);
        let bytes = encode(record);
        let _ = self.io.remove(&tmp); // stale leftover from a failed attempt
        self.io.append(&tmp, &bytes)?;
        self.io.sync(&tmp)?;
        // A dropped sync here would let us delete the only copy of the
        // state; verify durability before committing.
        if self.io.durable_len(&tmp).unwrap_or(0) != bytes.len() as u64 {
            let _ = self.io.remove(&tmp);
            return Err(WalError::Checkpoint(
                "checkpoint segment did not become durable (dropped sync)".into(),
            ));
        }
        if let Err(e) = self.io.rename(&tmp, &name) {
            let _ = self.io.remove(&tmp);
            return Err(WalError::Checkpoint(format!(
                "checkpoint segment rename failed: {e}"
            )));
        }
        // Rename is the commit point: from here the anchor is durable,
        // and older segments are superseded. A crash mid-removal leaves
        // stale segments that replay harmlessly (the checkpoint record
        // resets state).
        let old: Vec<u64> = self.live.drain(..).collect();
        self.set_current(new_seq, bytes.len() as u64);
        for seq in old {
            let _ = self.io.remove(&segment_name(seq));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_policy::{PolicyId, Timestamp};

    fn open_mem(mem: &MemLog, max: u64) -> (Wal, Vec<WalRecord>, RecoveryReport) {
        Wal::open(
            Box::new(mem.clone()),
            WalConfig {
                segment_max_bytes: max,
            },
        )
        .expect("open")
    }

    fn sample(i: u64) -> WalRecord {
        WalRecord::RemovePolicy {
            policy: PolicyId(i),
        }
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let mem = MemLog::new();
        let (mut wal, records, report) = open_mem(&mem, 1 << 20);
        assert!(records.is_empty());
        assert_eq!(report, RecoveryReport::default());
        for i in 0..5 {
            wal.append(&sample(i)).unwrap();
        }
        drop(wal);
        mem.crash();
        let (_, records, report) = open_mem(&mem, 1 << 20);
        assert_eq!(records.len(), 5);
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.truncated_tails, 0);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(*r, sample(i as u64));
        }
    }

    #[test]
    fn segments_rotate_and_replay_across_files() {
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 64);
        for i in 0..20 {
            wal.append(&sample(i)).unwrap();
        }
        assert!(wal.segments().len() > 1, "rotation must have happened");
        drop(wal);
        let (_, records, _) = open_mem(&mem, 64);
        assert_eq!(records.len(), 20);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 1 << 20);
        for i in 0..3 {
            wal.append(&sample(i)).unwrap();
        }
        let name = wal.current_segment();
        drop(wal);
        let bytes = mem.file_bytes(&name).unwrap();
        mem.set_file(&name, bytes[..bytes.len() - 3].to_vec());
        let (wal, records, report) = open_mem(&mem, 1 << 20);
        assert_eq!(records.len(), 2, "the torn final record is dropped");
        assert_eq!(report.truncated_tails, 1);
        assert!(report.bytes_discarded > 0);
        assert!(report.corruption.as_deref().unwrap().contains("torn"));
        // The file was physically truncated to the valid prefix.
        let healed = mem.file_bytes(&wal.current_segment()).unwrap();
        assert_eq!(frame::decode_segment(&healed).corruption, None);
    }

    #[test]
    fn corruption_drops_later_segments_too() {
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 64);
        for i in 0..20 {
            wal.append(&sample(i)).unwrap();
        }
        let first = wal.segments()[0].clone();
        let n_segments = wal.segments().len();
        assert!(n_segments > 2);
        drop(wal);
        let mut bytes = mem.file_bytes(&first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        mem.set_file(&first, bytes);
        let (wal, records, report) = open_mem(&mem, 64);
        assert!(records.len() < 20);
        assert_eq!(report.truncated_tails, 1);
        assert_eq!(report.segments_discarded as usize, n_segments - 1);
        assert_eq!(wal.segments().len(), 1);
        // Replayed records are exactly the intact prefix.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(*r, sample(i as u64));
        }
    }

    #[test]
    fn checkpoint_compacts_and_recovers() {
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 64);
        for i in 0..10 {
            wal.append(&sample(i)).unwrap();
        }
        assert!(wal.segments().len() > 1);
        wal.checkpoint(&sample(99)).unwrap();
        assert_eq!(wal.segments().len(), 1, "older segments compacted away");
        wal.append(&sample(100)).unwrap();
        drop(wal);
        let (_, records, report) = open_mem(&mem, 64);
        assert_eq!(records, vec![sample(99), sample(100)]);
        assert_eq!(report.truncated_tails, 0);
    }

    #[test]
    fn failed_checkpoint_rename_keeps_old_segments_authoritative() {
        use tippers_resilience::{FaultPlan, FaultPoint};
        let mem = MemLog::new();
        let plan = FaultPlan::seeded(5);
        let (mut wal, _, _) = Wal::open(
            Box::new(FaultyLog::new(mem.clone(), plan.clone())),
            WalConfig::default(),
        )
        .unwrap();
        for i in 0..4 {
            wal.append(&sample(i)).unwrap();
        }
        plan.arm_limited(FaultPoint::WalSegmentRename, 1.0, 1);
        let err = wal.checkpoint(&sample(99)).unwrap_err();
        assert!(matches!(err, WalError::Checkpoint(_)));
        // The log keeps working and nothing was lost.
        wal.append(&sample(4)).unwrap();
        drop(wal);
        let (_, records, report) = open_mem(&mem, 1 << 20);
        assert_eq!(records.len(), 5);
        assert_eq!(report.tmp_segments_discarded, 0, "tmp was cleaned up");
    }

    #[test]
    fn dropped_checkpoint_sync_is_detected_before_compaction() {
        use tippers_resilience::{FaultPlan, FaultPoint};
        let mem = MemLog::new();
        let plan = FaultPlan::seeded(6);
        let (mut wal, _, _) = Wal::open(
            Box::new(FaultyLog::new(mem.clone(), plan.clone())),
            WalConfig::default(),
        )
        .unwrap();
        for i in 0..4 {
            wal.append(&sample(i)).unwrap();
        }
        plan.arm(FaultPoint::WalSyncDrop, 1.0);
        let err = wal.checkpoint(&sample(99)).unwrap_err();
        assert!(matches!(err, WalError::Checkpoint(_)));
        plan.disarm(FaultPoint::WalSyncDrop);
        drop(wal);
        mem.crash();
        let (_, records, _) = open_mem(&mem, 1 << 20);
        assert_eq!(
            records.len(),
            4,
            "no record was lost to the failed checkpoint"
        );
    }

    #[test]
    fn segment_sequence_gap_drops_orphaned_tail() {
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 64);
        for i in 0..20 {
            wal.append(&sample(i)).unwrap();
        }
        let segments = wal.segments();
        assert!(segments.len() > 2);
        drop(wal);
        // Lose a middle segment wholesale (its sync never landed and the
        // crash removed the file) while later segments survive.
        let gap = &segments[1];
        let orphans: usize = segments[2..]
            .iter()
            .map(|n| mem.file_bytes(n).unwrap().len())
            .sum();
        let raw = MemLog::new();
        for name in mem.file_names() {
            if name != *gap {
                raw.set_file(&name, mem.file_bytes(&name).unwrap());
            }
        }
        let (wal, records, report) = open_mem(&raw, 64);
        assert_eq!(wal.segments().len(), 1, "only the leading run survives");
        assert_eq!(report.truncated_tails, 1);
        assert_eq!(report.segments_discarded as usize, segments.len() - 2);
        assert_eq!(report.bytes_discarded as usize, orphans);
        assert!(report.corruption.as_deref().unwrap().contains("gap"));
        // Replayed records are exactly the first segment's prefix.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(*r, sample(i as u64));
        }
    }

    #[test]
    fn group_commit_amortizes_sync_and_replays_in_order() {
        use tippers_resilience::FaultPlan;
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 1 << 20);
        let batch: Vec<WalRecord> = (0..8).map(sample).collect();
        let report = wal.append_batch(&batch, &FaultPlan::disarmed()).unwrap();
        assert_eq!(report.records, 8);
        assert!(report.synced);
        assert_eq!(wal.appended_records(), 8);
        assert_eq!(wal.sync_count(), 1, "one fsync for the whole batch");
        drop(wal);
        mem.crash();
        let (_, records, report) = open_mem(&mem, 1 << 20);
        assert_eq!(records, batch);
        assert_eq!(report.truncated_tails, 0);
    }

    #[test]
    fn torn_batch_recovers_the_intact_record_prefix() {
        use tippers_resilience::{FaultPlan, FaultPoint};
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 1 << 20);
        let plan = FaultPlan::seeded(9);
        plan.arm_with_param(FaultPoint::IngestBatchTorn, 1.0, 3);
        let batch: Vec<WalRecord> = (0..8).map(sample).collect();
        wal.append_batch(&batch, &plan).unwrap();
        assert_eq!(plan.injected(FaultPoint::IngestBatchTorn), 1);
        drop(wal);
        mem.crash();
        let (_, records, report) = open_mem(&mem, 1 << 20);
        // Three full frames survived the tear; the cut fourth frame is
        // dropped whole — a record is all-in or all-out.
        assert_eq!(records, batch[..3].to_vec());
        assert_eq!(report.truncated_tails, 1);
        assert!(report.bytes_discarded > 0);
    }

    #[test]
    fn stalled_group_commit_sync_loses_the_batch_on_crash() {
        use tippers_resilience::{FaultPlan, FaultPoint};
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 1 << 20);
        wal.append(&sample(0)).unwrap();
        let plan = FaultPlan::seeded(4);
        plan.arm_limited(FaultPoint::GroupCommitFsyncStall, 1.0, 1);
        let batch: Vec<WalRecord> = (1..5).map(sample).collect();
        let report = wal.append_batch(&batch, &plan).unwrap();
        assert!(!report.synced, "the stall must be reported to the caller");
        drop(wal);
        mem.crash();
        let (_, records, _) = open_mem(&mem, 1 << 20);
        assert_eq!(
            records,
            vec![sample(0)],
            "the unsynced batch vanishes wholesale"
        );
    }

    #[test]
    fn stalled_batch_is_never_resurrected_by_a_later_sync() {
        use tippers_resilience::{FaultPlan, FaultPoint};
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 1 << 20);
        wal.append(&sample(0)).unwrap();
        let plan = FaultPlan::seeded(4);
        plan.arm_limited(FaultPoint::GroupCommitFsyncStall, 1.0, 1);
        let stalled: Vec<WalRecord> = (1..5).map(sample).collect();
        assert!(!wal.append_batch(&stalled, &plan).unwrap().synced);
        // A later batch commits successfully — its fsync must not drag
        // the rewound, unadmitted frames into durability with it.
        let committed: Vec<WalRecord> = (5..7).map(sample).collect();
        assert!(wal.append_batch(&committed, &plan).unwrap().synced);
        drop(wal);
        let (_, records, report) = open_mem(&mem, 1 << 20);
        assert_eq!(records, vec![sample(0), sample(5), sample(6)]);
        assert_eq!(report.truncated_tails, 0, "the rewind leaves no garbage");
    }

    #[test]
    fn group_commit_rotates_before_the_batch_not_inside_it() {
        use tippers_resilience::FaultPlan;
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 64);
        for i in 0..3 {
            wal.append(&sample(i)).unwrap();
        }
        let before = wal.segments().len();
        let batch: Vec<WalRecord> = (3..9).map(sample).collect();
        wal.append_batch(&batch, &FaultPlan::disarmed()).unwrap();
        assert_eq!(
            wal.segments().len(),
            before + 1,
            "the batch opened one fresh segment and stayed in it"
        );
        drop(wal);
        let (_, records, _) = open_mem(&mem, 64);
        assert_eq!(records.len(), 9);
    }

    #[test]
    fn gc_now_record_round_trips_through_log() {
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 1 << 20);
        let record = WalRecord::Gc {
            now: Timestamp(777),
        };
        wal.append(&record).unwrap();
        drop(wal);
        let (_, records, _) = open_mem(&mem, 1 << 20);
        assert_eq!(records, vec![record]);
    }

    #[test]
    fn archive_blobs_survive_recovery_and_checkpoint() {
        let mem = MemLog::new();
        let (mut wal, _, _) = open_mem(&mem, 1 << 20);
        wal.append(&sample(1)).unwrap();
        wal.archive("audit-0000000000.seg", b"sealed segment zero")
            .unwrap();
        wal.archive("audit-0000000064.seg", b"sealed segment one")
            .unwrap();

        // Invisible to the recovery scan: reopening replays only records.
        drop(wal);
        let (mut wal, records, report) = open_mem(&mem, 1 << 20);
        assert_eq!(records.len(), 1);
        assert_eq!(report.truncated_tails, 0);

        // Checkpoint compaction removes only live wal segments.
        let snapshot = crate::Tippers::new(
            tippers_ontology::Ontology::standard(),
            tippers_spatial::fixtures::dbh().model,
            crate::TippersConfig::default(),
        )
        .snapshot();
        wal.checkpoint(&WalRecord::Checkpoint {
            snapshot,
            policies: Vec::new(),
            next_policy_id: 0,
        })
        .unwrap();
        let archived = wal.archived("audit-").unwrap();
        assert_eq!(
            archived.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            ["audit-0000000000.seg", "audit-0000000064.seg"],
            "archive ordering is name order"
        );
        assert_eq!(archived[0].1, b"sealed segment zero");
    }
}
