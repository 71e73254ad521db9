//! One replication peer: a full BMS over its own in-memory log, plus the
//! frame metadata replication needs (contiguous durable prefix,
//! out-of-order buffer, liveness and fencing flags).

use std::collections::BTreeMap;

use tippers_ontology::Ontology;
use tippers_sensors::Occupant;
use tippers_spatial::SpatialModel;

use super::link::{Ack, Frame};
use crate::tippers::{Tippers, TippersConfig};
use crate::wal::{MemLog, Wal, WalConfig, WalError, WalRecord};

pub(super) struct Node {
    pub(super) id: usize,
    /// The node's durable log; `bms` writes through it, crash/restart
    /// preserve it.
    pub(super) log: MemLog,
    pub(super) bms: Tippers,
    /// The contiguous durable frame prefix (frame `i` sits at index `i`).
    pub(super) frames: Vec<Frame>,
    /// Out-of-order frames waiting for the gap before them to fill.
    pub(super) pending: BTreeMap<u64, Frame>,
    /// Virtual time of the last primary contact (frames or heartbeat);
    /// staleness-bounded reads compare against this.
    pub(super) last_contact_ms: i64,
    pub(super) down: bool,
    /// Highest epoch this node has *heard of* from any peer contact —
    /// Raft's `currentTerm`. A node fences senders older than this even
    /// before it durably applies the corresponding `NewEpoch` frame
    /// (otherwise a dropped fence frame would let a deposed primary
    /// commit a split-brain write through an uninformed replica).
    pub(super) seen_epoch: u64,
    /// Whether this node currently believes it is the leader (set at
    /// promotion, cleared the moment any peer contact carries a newer
    /// epoch — a deposed primary that has caught up as a replica knows
    /// it must not originate writes at the epoch it merely follows).
    pub(super) is_leader: bool,
    /// A newer epoch fenced this node's shipping: it must stop
    /// acknowledging its own writes.
    pub(super) fenced: bool,
    /// This node holds a frame that conflicts with one the current
    /// primary shipped — a divergent branch awaiting state transfer.
    pub(super) diverged: bool,
    /// Writes this node rejected because it was fenced or divergent.
    pub(super) split_brain_writes: u64,
}

impl Node {
    /// Boots a fresh node: empty log, registered occupants, record tap
    /// enabled. The tap also keeps request-path override notices out of
    /// the node's notifications, so its replicated state is a pure
    /// function of its record sequence; the decisions it serves are
    /// journaled on its own audit chain.
    pub(super) fn open(
        id: usize,
        ontology: &Ontology,
        model: &SpatialModel,
        config: &TippersConfig,
        occupants: &[Occupant],
    ) -> Result<Node, WalError> {
        let log = MemLog::new();
        let bms = Node::reopen(&log, ontology, model, config, occupants)?;
        Ok(Node {
            id,
            log,
            bms,
            frames: Vec::new(),
            pending: BTreeMap::new(),
            last_contact_ms: 0,
            seen_epoch: 0,
            is_leader: false,
            down: false,
            fenced: false,
            diverged: false,
            split_brain_writes: 0,
        })
    }

    fn reopen(
        log: &MemLog,
        ontology: &Ontology,
        model: &SpatialModel,
        config: &TippersConfig,
        occupants: &[Occupant],
    ) -> Result<Tippers, WalError> {
        let (mut bms, _report) = Tippers::open_with(
            Box::new(log.clone()),
            ontology.clone(),
            model.clone(),
            config.clone(),
        )?;
        bms.register_occupants(occupants);
        bms.enable_record_tap();
        Ok(bms)
    }

    pub(super) fn epoch(&self) -> u64 {
        self.bms.replication_epoch()
    }

    /// The epoch this node fences against: the greater of what it has
    /// durably applied and what it has heard of.
    pub(super) fn fencing_epoch(&self) -> u64 {
        self.epoch().max(self.seen_epoch)
    }

    /// Length of the contiguous durable frame prefix.
    pub(super) fn durable_index(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Applies one frame: records it through the BMS (durable + applied)
    /// and appends it to the frame prefix.
    fn apply(&mut self, frame: Frame) -> Result<(), WalError> {
        self.bms.record_and_log(frame.record.clone())?;
        self.bms.drain_record_tap();
        self.frames.push(frame);
        Ok(())
    }

    /// Raft's `AppendEntries` consistency check: a frame may extend this
    /// log only if the log's tail epoch equals the frame's `prev_epoch`.
    /// Because a `(epoch, index)` pair identifies a unique frame with a
    /// unique prefix, a matching tail proves this node's entire log is a
    /// prefix of the frame creator's history — without it, frame loss
    /// could delete the conflicting overlap and let a future-indexed
    /// trunk frame splice silently onto a stale branch.
    fn chains(&self, frame: &Frame) -> bool {
        match self.frames.last() {
            None => frame.prev_epoch == 0,
            Some(last) => last.epoch == frame.prev_epoch,
        }
    }

    /// Receives shipped frames from a peer claiming `sender_epoch`.
    ///
    /// A stale sender (older epoch than ours) is fenced: its frames are
    /// ignored and the ack tells it so. Otherwise frames are applied in
    /// index order, buffering out-of-order arrivals and detecting
    /// divergence (a conflicting frame at an index we already hold).
    pub(super) fn accept(
        &mut self,
        sender_epoch: u64,
        frames: Vec<Frame>,
        now_ms: i64,
    ) -> Result<Ack, WalError> {
        let mut fenced = false;
        let mut contacted = false;
        let mut matched = false;
        if sender_epoch < self.fencing_epoch() {
            fenced = true;
        } else {
            if sender_epoch > self.fencing_epoch() {
                self.is_leader = false;
            }
            self.seen_epoch = self.seen_epoch.max(sender_epoch);
            for frame in frames {
                contacted = true;
                let next = self.durable_index();
                if frame.index < next {
                    // A frame at an index we already hold. Identical: it
                    // re-proves our prefix up to that index is the
                    // sender's; at our tail it vouches our whole log.
                    // Conflicting: this node sits on a divergent branch
                    // (it keeps its own history — losing-branch
                    // truncation is the anti-entropy reconciler's job,
                    // not the hot path's).
                    if self.frames[frame.index as usize] != frame {
                        self.diverged = true;
                    } else if frame.index + 1 == next {
                        matched = true;
                    }
                    continue;
                }
                if frame.index > next {
                    self.pending.insert(frame.index, frame);
                    continue;
                }
                if !self.chains(&frame) {
                    // A stale cross-branch packet (reordered or from a
                    // superseded lineage): refuse the splice; retransmit
                    // of the true overlap will catch this node up or
                    // surface the divergence.
                    continue;
                }
                self.apply(frame)?;
                matched = true;
                while let Some(ready) = self.pending.remove(&self.durable_index()) {
                    if !self.chains(&ready) {
                        break;
                    }
                    self.apply(ready)?;
                }
            }
        }
        if contacted {
            self.last_contact_ms = now_ms;
        }
        Ok(Ack {
            node: self.id,
            epoch: self.epoch(),
            durable_index: self.durable_index(),
            matched,
            fenced,
            diverged: self.diverged,
            visible_at_ms: now_ms,
        })
    }

    /// Records a heartbeat contact from a peer claiming `sender_epoch`.
    pub(super) fn touch(&mut self, sender_epoch: u64, now_ms: i64) -> Ack {
        let fenced = sender_epoch < self.fencing_epoch();
        if !fenced {
            if sender_epoch > self.fencing_epoch() {
                self.is_leader = false;
            }
            self.seen_epoch = self.seen_epoch.max(sender_epoch);
            self.last_contact_ms = now_ms;
        }
        Ack {
            node: self.id,
            epoch: self.epoch(),
            durable_index: self.durable_index(),
            // A heartbeat carries no frames, so it cannot verify which
            // history this node's length refers to.
            matched: false,
            fenced,
            diverged: self.diverged,
            visible_at_ms: now_ms,
        }
    }

    /// Crashes the node: volatile state is gone; the log keeps only what
    /// was made durable.
    pub(super) fn crash(&mut self) {
        self.down = true;
        self.log.crash();
    }

    /// Restarts a crashed node from its durable log, reconstructing the
    /// frame prefix from the surviving records. Valid because replicas
    /// log every record from genesis (replication never compacts), so a
    /// record's log position *is* its frame index, and `NewEpoch`
    /// records recover the epoch each frame was shipped under.
    pub(super) fn restart(
        &mut self,
        ontology: &Ontology,
        model: &SpatialModel,
        config: &TippersConfig,
        occupants: &[Occupant],
        now_ms: i64,
    ) -> Result<(), WalError> {
        let (_, records, _) = Wal::open(
            Box::new(self.log.clone()),
            WalConfig {
                segment_max_bytes: config.wal_segment_max_bytes,
            },
        )?;
        let mut epoch = 0u64;
        let mut prev_epoch = 0u64;
        let mut frames = Vec::with_capacity(records.len());
        for (index, record) in records.into_iter().enumerate() {
            if let WalRecord::NewEpoch { epoch: e } = &record {
                epoch = epoch.max(*e);
            }
            frames.push(Frame {
                epoch,
                prev_epoch,
                index: index as u64,
                record,
            });
            prev_epoch = epoch;
        }
        self.bms = Node::reopen(&self.log, ontology, model, config, occupants)?;
        self.frames = frames;
        self.pending.clear();
        // `seen_epoch` is volatile (Raft persists currentTerm to guard
        // double-voting; here the external allocator never reuses an
        // epoch, so restarting at the applied epoch is safe).
        self.seen_epoch = self.bms.replication_epoch();
        // A restarted node never resumes leadership on its own; it must
        // be re-promoted by the coordination service.
        self.is_leader = false;
        self.fenced = false;
        self.diverged = false;
        self.down = false;
        self.last_contact_ms = now_ms;
        Ok(())
    }

    /// Full state transfer: discards the node's log (and any divergent
    /// suffix plus its node-local audit chain) and replays `history` from
    /// genesis.
    pub(super) fn rebuild(
        &mut self,
        history: &[Frame],
        ontology: &Ontology,
        model: &SpatialModel,
        config: &TippersConfig,
        occupants: &[Occupant],
        now_ms: i64,
    ) -> Result<(), WalError> {
        self.log = MemLog::new();
        self.bms = Node::reopen(&self.log, ontology, model, config, occupants)?;
        self.frames = Vec::new();
        self.pending.clear();
        for frame in history {
            self.apply(frame.clone())?;
        }
        self.seen_epoch = self.bms.replication_epoch();
        self.is_leader = false;
        self.fenced = false;
        self.diverged = false;
        self.down = false;
        self.last_contact_ms = now_ms;
        Ok(())
    }
}
