//! The replicated enforcement cluster: a primary shipping WAL frames to
//! deterministic replicas, quorum commit, epoch-fenced failover, and
//! post-partition settings anti-entropy.
//!
//! Every node runs the same BMS code over its own in-memory log; the
//! cluster harness moves frames between them over the fault-injectable
//! [`ReplicationLink`] and advances a shared [`VirtualClock`]. Nothing
//! here consults wall-clock time or an unseeded RNG, so a (seed, op
//! sequence) pair reproduces byte-identical histories.

use std::collections::BTreeMap;

use tippers_ontology::Ontology;
use tippers_policy::Timestamp;
use tippers_resilience::{FaultPlan, FaultPoint, VirtualClock, MILLIS_PER_SEC};
use tippers_sensors::Occupant;
use tippers_spatial::SpatialModel;

use super::link::{Ack, Frame, ReplicationLink};
use super::node::Node;
use super::settings::{divergent_choices, resolve, MergeWinner, VersionedChoice};
use crate::enforce::EnforcementDecision;
use crate::request::{DataRequest, DataResponse};
use crate::snapshot::Snapshot;
use crate::tippers::{Tippers, TippersConfig};
use crate::wal::{WalError, WalRecord};

/// Replication topology and staleness policy.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Total node count (primary + replicas).
    pub replicas: usize,
    /// Acknowledgements (including the primary's own durable append)
    /// required before a write is committed.
    pub quorum: usize,
    /// A replica serves reads only while its last primary contact is
    /// within this bound; beyond it, reads fail closed with
    /// [`crate::DecisionBasis::StaleReplica`].
    pub staleness_bound_ms: i64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicas: 3,
            quorum: 2,
            staleness_bound_ms: 5 * MILLIS_PER_SEC,
        }
    }
}

/// The outcome of a write submitted to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Durable on a quorum; the write survives any single failover.
    Committed {
        /// Global log index of the write's last record.
        index: u64,
    },
    /// Durable locally but not yet quorum-acknowledged; a failover may
    /// lose it (and the harness must not count it as committed).
    Pending {
        /// Global log index of the write's last record.
        index: u64,
    },
    /// The node is fenced (a newer epoch exists) or holds a divergent
    /// branch: the write was rejected and counted as a split-brain
    /// attempt.
    Fenced {
        /// The rejected node's epoch.
        epoch: u64,
    },
    /// The node is down.
    Unavailable,
    /// The mutation produced no WAL records (e.g. a no-op gc).
    NoOp,
}

/// What the post-heal anti-entropy pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Divergent setting choices folded into the primary history.
    pub merged: usize,
    /// Durable supersession notices issued to users whose divergent
    /// choice lost the merge.
    pub notices: usize,
    /// Nodes rebuilt by full state transfer from the primary history.
    pub rebuilt: Vec<usize>,
}

/// A deterministic replication cluster over one building's BMS state.
pub struct Cluster {
    nodes: Vec<Node>,
    primary: usize,
    config: ReplicationConfig,
    plan: FaultPlan,
    clock: VirtualClock,
    link: ReplicationLink,
    /// Highest durable index acknowledged per (shipper, node).
    acked: BTreeMap<(usize, usize), u64>,
    /// Acks whose visibility is delayed by [`FaultPoint::ReplAckDelay`],
    /// keyed by shipper.
    in_flight: Vec<(usize, Ack)>,
    /// The fencing-token allocator (models the coordination service that
    /// elects primaries); promotion takes `max(next_epoch, epoch + 1)`.
    next_epoch: u64,
    split_brain_rejections: u64,
    /// Shipping rounds issued (each round sends every peer its unacked
    /// suffix once) — the batching experiment's amortization witness.
    shipping_rounds: u64,
    ontology: Ontology,
    model: SpatialModel,
    tippers_config: TippersConfig,
    occupants: Vec<Occupant>,
}

impl Cluster {
    /// Boots `config.replicas` fresh nodes sharing `plan` and `clock`;
    /// node 0 starts as primary at epoch 1 (durably fenced via a
    /// [`WalRecord::NewEpoch`] before serving).
    ///
    /// # Errors
    ///
    /// Propagates WAL failures from the initial epoch fence.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: ReplicationConfig,
        plan: FaultPlan,
        clock: VirtualClock,
        ontology: Ontology,
        model: SpatialModel,
        mut tippers_config: TippersConfig,
        occupants: Vec<Occupant>,
    ) -> Result<Cluster, WalError> {
        assert!(config.replicas >= 1, "a cluster needs at least one node");
        assert!(
            config.quorum >= 1 && config.quorum <= config.replicas,
            "quorum must be within the replica set"
        );
        tippers_config.fault_plan = plan.clone();
        let mut nodes = Vec::with_capacity(config.replicas);
        for id in 0..config.replicas {
            nodes.push(Node::open(
                id,
                &ontology,
                &model,
                &tippers_config,
                &occupants,
            )?);
        }
        let link = ReplicationLink::new(plan.clone());
        let mut cluster = Cluster {
            nodes,
            primary: 0,
            config,
            plan,
            clock,
            link,
            acked: BTreeMap::new(),
            in_flight: Vec::new(),
            next_epoch: 1,
            split_brain_rejections: 0,
            shipping_rounds: 0,
            ontology,
            model,
            tippers_config,
            occupants,
        };
        cluster.promote(0)?;
        Ok(cluster)
    }

    /// The current primary's id.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// The current primary's epoch.
    pub fn epoch(&self) -> u64 {
        self.nodes[self.primary].epoch()
    }

    /// Writes the cluster has rejected because the receiving node was
    /// fenced or divergent (each is an audited split-brain attempt).
    pub fn split_brain_rejections(&self) -> u64 {
        self.split_brain_rejections
    }

    /// A node's epoch.
    pub fn node_epoch(&self, node: usize) -> u64 {
        self.nodes[node].epoch()
    }

    /// A node's contiguous durable frame count.
    pub fn durable_index(&self, node: usize) -> u64 {
        self.nodes[node].durable_index()
    }

    /// Whether a node is crashed.
    pub fn is_down(&self, node: usize) -> bool {
        self.nodes[node].down
    }

    /// Whether `node` can currently serve authoritative writes: alive,
    /// still believing itself leader, unfenced and undiverged. A driving
    /// harness promotes a fresh candidate when its primary loses this.
    pub fn is_authoritative(&self, node: usize) -> bool {
        let n = &self.nodes[node];
        !n.down && n.is_leader && !n.fenced && !n.diverged
    }

    /// Read-only access to a node's BMS (all mutation goes through
    /// [`Cluster::write_to`] so it is framed and shipped).
    pub fn node_bms(&self, node: usize) -> &Tippers {
        &self.nodes[node].bms
    }

    /// A node's durable frame history (for differential harnesses).
    pub fn frames(&self, node: usize) -> &[Frame] {
        &self.nodes[node].frames
    }

    /// A node's replicated-state snapshot (post-heal convergence is
    /// asserted by comparing these across nodes).
    pub fn snapshot(&self, node: usize) -> Snapshot {
        self.nodes[node].bms.snapshot()
    }

    /// Submits a mutation to `node` through `mutate`. On the live,
    /// unfenced primary the resulting WAL records are framed at the
    /// node's epoch, appended durably, and shipped to every reachable
    /// peer; the outcome reports whether a commit quorum acknowledged
    /// them. On a fenced or divergent node (a deposed primary that has
    /// not yet learned it) the write is rejected and audited as a
    /// split-brain attempt.
    ///
    /// # Errors
    ///
    /// Propagates WAL append failures.
    pub fn write_to(
        &mut self,
        node: usize,
        mutate: impl FnOnce(&mut Tippers),
    ) -> Result<WriteOutcome, WalError> {
        if self.nodes[node].down {
            return Ok(WriteOutcome::Unavailable);
        }
        if !self.nodes[node].is_leader || self.nodes[node].fenced || self.nodes[node].diverged {
            self.nodes[node].split_brain_writes += 1;
            self.split_brain_rejections += 1;
            return Ok(WriteOutcome::Fenced {
                epoch: self.nodes[node].epoch(),
            });
        }
        let epoch = self.nodes[node].epoch();
        mutate(&mut self.nodes[node].bms);
        let records = self.nodes[node].bms.drain_record_tap();
        if records.is_empty() {
            return Ok(WriteOutcome::NoOp);
        }
        for record in records {
            let index = self.nodes[node].durable_index();
            let prev_epoch = self.nodes[node].frames.last().map_or(0, |f| f.epoch);
            self.nodes[node].frames.push(Frame {
                epoch,
                prev_epoch,
                index,
                record,
            });
        }
        let index = self.nodes[node].durable_index() - 1;
        self.ship_from(node)?;
        if self.commit_len(node) > index {
            Ok(WriteOutcome::Committed { index })
        } else {
            Ok(WriteOutcome::Pending { index })
        }
    }

    /// Submits a whole *batch* of mutations to `node` as one pipelined
    /// shipping round: `mutate` is applied once per index in
    /// `0..mutations`, every resulting WAL record is framed in order, and
    /// the accumulated suffix ships to each peer *once* — instead of one
    /// ship per write as [`Cluster::write_to`] does. The ingest path uses
    /// this to replicate group-committed observation batches without
    /// paying a network round per record.
    ///
    /// Fencing and split-brain accounting are identical to
    /// [`Cluster::write_to`]; the batch is rejected whole on a fenced or
    /// divergent node.
    ///
    /// # Errors
    ///
    /// Propagates WAL append failures.
    pub fn write_batch_to(
        &mut self,
        node: usize,
        mutations: usize,
        mut mutate: impl FnMut(&mut Tippers, usize),
    ) -> Result<WriteOutcome, WalError> {
        if self.nodes[node].down {
            return Ok(WriteOutcome::Unavailable);
        }
        if !self.nodes[node].is_leader || self.nodes[node].fenced || self.nodes[node].diverged {
            self.nodes[node].split_brain_writes += 1;
            self.split_brain_rejections += 1;
            return Ok(WriteOutcome::Fenced {
                epoch: self.nodes[node].epoch(),
            });
        }
        let epoch = self.nodes[node].epoch();
        let mut records = Vec::new();
        for i in 0..mutations {
            mutate(&mut self.nodes[node].bms, i);
            records.extend(self.nodes[node].bms.drain_record_tap());
        }
        if records.is_empty() {
            return Ok(WriteOutcome::NoOp);
        }
        for record in records {
            let index = self.nodes[node].durable_index();
            let prev_epoch = self.nodes[node].frames.last().map_or(0, |f| f.epoch);
            self.nodes[node].frames.push(Frame {
                epoch,
                prev_epoch,
                index,
                record,
            });
        }
        let index = self.nodes[node].durable_index() - 1;
        self.ship_from(node)?;
        if self.commit_len(node) > index {
            Ok(WriteOutcome::Committed { index })
        } else {
            Ok(WriteOutcome::Pending { index })
        }
    }

    /// Shipping rounds issued so far: the batched write path's
    /// amortization witness (N batched mutations cost one round where N
    /// [`Cluster::write_to`] calls cost N).
    pub fn shipping_rounds(&self) -> u64 {
        self.shipping_rounds
    }

    /// Ships each peer the frames it has not yet acknowledged (or a
    /// heartbeat when there is nothing to ship) and processes whatever
    /// acks come back immediately.
    fn ship_from(&mut self, shipper: usize) -> Result<(), WalError> {
        if self.nodes[shipper].down {
            return Ok(());
        }
        self.shipping_rounds += 1;
        let now_ms = self.clock.now_ms();
        let shipper_epoch = self.nodes[shipper].epoch();
        for peer in 0..self.nodes.len() {
            if peer == shipper || self.nodes[peer].down {
                continue;
            }
            let from = self.acked.get(&(shipper, peer)).copied().unwrap_or(0);
            let suffix: Vec<Frame> = self.nodes[shipper]
                .frames
                .iter()
                .skip(from as usize)
                .cloned()
                .collect();
            let ack = if suffix.is_empty() {
                if !self.link.heartbeat(shipper, peer) {
                    continue;
                }
                self.nodes[peer].touch(shipper_epoch, now_ms)
            } else {
                let delivered = self.link.transmit(shipper, peer, &suffix);
                if delivered.is_empty() {
                    // Every frame was cut, dropped or held: nothing reached
                    // the peer, so there is no contact (and no ack) — epoch
                    // knowledge must not teleport across a partition.
                    continue;
                }
                self.nodes[peer].accept(shipper_epoch, delivered, now_ms)?
            };
            if ack.fenced {
                self.nodes[shipper].fenced = true;
            }
            match self.link.ack_visible_at(shipper, peer, now_ms) {
                None => {}
                Some(at) if at <= now_ms => self.note_ack(shipper, &ack),
                Some(at) => {
                    let mut delayed = ack;
                    delayed.visible_at_ms = at;
                    self.in_flight.push((shipper, delayed));
                }
            }
        }
        Ok(())
    }

    fn note_ack(&mut self, shipper: usize, ack: &Ack) {
        // Only a *matched* ack proves the peer's durable length refers to
        // the shipper's history (and not a divergent branch the peer is
        // still sitting on), so only a matched ack may advance the
        // watermark that commit decisions and retransmit offsets read.
        if ack.fenced || ack.diverged || !ack.matched {
            return;
        }
        let entry = self.acked.entry((shipper, ack.node)).or_insert(0);
        *entry = (*entry).max(ack.durable_index);
    }

    /// Matures delayed acks whose visibility time has arrived.
    fn collect(&mut self) {
        let now_ms = self.clock.now_ms();
        let due: Vec<(usize, Ack)> = {
            let (ready, waiting): (Vec<_>, Vec<_>) = self
                .in_flight
                .drain(..)
                .partition(|(_, a)| a.visible_at_ms <= now_ms);
            self.in_flight = waiting;
            ready
        };
        for (shipper, ack) in due {
            if ack.fenced {
                self.nodes[shipper].fenced = true;
            }
            self.note_ack(shipper, &ack);
        }
    }

    /// One replication round: mature delayed acks, then retransmit from
    /// the primary (re-shipping anything unacknowledged).
    ///
    /// # Errors
    ///
    /// Propagates WAL failures from replica appends.
    pub fn tick(&mut self) -> Result<(), WalError> {
        self.collect();
        let primary = self.primary;
        if !self.nodes[primary].down && !self.nodes[primary].fenced {
            self.ship_from(primary)?;
        }
        Ok(())
    }

    /// The length of the longest prefix of `shipper`'s history that a
    /// commit quorum holds durably.
    fn commit_len(&self, shipper: usize) -> u64 {
        let mut durable: Vec<u64> = vec![self.nodes[shipper].durable_index()];
        for peer in 0..self.nodes.len() {
            if peer == shipper {
                continue;
            }
            durable.push(self.acked.get(&(shipper, peer)).copied().unwrap_or(0));
        }
        durable.sort_unstable_by(|a, b| b.cmp(a));
        durable[self.config.quorum - 1]
    }

    /// The committed prefix length of the current primary's history.
    pub fn committed_len(&self) -> u64 {
        self.commit_len(self.primary)
    }

    /// Serves a read from `node`, or `None` when the node is down.
    ///
    /// The unfenced primary always serves. A replica serves only while
    /// it can *prove* bounded staleness — contiguous frames, no
    /// divergence, and primary contact within the staleness bound on its
    /// (possibly skewed) local clock; otherwise every subject in the
    /// response is denied with [`crate::DecisionBasis::StaleReplica`]
    /// and the denial is audited on the serving node.
    pub fn read_from(
        &mut self,
        node: usize,
        request: &DataRequest,
        now: Timestamp,
    ) -> Option<DataResponse> {
        if self.nodes[node].down {
            return None;
        }
        let is_authority =
            node == self.primary && self.nodes[node].is_leader && !self.nodes[node].fenced;
        if is_authority {
            self.nodes[node].bms.set_serve_follower(false);
            let epoch = self.nodes[node].epoch();
            let response = self.nodes[node].bms.handle_request(request, now);
            // The release path can originate durable records of its own
            // (disclosure-quota charges, scheduled retention sweeps):
            // frame and ship them exactly as a write would, so replicas
            // converge on the same ledger and store. Shipping is
            // best-effort here — unshipped frames go out with the next
            // write or heartbeat.
            let records = self.nodes[node].bms.drain_record_tap();
            if !records.is_empty() {
                for record in records {
                    let index = self.nodes[node].durable_index();
                    let prev_epoch = self.nodes[node].frames.last().map_or(0, |f| f.epoch);
                    self.nodes[node].frames.push(Frame {
                        epoch,
                        prev_epoch,
                        index,
                        record,
                    });
                }
                let _ = self.ship_from(node);
            }
            return Some(response);
        }
        let mut local_now_ms = self.clock.now_ms();
        if self.plan.is_armed(FaultPoint::ClockSkew) && self.plan.should_fail(FaultPoint::ClockSkew)
        {
            local_now_ms += self.plan.param(FaultPoint::ClockSkew) * MILLIS_PER_SEC;
        }
        let bound = self.config.staleness_bound_ms;
        let n = &mut self.nodes[node];
        let fresh = n.pending.is_empty()
            && !n.diverged
            && local_now_ms.saturating_sub(n.last_contact_ms) <= bound;
        if fresh {
            // A follower serves check-only: it never originates quota
            // charges or sweeps — its ledger moves through shipped records.
            n.bms.set_serve_follower(true);
            Some(n.bms.handle_request(request, now))
        } else {
            Some(
                n.bms
                    .deny_all(request, now, EnforcementDecision::stale_replica()),
            )
        }
    }

    /// Crashes `node` (volatile state lost; durable log survives).
    pub fn crash(&mut self, node: usize) {
        self.nodes[node].crash();
    }

    /// Restarts a crashed node from its durable log.
    ///
    /// # Errors
    ///
    /// Propagates WAL replay failures.
    pub fn restart(&mut self, node: usize) -> Result<(), WalError> {
        let now_ms = self.clock.now_ms();
        let (ontology, model, config, occupants) = (
            self.ontology.clone(),
            self.model.clone(),
            self.tippers_config.clone(),
            self.occupants.clone(),
        );
        self.nodes[node].restart(&ontology, &model, &config, &occupants, now_ms)
    }

    /// The best promotion candidate under the election rule — the most
    /// up-to-date reachable node: max (epoch, durable prefix, lowest id)
    /// among alive, non-isolated nodes — or `None` when fewer than a
    /// quorum of nodes is reachable (promoting without quorum could
    /// elect a stale node and lose committed writes).
    pub fn best_candidate(&self) -> Option<usize> {
        let isolated = if self.plan.is_armed(FaultPoint::Partition) {
            self.plan.param(FaultPoint::Partition)
        } else {
            -1
        };
        let reachable: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].down && isolated != i as i64)
            .collect();
        if reachable.len() < self.config.quorum {
            return None;
        }
        reachable.into_iter().max_by_key(|&i| {
            (
                self.nodes[i].epoch(),
                self.nodes[i].durable_index(),
                std::cmp::Reverse(i),
            )
        })
    }

    /// Promotes `node` to primary under a fresh epoch.
    ///
    /// The epoch fence is recorded durably (a [`WalRecord::NewEpoch`]
    /// frame) *before* the node serves anything, so a deposed primary is
    /// fenced on its next append — its peers answer with a newer epoch
    /// and its writes are rejected and audited rather than acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates WAL failures recording the fence.
    pub fn promote(&mut self, node: usize) -> Result<u64, WalError> {
        assert!(!self.nodes[node].down, "cannot promote a crashed node");
        let epoch = self.next_epoch.max(self.nodes[node].epoch() + 1);
        self.next_epoch = epoch + 1;
        // RequestVote phase: a quorum of nodes must learn the new epoch —
        // and thereby fence the old one — *before* the candidate serves.
        // Otherwise a deposed primary could still assemble a commit quorum
        // among uninformed replicas while this promotion is in flight.
        let now_ms = self.clock.now_ms();
        let mut votes = 1; // the candidate itself
        for peer in 0..self.nodes.len() {
            if peer == node || self.nodes[peer].down || !self.link.heartbeat(node, peer) {
                continue;
            }
            self.nodes[peer].touch(epoch, now_ms);
            votes += 1;
        }
        assert!(
            votes >= self.config.quorum,
            "promotion requires a reachable quorum (pick candidates via best_candidate)"
        );
        // Promotion replays the longest durable prefix: anything buffered
        // out of order is not durable-contiguous and is discarded.
        self.nodes[node].pending.clear();
        let index = self.nodes[node].durable_index();
        self.nodes[node]
            .bms
            .record_and_log(WalRecord::NewEpoch { epoch })?;
        self.nodes[node].bms.drain_record_tap();
        let prev_epoch = self.nodes[node].frames.last().map_or(0, |f| f.epoch);
        self.nodes[node].frames.push(Frame {
            epoch,
            prev_epoch,
            index,
            record: WalRecord::NewEpoch { epoch },
        });
        self.nodes[node].is_leader = true;
        self.nodes[node].fenced = false;
        self.nodes[node].diverged = false;
        self.nodes[node].bms.set_serve_follower(false);
        self.primary = node;
        // The new primary has no ack knowledge yet; peers re-ack from 0
        // (acks are idempotent maxes, so re-shipping is safe).
        self.acked.retain(|(shipper, _), _| *shipper != node);
        self.in_flight.retain(|(shipper, _)| *shipper != node);
        self.ship_from(node)?;
        Ok(epoch)
    }

    /// Post-heal anti-entropy: folds every reachable node's divergent
    /// suffix into the primary history, resolving contested setting
    /// updates by (epoch, version) last-writer-wins with the privacy-max
    /// tiebreak, issuing durable supersession [`WalRecord::Notice`]s to
    /// users whose choice lost, rebuilding divergent nodes by state
    /// transfer, and pumping replication until every alive node holds
    /// the identical history.
    ///
    /// # Errors
    ///
    /// Propagates WAL failures.
    pub fn reconcile(&mut self) -> Result<ReconcileReport, WalError> {
        let primary = self.primary;
        let primary_frames = self.nodes[primary].frames.clone();
        // Phase 1 (read-only): find divergent branches and decide merges.
        let mut winners: Vec<VersionedChoice> = Vec::new();
        let mut notices: Vec<(VersionedChoice, VersionedChoice)> = Vec::new();
        let mut rebuilt: Vec<usize> = Vec::new();
        for i in 0..self.nodes.len() {
            if i == primary || self.nodes[i].down {
                continue;
            }
            let node_frames = &self.nodes[i].frames;
            let common = common_prefix_len(&primary_frames, node_frames);
            if common >= node_frames.len() && !self.nodes[i].diverged {
                continue;
            }
            rebuilt.push(i);
            let branch = divergent_choices(node_frames, common);
            let trunk = divergent_choices(&primary_frames, common);
            for choice in branch {
                match trunk.iter().find(|t| t.key() == choice.key()) {
                    None => winners.push(choice),
                    Some(t) => {
                        let restrictiveness =
                            |c: &VersionedChoice| self.option_strictness(primary, c);
                        match resolve(t, &choice, restrictiveness) {
                            MergeWinner::Branch => {
                                notices.push((t.clone(), choice.clone()));
                                winners.push(choice);
                            }
                            MergeWinner::Primary => notices.push((choice, t.clone())),
                        }
                    }
                }
            }
        }
        // Phase 2 (mutating): re-apply winners on the primary, notify
        // losers durably, state-transfer divergent nodes, pump to
        // convergence.
        let merged = winners.len();
        for choice in winners {
            self.mutate_primary(|bms| {
                // A branch whose policy/setting no longer exists on the
                // trunk folds away silently (the policy removal won).
                let _ = bms.apply_setting_choice(
                    choice.user,
                    choice.policy,
                    &choice.setting_key,
                    choice.option_index,
                );
            });
        }
        let now = Timestamp(self.clock.now_ms() / MILLIS_PER_SEC);
        let notice_count = notices.len();
        for (loser, winner) in notices {
            let text = format!(
                "your choice for setting '{}' of policy {:?} was superseded during partition recovery by a {} update; the more protective option now applies — please review",
                loser.setting_key,
                loser.policy,
                if winner.epoch != loser.epoch { "newer-epoch" } else { "more restrictive" },
            );
            self.mutate_primary(move |bms| {
                bms.record_notice(loser.user, now, text);
            });
        }
        let history = self.nodes[primary].frames.clone();
        let (ontology, model, config, occupants) = (
            self.ontology.clone(),
            self.model.clone(),
            self.tippers_config.clone(),
            self.occupants.clone(),
        );
        let now_ms = self.clock.now_ms();
        for &i in &rebuilt {
            self.link.drop_held(i);
            self.nodes[i].rebuild(&history, &ontology, &model, &config, &occupants, now_ms)?;
            self.acked
                .insert((primary, i), self.nodes[i].durable_index());
        }
        // Pump replication until every alive node holds the full history.
        for _ in 0..64 {
            self.tick()?;
            let target = self.nodes[primary].durable_index();
            if (0..self.nodes.len())
                .filter(|&i| !self.nodes[i].down)
                .all(|i| self.nodes[i].durable_index() == target)
            {
                break;
            }
            self.clock.advance_ms(50);
        }
        Ok(ReconcileReport {
            merged,
            notices: notice_count,
            rebuilt,
        })
    }

    /// Applies a mutation on the primary, framing its records (bypasses
    /// the fenced/diverged write gate — reconciliation runs on the
    /// authoritative primary by construction).
    fn mutate_primary(&mut self, mutate: impl FnOnce(&mut Tippers)) {
        let primary = self.primary;
        let epoch = self.nodes[primary].epoch();
        mutate(&mut self.nodes[primary].bms);
        for record in self.nodes[primary].bms.drain_record_tap() {
            let index = self.nodes[primary].durable_index();
            let prev_epoch = self.nodes[primary].frames.last().map_or(0, |f| f.epoch);
            self.nodes[primary].frames.push(Frame {
                epoch,
                prev_epoch,
                index,
                record,
            });
        }
    }

    /// Strictness of the option a choice selects, read from the judging
    /// node's policy table (0 when the policy or setting is gone).
    fn option_strictness(&self, node: usize, choice: &VersionedChoice) -> u8 {
        self.nodes[node]
            .bms
            .policy(choice.policy)
            .and_then(|p| p.settings.iter().find(|s| s.key == choice.setting_key))
            .and_then(|s| s.options.get(choice.option_index))
            .map_or(0, |o| o.effect.strictness())
    }
}

/// Length of the longest common prefix of two frame histories.
fn common_prefix_len(a: &[Frame], b: &[Frame]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Rebuilds a reference BMS by replaying a frame history from genesis —
/// the differential oracle: a node that durably holds exactly `frames`
/// must answer every request exactly as this reference does.
///
/// The reference runs with a disarmed fault plan (replay is logical and
/// plan-independent) and the same record tap as a cluster node, so it
/// queues no override notices and its replicated state is comparable
/// snapshot-for-snapshot. Its decisions go to its own audit chain
/// ([`Tippers::decisions`]).
///
/// # Errors
///
/// Propagates WAL failures (none occur on a fresh in-memory log).
pub fn replay(
    frames: &[Frame],
    ontology: &Ontology,
    model: &SpatialModel,
    config: &TippersConfig,
    occupants: &[Occupant],
) -> Result<Tippers, WalError> {
    let reference = TippersConfig {
        fault_plan: FaultPlan::disarmed(),
        ..config.clone()
    };
    let mut node = Node::open(0, ontology, model, &reference, occupants)?;
    for frame in frames {
        node.bms.record_and_log(frame.record.clone())?;
        node.bms.drain_record_tap();
    }
    // The reference answers like a follower: check-only on quotas, never
    // sweeping — so probing it repeatedly cannot drift its ledger away
    // from the node it stands in for.
    node.bms.set_serve_follower(true);
    Ok(node.bms)
}
