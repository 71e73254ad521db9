//! Replicated enforcement (design decision D8; experiment E16).
//!
//! A building cannot stop enforcing privacy because one machine died: the
//! BMS's durable WAL (§ [`crate::wal`]) already makes every mutation a
//! logical record, so replication ships those records as epoch-stamped
//! [`Frame`]s to deterministic replicas that apply them through the
//! existing replay path. The guarantees, each enforced by
//! `tests/partition_fuzz.rs` under a seeded nemesis:
//!
//! * **No committed write is ever lost.** A write is
//!   [`WriteOutcome::Committed`] only once a quorum holds it durably;
//!   failover promotes the most up-to-date reachable node (longest
//!   durable prefix, quorum intersection), so every committed decision
//!   and setting survives any single failover.
//! * **Zero split-brain acknowledgements.** A promotion durably records a
//!   monotonically increasing epoch ([`crate::wal::WalRecord::NewEpoch`])
//!   *before* the new primary serves; a deposed primary is fenced on its
//!   next append — its writes are rejected and audited, never
//!   acknowledged.
//! * **Replica reads fail closed.** A replica serves reads only while it
//!   can prove bounded staleness; otherwise every subject is denied with
//!   [`crate::DecisionBasis::StaleReplica`] — a stale node never guesses
//!   from possibly-outdated privacy settings.
//! * **Post-heal convergence.** After a partition heals, divergent
//!   setting updates merge by (epoch, version) last-writer-wins with a
//!   privacy-max tiebreak (the more restrictive option wins an exact
//!   tie); the superseded user gets a durable re-notification, and every
//!   node converges to an identical [`crate::Snapshot`].
//!
//! Documented divergences from a standalone BMS: each node journals the
//! decisions it serves on its own audit chain (node-local, not part of
//! the snapshot), and nodes queue no override notice when a mandatory
//! policy overrides a subject's preference on a read — notifications are
//! replicated state, so only record-derived notices reach the subject.

mod cluster;
mod link;
mod node;
mod settings;

pub use cluster::{replay, Cluster, ReconcileReport, ReplicationConfig, WriteOutcome};
pub use link::{Ack, Frame, ReplicationLink};
pub use settings::{divergent_choices, resolve, ChoiceKey, MergeWinner, VersionedChoice};
