//! The TIPPERS facade: the privacy-aware building management system of
//! Figure 1, wiring together the policy, preference and sensor managers,
//! the store, the enforcement engine and the audit log.

use std::collections::HashMap;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize as _;
use tippers_irr::{DiscoveryBus, RegistryError, RegistryId};
use tippers_ontology::{ConceptId, Ontology};
use tippers_policy::{
    conflict, BuildingPolicy, Conflict, DataAction, Effect, PolicyId, PreferenceId,
    ResolutionStrategy, ServiceId, Timestamp, UserGroup, UserId, UserPreference,
};
use tippers_resilience::{
    ms_from_secs, AdmissionConfig, AdmissionController, AdmissionStats, BrownoutConfig,
    BrownoutController, BrownoutLevel, FaultPlan, FaultPoint, HealthMonitor, HealthStatus,
    Priority, RetryPolicy,
};
use tippers_sensors::{BuildingSimulator, MacAddress, Observation, ObservationPayload, Occupant};
use tippers_spatial::{GranularLocation, Granularity, SpaceId, SpatialModel};

use crate::aggregate::{bucketize, AggregateRequest, AggregateResponse};
use crate::audit::chain::{AuditChain, ChainFault, SealedSegment, ARCHIVE_PREFIX, SEGMENT_RECORDS};
use crate::audit::hash::{hex, Sha256};
use crate::audit::{AuditEntry, AuditLog, ChainEvent, DeletionCertificate, UserNotification};
use crate::enforce::{EnforcementDecision, Enforcer, IndexedEnforcer, RequestFlow};
use crate::ingest::{
    coarsen_at_capture, CaptureDrop, CaptureDropReason, CaptureFilter, IngestConfig,
    IngestPipeline, IngestReport, IngestStats, LadderRung,
};
use crate::policy_manager::PolicyManager;
use crate::preference_manager::{PreferenceManager, SettingsError};
use crate::quota::{QuotaConfig, QuotaLedger};
use crate::request::{
    DataRequest, DataResponse, ReleasedRecord, ReleasedValue, SubjectResult, SubjectSelector,
};
use crate::sensor_manager::{HvacCommand, SensorManager};
use crate::store::{Store, StoredRow};
use crate::wal::{FaultyLog, FsLog, LogIo, RecoveryReport, Wal, WalConfig, WalError, WalRecord};

/// BMS configuration.
#[derive(Debug, Clone)]
pub struct TippersConfig {
    /// Conflict-resolution strategy (default: mandatory policies prevail).
    pub strategy: ResolutionStrategy,
    /// TTL for published advertisements, seconds.
    pub advertisement_ttl_secs: i64,
    /// Seed for noise injection.
    pub noise_seed: u64,
    /// k-anonymity threshold for aggregate queries (buckets with fewer
    /// distinct contributors are suppressed).
    pub k_anonymity: u32,
    /// Fault-injection plan the BMS consults at its internal fault points
    /// ([`FaultPoint::StoreWrite`], [`FaultPoint::PolicyPublish`],
    /// [`FaultPoint::EnforcerBuild`]). Disarmed by default; clones share
    /// state with the plan handed in.
    pub fault_plan: FaultPlan,
    /// Retry policy for publishing policies to a registry.
    pub publish_retry: RetryPolicy,
    /// Write-ahead-log segment rotation threshold in bytes; only
    /// consulted when the BMS is opened durably ([`Tippers::open`]).
    pub wal_segment_max_bytes: u64,
    /// Admission control at the enforcement point. `None` (the default)
    /// admits everything; when set, requests pass a priority-classed
    /// token-bucket + AIMD gate and sheds fail closed with
    /// [`crate::DecisionBasis::Overload`].
    pub admission: Option<AdmissionConfig>,
    /// Brownout ladder thresholds (consulted only when `admission` is
    /// set).
    pub brownout: BrownoutConfig,
    /// Per-(user, service, purpose) disclosure budget enforced on the
    /// release path. `None` (the default) disables quota enforcement;
    /// when set, an exhausted budget — or a charge whose durable record
    /// was lost — denies fail-closed with
    /// [`crate::DecisionBasis::QuotaExceeded`].
    pub quota: Option<QuotaConfig>,
    /// Virtual-time retention-sweep period in seconds: when set, the BMS
    /// runs [`Tippers::sweep`] from the request path whenever at least
    /// this much virtual time has passed since the last sweep. `None`
    /// (the default) leaves sweeping to explicit calls.
    pub sweep_every_secs: Option<i64>,
    /// Batched, backpressured capture pipeline
    /// ([`Tippers::ingest_batched`]). `None` (the default) makes the
    /// batched entry point fall through to the one-at-a-time path.
    pub ingest: Option<IngestConfig>,
}

impl Default for TippersConfig {
    fn default() -> Self {
        TippersConfig {
            strategy: ResolutionStrategy::PolicyPrevails,
            advertisement_ttl_secs: 86_400,
            noise_seed: 0x71_bb,
            k_anonymity: 5,
            fault_plan: FaultPlan::disarmed(),
            publish_retry: RetryPolicy::default(),
            wal_segment_max_bytes: 1 << 20,
            admission: None,
            brownout: BrownoutConfig::default(),
            quota: None,
            sweep_every_secs: None,
            ingest: None,
        }
    }
}

/// In-flight provable-deletion bookkeeping between a sweep's `SweepBegin`
/// and `SweepCommit` records.
#[derive(Debug)]
struct PendingSweep {
    id: u64,
    now: Timestamp,
    rows: Vec<StoredRow>,
    /// True once the `SweepDelete` record is durably logged (or replayed).
    deleted_logged: bool,
}

/// The privacy-aware building management system.
#[derive(Debug)]
pub struct Tippers {
    ontology: Ontology,
    model: SpatialModel,
    config: TippersConfig,
    policies: PolicyManager,
    preferences: PreferenceManager,
    sensors: SensorManager,
    store: Store,
    audit: AuditLog,
    groups: HashMap<UserId, UserGroup>,
    macs: HashMap<UserId, MacAddress>,
    /// The enforcement index: patched on every settings change, built by
    /// [`Tippers::ensure_enforcer`] at the first read after open, a
    /// restore, or a failed patch.
    enforcer: Option<IndexedEnforcer>,
    /// Successful enforcement-index builds since this engine was created.
    enforcer_builds: u64,
    /// The capture filter `ingest_batched` applies, derived at the first
    /// batch after a settings change, an occupant registration or a
    /// restore.
    capture_filter: Option<CaptureFilter>,
    noise_rng: StdRng,
    health: HealthMonitor,
    store_write_failures: u64,
    wal: Option<Wal>,
    wal_append_failures: u64,
    wal_truncations: u64,
    admission: Option<AdmissionController>,
    brownout: BrownoutController,
    /// Highest epoch fence durably recorded ([`WalRecord::NewEpoch`]);
    /// 0 until the node participates in a replicated deployment.
    replication_epoch: u64,
    /// When enabled, every logged record is also cloned here for the
    /// replication layer to drain into frames (see `crate::replication`).
    record_tap: Option<Vec<WalRecord>>,
    /// Last fresh answer per (service, subject, data), replayed under
    /// [`BrownoutLevel::CachedOnly`]. An entry is served only when the
    /// current decision's effect matches the one the records were
    /// released under, so the cache can never out-release a decision.
    coarse_cache: HashMap<(String, UserId, ConceptId), (Effect, Vec<ReleasedRecord>)>,
    /// Durable disclosure-budget ledger: rides in snapshots and is rebuilt
    /// from replayed/shipped [`WalRecord::QuotaCharge`] records, so a
    /// crash, checkpoint, or failover can never reset a budget.
    quotas: QuotaLedger,
    /// True on a node that serves reads but must not originate durable
    /// records (a replication follower): quota checks still deny, but
    /// charging and sweeping are the primary's job — the follower's
    /// ledger moves only through shipped records.
    serve_follower: bool,
    /// Next retention-sweep id (monotone within one log history).
    next_sweep_id: u64,
    /// A sweep that logged `SweepBegin` but has not committed; recovery
    /// finishes it exactly once.
    pending_sweep: Option<PendingSweep>,
    /// Virtual time the sweep schedule last fired (not durable state —
    /// rederived from replayed `SweepBegin` records).
    last_sweep_at: Option<Timestamp>,
    /// Node-local tamper-evident journal over audited events: decision
    /// audits and deletion certificates, HMAC-chained; full runs seal and
    /// archive through the WAL backend.
    audit_chain: AuditChain,
    /// Sealed-segment archive writes that failed (the chain stays intact
    /// in memory; only the durable copy is missing).
    audit_archive_failures: u64,
    /// Sealed segments whose archive write failed, oldest first: retried
    /// at the next seal or checkpoint, and a checkpoint is refused while
    /// any remain (its snapshot would otherwise drop their decisions).
    unarchived: Vec<SealedSegment>,
    /// Quota charges whose durable record was dropped — each one rolled
    /// back and the request denied fail-closed.
    quota_charge_drops: u64,
    /// The batched capture pipeline, when configured: bounded per-zone
    /// mailboxes, the degradation ladder, and the capture-drop audit
    /// trail (see [`crate::ingest`]).
    ingest: Option<IngestPipeline>,
}

impl Tippers {
    /// Creates a BMS over a spatial model.
    pub fn new(ontology: Ontology, model: SpatialModel, config: TippersConfig) -> Tippers {
        Tippers {
            noise_rng: StdRng::seed_from_u64(config.noise_seed),
            admission: config.admission.map(|a| AdmissionController::new(a, 0)),
            brownout: BrownoutController::new(config.brownout),
            ingest: config.ingest.clone().map(IngestPipeline::new),
            coarse_cache: HashMap::new(),
            ontology,
            model,
            config,
            policies: PolicyManager::new(),
            preferences: PreferenceManager::new(),
            sensors: SensorManager::new(),
            store: Store::new(),
            audit: AuditLog::new(),
            groups: HashMap::new(),
            macs: HashMap::new(),
            enforcer: None,
            enforcer_builds: 0,
            capture_filter: None,
            health: HealthMonitor::new(),
            store_write_failures: 0,
            wal: None,
            wal_append_failures: 0,
            wal_truncations: 0,
            replication_epoch: 0,
            record_tap: None,
            quotas: QuotaLedger::new(),
            serve_follower: false,
            next_sweep_id: 1,
            pending_sweep: None,
            last_sweep_at: None,
            audit_chain: AuditChain::new(),
            audit_archive_failures: 0,
            unarchived: Vec::new(),
            quota_charge_drops: 0,
        }
    }

    // ---- durable open & write-ahead logging ----------------------------------

    /// Opens a *durable* BMS over a write-ahead-log directory (creating
    /// it if absent): replays the log's checkpoint + tail, truncating at
    /// the first corrupt or torn record, and logs every subsequent
    /// mutation before returning from it. The caller supplies the
    /// administrative configuration (ontology, model, config) exactly as
    /// for [`Tippers::from_snapshot`]; policies, unlike in snapshots,
    /// ride in the log and are recovered.
    ///
    /// # Errors
    ///
    /// [`WalError`] on backend I/O failures or an unreplayable record;
    /// corruption is *not* an error — it is truncated and counted in the
    /// [`RecoveryReport`].
    pub fn open(
        dir: impl AsRef<Path>,
        ontology: Ontology,
        model: SpatialModel,
        config: TippersConfig,
    ) -> Result<(Tippers, RecoveryReport), WalError> {
        let io = FsLog::open(dir.as_ref().to_path_buf())?;
        Tippers::open_with(Box::new(io), ontology, model, config)
    }

    /// [`Tippers::open`] over any [`LogIo`] backend (an in-memory log for
    /// crash-simulation tests, a custom store in production). All log
    /// I/O is routed through the config's fault plan, so storage faults
    /// ([`FaultPoint::WalAppendTorn`], [`FaultPoint::WalBitFlip`],
    /// [`FaultPoint::WalSyncDrop`], [`FaultPoint::WalSegmentRename`])
    /// are injectable.
    ///
    /// # Errors
    ///
    /// See [`Tippers::open`].
    pub fn open_with(
        io: Box<dyn LogIo>,
        ontology: Ontology,
        model: SpatialModel,
        config: TippersConfig,
    ) -> Result<(Tippers, RecoveryReport), WalError> {
        let wal_config = WalConfig {
            segment_max_bytes: config.wal_segment_max_bytes,
        };
        let faulty = FaultyLog::new(io, config.fault_plan.clone());
        let (wal, records, report) = Wal::open(Box::new(faulty), wal_config)?;
        let mut bms = Tippers::new(ontology, model, config);
        // Resume the audit chain after the newest parseable archived
        // segment *before* replay, so records the replay re-journals
        // (deletion certificates) continue the sealed lineage. Only that
        // segment is parsed; unparseable ones are not skipped silently —
        // `verify_audit_archive` reports them as [`ChainFault::Corrupt`].
        let newest = read_audit_archive(&wal)?
            .rev()
            .find_map(|(_, segment)| segment);
        if let Some(last) = newest {
            bms.audit_chain.resume_after(&last);
        }
        for record in records {
            bms.apply_record(record)?;
        }
        bms.wal_truncations = report.truncated_tails;
        bms.wal = Some(wal);
        // A sweep interrupted between its records is finished now, while
        // the log is writable again: the deletions land exactly once with
        // the certificate the interrupted run would have committed.
        bms.finish_pending_sweep();
        Ok((bms, report))
    }

    /// Replays one recovered log record (the in-memory mutation without
    /// re-logging it). Also the replication layer's apply path: a replica
    /// runs every shipped frame through here, so replicated state is byte-
    /// for-byte the state a crash recovery of the primary would produce.
    pub(crate) fn apply_record(&mut self, record: WalRecord) -> Result<(), WalError> {
        match record {
            WalRecord::Checkpoint {
                snapshot,
                policies,
                next_policy_id,
            } => {
                if let Some(bad) = policies.iter().find(|p| p.id.0 >= next_policy_id) {
                    return Err(WalError::Snapshot(crate::SnapshotError::Inconsistent(
                        format!(
                            "policy {} is at or above the id allocator ({next_policy_id})",
                            bad.id
                        ),
                    )));
                }
                self.restore_durable_state(snapshot)?;
                self.policies = PolicyManager::from_parts(policies, next_policy_id);
            }
            WalRecord::AddPolicy { policy } => {
                self.add_policy_inner(policy);
            }
            WalRecord::RemovePolicy { policy } => {
                self.remove_policy_inner(policy);
            }
            WalRecord::SubmitPreferenceAssigned { preference, now } => {
                self.submit_preference_assigned_inner(preference, now);
            }
            WalRecord::SettingChoiceAssigned {
                user,
                policy,
                setting_key,
                option_index,
                id,
            } => {
                self.apply_setting_choice_assigned_inner(
                    user,
                    policy,
                    &setting_key,
                    option_index,
                    id,
                )
                .map_err(|e| WalError::Replay(format!("setting choice: {e}")))?;
            }
            WalRecord::Retroactive { preference } => {
                self.apply_retroactively_inner(preference);
            }
            WalRecord::Ingest { rows } => {
                for row in rows {
                    self.store.insert_row(row);
                }
            }
            WalRecord::Gc { now } => {
                self.store.gc(now);
            }
            WalRecord::SweepBegin { id, now } => {
                self.next_sweep_id = self.next_sweep_id.max(id + 1);
                self.last_sweep_at = Some(now);
                self.pending_sweep = Some(PendingSweep {
                    id,
                    now,
                    rows: Vec::new(),
                    deleted_logged: false,
                });
            }
            WalRecord::SweepDelete { id, rows } => {
                self.store.remove_rows(&rows);
                if let Some(pending) = self.pending_sweep.as_mut().filter(|p| p.id == id) {
                    pending.rows = rows;
                    pending.deleted_logged = true;
                }
            }
            WalRecord::SweepCommit {
                id,
                now,
                rows,
                digest,
            } => {
                let certificate = DeletionCertificate {
                    sweep: id,
                    time: now,
                    rows,
                    digest,
                };
                self.certify(certificate);
                if self.pending_sweep.as_ref().is_some_and(|p| p.id == id) {
                    self.pending_sweep = None;
                }
            }
            WalRecord::QuotaCharge {
                user,
                service,
                purpose,
                now,
            } => {
                // Rebuild the ledger even when quotas are disabled on this
                // node (a follower or a replay under a changed config): the
                // windowless fallback keeps counters from silently resetting.
                let config = self.config.quota.unwrap_or(QuotaConfig {
                    budget: u32::MAX,
                    window_secs: None,
                });
                self.quotas.charge(user, &service, purpose, now, config);
            }
            WalRecord::NewEpoch { epoch } => {
                self.replication_epoch = self.replication_epoch.max(epoch);
            }
            WalRecord::Notice { user, now, text } => {
                self.audit.notify(user, now, text);
            }
        }
        Ok(())
    }

    /// Appends a record for a mutation that was just applied. A no-op
    /// without a log; an append failure is counted (the in-memory state
    /// is ahead of the durable state until the next successful append),
    /// never silently swallowed.
    fn log(&mut self, record: WalRecord) {
        if let Some(tap) = self.record_tap.as_mut() {
            tap.push(record.clone());
        }
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        if wal.append(&record).is_err() {
            self.wal_append_failures += 1;
        }
    }

    // ---- replication hooks (see `crate::replication`) ------------------------

    /// Applies a record *and* logs it durably: the replication layer's
    /// write path for shipped frames, epoch fences and merge notices.
    pub(crate) fn record_and_log(&mut self, record: WalRecord) -> Result<(), WalError> {
        self.apply_record(record.clone())?;
        self.log(record);
        Ok(())
    }

    /// Starts cloning every logged record into the record tap.
    pub(crate) fn enable_record_tap(&mut self) {
        if self.record_tap.is_none() {
            self.record_tap = Some(Vec::new());
        }
    }

    /// Drains records logged since the last drain (empty when the tap is
    /// disabled).
    pub(crate) fn drain_record_tap(&mut self) -> Vec<WalRecord> {
        self.record_tap
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Audits one request-path decision: journals its entry onto the
    /// tamper-evident chain — the decision record, and the node's own
    /// witness statement rather than replicated state — and queues the
    /// override notice a mandatory policy owes the subject. A replication
    /// node (record tap enabled) queues no notice: its notifications are
    /// replicated state and must stay a pure function of the record
    /// sequence, while what it serves is node-local.
    fn record_decision(
        &mut self,
        now: Timestamp,
        user: UserId,
        service: Option<tippers_policy::ServiceId>,
        data: ConceptId,
        purpose: ConceptId,
        decision: &EnforcementDecision,
    ) {
        if self.record_tap.is_none() {
            self.audit.notify_override(user, now, decision);
        }
        let entry = AuditEntry::of(now, user, service, data, purpose, decision);
        self.journal(&ChainEvent::Decision { entry });
    }

    /// Journals a deletion certificate onto the tamper-evident chain and
    /// records it in the certificate ledger.
    fn certify(&mut self, certificate: DeletionCertificate) {
        self.journal(&ChainEvent::Deletion {
            certificate: certificate.clone(),
        });
        self.audit.certify(certificate);
    }

    /// Journals an audited event onto the tamper-evident chain, then
    /// seals and archives every full [`SEGMENT_RECORDS`]-record run.
    fn journal(&mut self, event: &ChainEvent) {
        // A decision's payload is ~150 bytes: one allocation, where
        // growing from empty would take six.
        let mut payload = String::with_capacity(256);
        event.write_json(&mut payload);
        self.audit_chain.append(payload);
        if self.wal.is_some() {
            let sealed = self.audit_chain.seal(SEGMENT_RECORDS);
            self.archive_audit_segments(sealed);
        }
    }

    /// Archives sealed segments through the WAL's log backend (where the
    /// fault plan can corrupt them and verification must notice), first
    /// retrying every segment whose earlier write failed. A failed write
    /// is counted, never silently swallowed, and its segment is kept for
    /// the next attempt. A non-durable BMS never seals: its whole chain
    /// stays open in memory.
    fn archive_audit_segments(&mut self, segments: impl IntoIterator<Item = SealedSegment>) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let retries = std::mem::take(&mut self.unarchived);
        for segment in retries.into_iter().chain(segments) {
            let bytes =
                serde_json::to_string(&segment).expect("sealed segments serialize infallibly");
            if wal
                .archive(&archive_name(&segment), bytes.as_bytes())
                .is_err()
            {
                self.audit_archive_failures += 1;
                self.unarchived.push(segment);
            }
        }
    }

    /// A fail-closed answer: every subject denied with `decision`, each
    /// denial audited, the response marked degraded. Serves shed requests
    /// ([`crate::DecisionBasis::Overload`]: overload never releases data
    /// and never masquerades as a policy decision) and replicas that cannot
    /// prove their lag is within the staleness bound
    /// ([`crate::DecisionBasis::StaleReplica`]: a stale replica never
    /// guesses from possibly-outdated settings).
    pub(crate) fn deny_all(
        &mut self,
        request: &DataRequest,
        now: Timestamp,
        decision: EnforcementDecision,
    ) -> DataResponse {
        let subjects = self.subjects_of(request, now);
        let mut results = Vec::with_capacity(subjects.len());
        for user in subjects {
            self.record_decision(
                now,
                user,
                Some(request.service.clone()),
                request.data,
                request.purpose,
                &decision,
            );
            results.push(SubjectResult {
                user,
                decision: decision.clone(),
                records: Vec::new(),
            });
        }
        DataResponse {
            results,
            degraded: true,
        }
    }

    /// Durably records a replicated user notification (e.g. an
    /// anti-entropy merge superseding this user's divergent setting
    /// choice): queued locally and logged as [`WalRecord::Notice`], so
    /// every replica replaying the record re-queues it and the user's
    /// IoTA is re-notified no matter which node it polls.
    pub(crate) fn record_notice(&mut self, user: UserId, now: Timestamp, text: String) {
        self.audit.notify(user, now, text.clone());
        self.log(WalRecord::Notice { user, now, text });
    }

    /// Highest durably recorded epoch fence ([`WalRecord::NewEpoch`]); 0
    /// for a node that never joined a replicated deployment.
    pub fn replication_epoch(&self) -> u64 {
        self.replication_epoch
    }

    /// Writes a full-state checkpoint and compacts the log: older
    /// segments are dropped once the checkpoint segment is durably
    /// published. The audit chain's open run is sealed and archived first
    /// (a short segment), so every decision made so far is durable in the
    /// archive — the snapshot carries none. A no-op for a non-durable BMS.
    ///
    /// # Errors
    ///
    /// [`WalError::Checkpoint`] when publication failed, or when a sealed
    /// segment's archive write failed again (it stays queued for the next
    /// attempt) — the previous segments remain authoritative and nothing
    /// is lost.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let sealed = self.audit_chain.seal_open();
        self.archive_audit_segments(sealed);
        if !self.unarchived.is_empty() {
            return Err(WalError::Checkpoint(format!(
                "{} sealed audit segment(s) not archived",
                self.unarchived.len()
            )));
        }
        let snapshot = self.snapshot();
        let (policies, next_policy_id) = self.policies.snapshot_parts();
        let record = WalRecord::Checkpoint {
            snapshot,
            policies,
            next_policy_id,
        };
        self.wal
            .as_mut()
            .expect("wal presence checked above")
            .checkpoint(&record)
    }

    /// True when mutations are being write-ahead logged.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Log appends that failed since open (mutations whose durability is
    /// not guaranteed).
    pub fn wal_append_failures(&self) -> u64 {
        self.wal_append_failures
    }

    /// Corrupt/torn-tail truncation events observed at recovery — the
    /// audit counter proving rejected bytes were never silently accepted.
    pub fn wal_truncations(&self) -> u64 {
        self.wal_truncations
    }

    /// Records appended to the log since open, single and group-committed
    /// (zero without a log).
    pub fn wal_appended_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::appended_records)
    }

    /// Syncs the log has issued since open (zero without a log);
    /// [`Tippers::wal_appended_records`] divided by this is the
    /// group-commit amortization factor.
    pub fn wal_sync_count(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::sync_count)
    }

    /// The BMS's health: [`HealthStatus::Degraded`] while an internal
    /// failure (e.g. an enforcement-engine rebuild failure) forces it to
    /// fail closed.
    pub fn health(&self) -> HealthStatus {
        self.health.status()
    }

    /// Why the BMS is degraded, if it is.
    pub fn health_reason(&self) -> Option<&str> {
        self.health.reason()
    }

    /// Lifetime count of healthy → degraded transitions.
    pub fn degraded_events(&self) -> u64 {
        self.health.degraded_events()
    }

    /// Observations lost to injected store-write failures.
    pub fn store_write_failures(&self) -> u64 {
        self.store_write_failures
    }

    /// The vocabulary in use.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The spatial model in use.
    pub fn model(&self) -> &SpatialModel {
        &self.model
    }

    /// The observation store (read-only).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Pending user notifications and deletion certificates (read-only).
    /// Audited decisions are on the chain: see [`Tippers::decisions`].
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Registers occupants (the building's user directory: group
    /// membership and device MACs).
    pub fn register_occupants(&mut self, occupants: &[Occupant]) {
        self.capture_filter = None;
        for o in occupants {
            self.groups.insert(o.user, o.group);
            self.macs.insert(o.user, o.mac);
        }
    }

    /// The group a user belongs to (visitors if unregistered).
    pub fn group_of(&self, user: UserId) -> UserGroup {
        self.groups
            .get(&user)
            .copied()
            .unwrap_or(UserGroup::Visitor)
    }

    // ---- policy administration (step 1) ------------------------------------

    /// Adds a building policy; returns its assigned id.
    pub fn add_policy(&mut self, policy: BuildingPolicy) -> PolicyId {
        let policy = self.add_policy_inner(policy);
        let id = policy.id;
        self.log(WalRecord::AddPolicy { policy });
        id
    }

    /// Stores a policy under the next id and returns it as stored.
    fn add_policy_inner(&mut self, mut policy: BuildingPolicy) -> BuildingPolicy {
        policy.id = self.policies.add(policy.clone());
        self.settings_changed(|index, ontology| index.publish(policy.clone(), ontology));
        policy
    }

    /// Removes a policy.
    pub fn remove_policy(&mut self, id: PolicyId) -> bool {
        let removed = self.remove_policy_inner(id);
        if removed {
            self.log(WalRecord::RemovePolicy { policy: id });
        }
        removed
    }

    fn remove_policy_inner(&mut self, id: PolicyId) -> bool {
        let removed = self.policies.remove(id);
        if removed {
            self.settings_changed(|index, _| index.retract(id));
        }
        removed
    }

    /// All policies.
    pub fn policies(&self) -> &[BuildingPolicy] {
        self.policies.all()
    }

    /// The policy set plus its id-allocator position, for a sharded
    /// router rebuilding its broadcast mirror after a durable reopen.
    pub(crate) fn policy_parts(&self) -> (Vec<BuildingPolicy>, u64) {
        self.policies.snapshot_parts()
    }

    /// The preference id-allocator position, for a sharded router
    /// rebuilding its assignment counter after a durable reopen — and
    /// the sharded write path's commit detector: a router-assigned id
    /// below this position has definitely been applied here.
    pub(crate) fn preference_next_id(&self) -> u64 {
        self.preferences.next_id()
    }

    /// The policy id-allocator position (the sharded router's commit
    /// detector for broadcast policy adds on a quarantined shard).
    pub(crate) fn policy_next_id(&self) -> u64 {
        self.policies.next_id()
    }

    /// How many preferences a user has stored (shard-runtime test
    /// observability: proves an indeterminate write resolved to exactly
    /// one application).
    #[cfg(test)]
    pub(crate) fn preference_count_for(&self, user: UserId) -> usize {
        self.preferences.for_user(user).len()
    }

    /// Looks up one policy.
    pub fn policy(&self, id: PolicyId) -> Option<&BuildingPolicy> {
        self.policies.get(id)
    }

    /// Publishes all policies to a registry (step 4), retrying transient
    /// registry failures under [`TippersConfig::publish_retry`]'s bounded
    /// backoff/deadline budget. Each attempt is all-or-nothing: an injected
    /// [`FaultPoint::PolicyPublish`] failure fires before anything reaches
    /// the registry, so retries never publish duplicates.
    ///
    /// # Errors
    ///
    /// Registry validation failures are permanent and propagate without
    /// retry; [`RegistryError::Unreachable`] surfaces once the retry budget
    /// is spent.
    pub fn publish_policies(
        &self,
        bus: &mut DiscoveryBus,
        registry: RegistryId,
        now: Timestamp,
    ) -> Result<usize, RegistryError> {
        self.config
            .publish_retry
            .run(|_attempt| {
                if self
                    .config
                    .fault_plan
                    .should_fail(FaultPoint::PolicyPublish)
                {
                    return Err(RegistryError::Unreachable(registry));
                }
                self.policies
                    .publish_all(
                        &self.ontology,
                        &self.model,
                        bus,
                        registry,
                        now,
                        self.config.advertisement_ttl_secs,
                    )
                    .map(|ads| ads.len())
            })
            .map(|(n, _report)| n)
            .map_err(tippers_resilience::RetryError::into_inner)
    }

    // ---- preference intake (step 8) -----------------------------------------

    /// Stores a preference submitted by a user's IoTA under the next id of
    /// this engine's allocator; detects conflicts with mandatory policies
    /// and queues the notification (§III.B).
    pub fn submit_preference(&mut self, mut pref: UserPreference, now: Timestamp) -> PreferenceId {
        pref.id = PreferenceId(self.preferences.next_id());
        self.submit_preference_assigned(pref, now)
    }

    /// Stores a preference whose id the caller (the shard router, or
    /// [`Tippers::submit_preference`]) already allocated: the id is kept
    /// verbatim in memory, in the WAL record, and across replay, which
    /// keeps decision bases byte-identical between the sharded and
    /// unsharded engines.
    pub fn submit_preference_assigned(
        &mut self,
        pref: UserPreference,
        now: Timestamp,
    ) -> PreferenceId {
        let record = WalRecord::SubmitPreferenceAssigned {
            preference: pref.clone(),
            now,
        };
        let id = self.submit_preference_assigned_inner(pref, now);
        self.log(record);
        id
    }

    /// Conflict-checks a preference against every policy, queues the
    /// notifications (§III.B), and stores it under its id.
    fn submit_preference_assigned_inner(
        &mut self,
        pref: UserPreference,
        now: Timestamp,
    ) -> PreferenceId {
        // Only a restricting preference meets a required policy; `classify`
        // yields nothing for any other pair, so skipping them up front
        // queues the same notices in the same order.
        if pref.effect != Effect::Allow {
            let notices = self
                .policies
                .all()
                .iter()
                .filter(|policy| policy.is_required())
                .filter_map(|policy| {
                    conflict::classify(
                        policy,
                        &pref,
                        &self.ontology,
                        &self.model,
                        self.config.strategy,
                    )
                    .map(|conflict| conflict.notice)
                });
            self.audit.notify_each(pref.user, now, notices);
        }
        self.settings_changed(|index, _| index.submit(pref.clone()));
        self.preferences.insert_assigned(pref)
    }

    /// Applies an IoTA setting choice against a policy's advertised
    /// settings (Figure 4 → step 8); the derived preference takes the next
    /// id of this engine's allocator.
    ///
    /// # Errors
    ///
    /// [`SettingsError`] when the policy, setting, or option is unknown.
    pub fn apply_setting_choice(
        &mut self,
        user: UserId,
        policy: PolicyId,
        setting_key: &str,
        option_index: usize,
    ) -> Result<PreferenceId, SettingsError> {
        let id = PreferenceId(self.preferences.next_id());
        self.apply_setting_choice_assigned(user, policy, setting_key, option_index, id)
    }

    /// [`Tippers::apply_setting_choice`], with a caller-assigned id for
    /// the derived preference (see [`Tippers::submit_preference_assigned`]).
    ///
    /// # Errors
    ///
    /// [`SettingsError`] when the policy, setting, or option is unknown.
    pub fn apply_setting_choice_assigned(
        &mut self,
        user: UserId,
        policy: PolicyId,
        setting_key: &str,
        option_index: usize,
        id: PreferenceId,
    ) -> Result<PreferenceId, SettingsError> {
        let got =
            self.apply_setting_choice_assigned_inner(user, policy, setting_key, option_index, id)?;
        self.log(WalRecord::SettingChoiceAssigned {
            user,
            policy,
            setting_key: setting_key.to_string(),
            option_index,
            id,
        });
        Ok(got)
    }

    fn apply_setting_choice_assigned_inner(
        &mut self,
        user: UserId,
        policy: PolicyId,
        setting_key: &str,
        option_index: usize,
        id: PreferenceId,
    ) -> Result<PreferenceId, SettingsError> {
        let policy = self
            .policies
            .get(policy)
            .ok_or_else(|| SettingsError::UnknownSetting {
                key: format!("{policy}"),
            })?
            .clone();
        let chosen = self
            .preferences
            .apply_setting_choice_assigned(user, &policy, setting_key, option_index, id)?
            .clone();
        self.settings_changed(|index, _| index.choose(chosen));
        Ok(id)
    }

    /// All stored preferences.
    pub fn preferences(&self) -> &[UserPreference] {
        self.preferences.all()
    }

    /// Retroactive enforcement: deletes already-stored rows that a newly
    /// submitted *unconditional* deny preference covers, unless a mandatory
    /// policy pins them (Policy 2's log survives even a full opt-out).
    ///
    /// Returns the number of rows deleted. This is the strongest of the
    /// paper's *when* options — enforcement applied to storage after the
    /// fact, not just to future capture and sharing.
    pub fn apply_retroactively(&mut self, pref_id: PreferenceId) -> usize {
        let purged = self.apply_retroactively_inner(pref_id);
        if purged > 0 {
            self.log(WalRecord::Retroactive {
                preference: pref_id,
            });
        }
        purged
    }

    fn apply_retroactively_inner(&mut self, pref_id: PreferenceId) -> usize {
        let Some(pref) = self
            .preferences
            .all()
            .iter()
            .find(|p| p.id == pref_id)
            .cloned()
        else {
            return 0;
        };
        if pref.effect != Effect::Deny || !pref.scope.condition.is_always() {
            return 0;
        }
        let Some(category) = pref.scope.data else {
            return 0;
        };
        // Categories pinned by a mandatory policy stay (resolution:
        // PolicyPrevails); under other strategies the preference wins.
        if self.config.strategy == ResolutionStrategy::PolicyPrevails {
            let pinned = self.policies.all().iter().any(|p| {
                p.is_required()
                    && conflict::data_overlaps(p.data, category, &self.ontology)
                    && p.subjects.may_match_user(pref.user)
            });
            if pinned {
                return 0;
            }
        }
        // Purge the category itself and everything it can be inferred
        // from is NOT purged (raw data may serve other flows); exactly the
        // rows whose own category falls under the preference go.
        self.store
            .purge_subject(&self.ontology, pref.user, category)
    }

    /// Every (policy, preference) conflict in the current state.
    pub fn detect_conflicts(&self) -> Vec<Conflict> {
        let index = conflict::ConflictIndex::build(self.policies.all(), &self.ontology);
        index.detect(
            self.policies.all(),
            self.preferences.all(),
            &self.ontology,
            &self.model,
            self.config.strategy,
        )
    }

    /// Pending notifications for a user's IoTA (drained on read).
    pub fn take_notifications(&mut self, user: UserId) -> Vec<UserNotification> {
        self.audit.take_notifications(user)
    }

    // ---- ingest (steps 2–3) --------------------------------------------------

    /// Ingests captured observations, applying storage-time enforcement:
    /// a row is stored only when some building policy authorizes storing
    /// its category for its subject *and* the subject's preferences do not
    /// deny that policy's flow; retention comes from the authorizing
    /// policy (shortest wins among authorizers).
    ///
    /// Returns `(stored, dropped)` counts.
    pub fn ingest(&mut self, observations: &[Observation]) -> (usize, usize) {
        self.ingest_with_mask(observations, |_| true)
    }

    /// [`Tippers::ingest`] restricted to the observations this engine
    /// *owns*: every observation still feeds the sensor state (occupancy
    /// conditions must see the whole building, exactly as the unsharded
    /// engine does), but only owned observations are enforced, stored and
    /// counted. The sharded runtime broadcasts each batch to every shard
    /// with that shard's ownership mask.
    pub(crate) fn ingest_with_mask(
        &mut self,
        observations: &[Observation],
        owned: impl Fn(usize) -> bool,
    ) -> (usize, usize) {
        self.ensure_enforcer();
        let mut stored = 0usize;
        let mut dropped = 0usize;
        // Ingest is logged *physically*: the record carries the rows that
        // survived enforcement and fault injection, so replay is a pure
        // data load independent of sensor state or the fault plan.
        let mut batch: Vec<StoredRow> = Vec::new();
        for (index, obs) in observations.iter().enumerate() {
            self.sensors.observe(obs);
            if !owned(index) {
                continue;
            }
            let category = obs.payload.category(&self.ontology);
            match self.storage_grant(obs, category) {
                Some(retention) => {
                    // An injected store-write failure loses the row; it is
                    // counted (never silently swallowed) so experiments can
                    // attribute downstream misses to storage loss.
                    if self.config.fault_plan.should_fail(FaultPoint::StoreWrite) {
                        self.store_write_failures += 1;
                        dropped += 1;
                    } else {
                        let row = StoredRow {
                            observation: obs.clone(),
                            category,
                            policy: retention.0,
                            stored_at: obs.timestamp,
                            expires_at: retention
                                .1
                                .map(|secs| Timestamp(obs.timestamp.seconds() + secs)),
                        };
                        if self.wal.is_some() {
                            batch.push(row.clone());
                        }
                        self.store.insert_row(row);
                        stored += 1;
                    }
                }
                None => dropped += 1,
            }
        }
        if !batch.is_empty() {
            self.log(WalRecord::Ingest { rows: batch });
        }
        (stored, dropped)
    }

    /// Finds the authorizing policy for storing one observation. Returns
    /// the policy id and its retention (seconds), or `None` to drop.
    fn storage_grant(
        &self,
        obs: &Observation,
        category: ConceptId,
    ) -> Option<(PolicyId, Option<i64>)> {
        let mut grant: Option<(PolicyId, Option<i64>)> = None;
        let candidates = self
            .policies
            .all()
            .iter()
            .filter(|p| p.actions.contains(DataAction::Store));
        for policy in candidates {
            let applies_space = self.model.contains(policy.space, obs.space);
            if !applies_space {
                continue;
            }
            // Storage authorization is subsumption-directional: the
            // observation's category must fall under the policy's declared
            // collection category (see `policy_applies`).
            if !self.ontology.data.is_a(category, policy.data) {
                continue;
            }
            let authorized = match obs.subject {
                None => {
                    // Subjectless environmental data: the policy's own
                    // condition must hold, nothing else.
                    let ctx = tippers_policy::ConditionContext {
                        model: &self.model,
                        time: obs.timestamp,
                        subject_space: Some(obs.space),
                        requester_space: None,
                        room_occupied: self.sensors.room_occupied(obs.space, obs.timestamp),
                    };
                    policy.condition.is_satisfied(&ctx)
                }
                Some(user) => {
                    let flow = RequestFlow {
                        subject: user,
                        subject_group: self.group_of(user),
                        data: category,
                        purpose: policy.purpose,
                        service: policy.service.clone(),
                        action: DataAction::Store,
                        time: obs.timestamp,
                        subject_space: Some(obs.space),
                        requester_space: None,
                        room_occupied: self.sensors.room_occupied(obs.space, obs.timestamp),
                    };
                    // Fail closed: with no enforcement engine the row is
                    // dropped rather than stored unvetted.
                    let decision = match self.enforcer.as_ref() {
                        Some(e) => e.decide(&flow, &self.ontology, &self.model),
                        None => EnforcementDecision::fail_closed(),
                    };
                    decision.permits()
                }
            };
            if authorized {
                let retention = policy.retention.map(|r| r.as_seconds());
                grant = Some(match grant {
                    None => (policy.id, retention),
                    Some((prev_id, prev_ret)) => {
                        // Shortest retention among authorizers wins.
                        match (prev_ret, retention) {
                            (None, Some(r)) => (policy.id, Some(r)),
                            (Some(a), Some(b)) if b < a => (policy.id, Some(b)),
                            _ => (prev_id, prev_ret),
                        }
                    }
                });
            }
        }
        grant
    }

    /// Ingests directly from a simulator trace and synchronizes
    /// capture-time suppression afterwards.
    pub fn ingest_from(
        &mut self,
        sim: &mut BuildingSimulator,
        observations: &[Observation],
    ) -> (usize, usize) {
        let counts = self.ingest(observations);
        self.sync_capture_settings(sim);
        counts
    }

    // ---- batched, backpressured ingest (see `crate::ingest`) ----------------

    /// Ingests a batch of captured observations through the backpressured
    /// capture pipeline: per-zone capture filters (derived from the same
    /// policy + preference corpus the request path enforces), bounded
    /// per-zone mailboxes, the overload degradation ladder, and one WAL
    /// group commit amortizing fsync across the whole batch.
    ///
    /// Fail-closed: an observation that cannot be filtered, logged, or
    /// admitted is dropped *and audited* ([`Tippers::capture_drops`]),
    /// never stored raw. Observations the mailboxes cannot hold come back
    /// in [`IngestReport::rejected`] — the producer's backpressure signal
    /// (retry capped, or drop-and-account; never buffer without bound).
    ///
    /// Without [`TippersConfig::ingest`] this falls through to the
    /// one-at-a-time [`Tippers::ingest`] path.
    pub fn ingest_batched(&mut self, observations: &[Observation], now_ms: i64) -> IngestReport {
        if self.ingest.is_none() {
            let (stored, _dropped) = self.ingest(observations);
            let mut report = IngestReport::empty();
            report.stored = stored;
            return report;
        }
        self.ensure_enforcer();
        let mut pipeline = self.ingest.take().expect("checked above");
        let filter = self.capture_filter.take().unwrap_or_else(|| {
            CaptureFilter::derive(
                &self.ontology,
                self.policies.all(),
                self.preferences.all(),
                &self.macs,
            )
        });
        let mut report = IngestReport::empty();

        // Admission: bounded per-zone mailboxes; a full zone pushes back.
        for obs in observations {
            if let Err(rejected) = pipeline.admit(now_ms, obs.clone()) {
                let category = rejected.payload.category(&self.ontology);
                pipeline.note_drop(&rejected, category, CaptureDropReason::Backpressure);
                report.rejected.push(rejected);
            }
        }

        // Drain in capture order, each observation under its zone's
        // ladder rung, through the capture filter and the storage-time
        // enforcement decision the one-at-a-time path makes.
        let work = pipeline.drain(now_ms, &self.model, &filter);
        let mut rows: Vec<StoredRow> = Vec::new();
        for (rung, mut obs) in work {
            self.sensors.observe(&obs);
            let category = obs.payload.category(&self.ontology);
            if filter.suppresses(&obs) {
                pipeline.note_drop(&obs, category, CaptureDropReason::CaptureFilter);
                continue;
            }
            if rung >= LadderRung::SuppressNonEssential
                && !filter.essential_category(&self.ontology, &obs)
            {
                pipeline.note_drop(&obs, category, CaptureDropReason::Degraded);
                report.suppressed += 1;
                continue;
            }
            if rung >= LadderRung::CoarsenAtCapture && coarsen_at_capture(&mut obs) {
                pipeline.note_coarsened();
                report.coarsened += 1;
            }
            match self.storage_grant(&obs, category) {
                Some((policy, retention)) => {
                    if self.config.fault_plan.should_fail(FaultPoint::StoreWrite) {
                        self.store_write_failures += 1;
                        pipeline.note_drop(&obs, category, CaptureDropReason::StoreFault);
                    } else {
                        rows.push(StoredRow {
                            category,
                            policy,
                            stored_at: obs.timestamp,
                            expires_at: retention
                                .map(|secs| Timestamp(obs.timestamp.seconds() + secs)),
                            observation: obs,
                        });
                    }
                }
                None => {
                    pipeline.note_drop(&obs, category, CaptureDropReason::Unauthorized);
                    report.unauthorized += 1;
                }
            }
        }

        // Group commit: one fsync for the whole chunk sequence. A commit
        // whose durability cannot be proven (fsync stall, append failure)
        // makes the batch unadmitted — rows are dropped and audited, never
        // stored on an unproven log.
        let batch_max = pipeline.config().batch_max.max(1);
        report.synced = true;
        if let Some(wal) = self.wal.as_mut().filter(|_| !rows.is_empty()) {
            let records: Vec<WalRecord> = rows
                .chunks(batch_max)
                .map(|chunk| WalRecord::Ingest {
                    rows: chunk.to_vec(),
                })
                .collect();
            let plan = self.config.fault_plan.clone();
            let outcome = wal.append_batch(&records, &plan);
            match outcome {
                Ok(commit) if commit.synced => {
                    pipeline.note_group_commit();
                    if let Some(tap) = self.record_tap.as_mut() {
                        tap.extend(records);
                    }
                }
                Ok(_) => report.synced = false,
                Err(_) => {
                    self.wal_append_failures += 1;
                    report.synced = false;
                }
            }
        }
        if report.synced {
            report.stored = rows.len();
            pipeline.note_stored(rows.len() as u64);
            for row in rows {
                self.store.insert_row(row);
            }
        } else {
            report.unadmitted = rows.len();
            for row in &rows {
                pipeline.note_drop(
                    &row.observation,
                    row.category,
                    CaptureDropReason::DurabilityLost,
                );
            }
        }
        self.ingest = Some(pipeline);
        self.capture_filter = Some(filter);
        report
    }

    /// Lifetime counters of the batched capture pipeline, when configured.
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.ingest.as_ref().map(IngestPipeline::stats)
    }

    /// The audited capture-drop trail (empty without a pipeline): every
    /// observation the pipeline refused to store, with the reason.
    pub fn capture_drops(&self) -> &[CaptureDrop] {
        self.ingest.as_ref().map_or(&[], IngestPipeline::drops)
    }

    /// The batched capture pipeline, when configured (mailbox statistics,
    /// ladder occupancy).
    pub fn ingest_pipeline(&self) -> Option<&IngestPipeline> {
        self.ingest.as_ref()
    }

    /// Pushes capture-time suppression (unconditional location denials) to
    /// the simulator's network devices.
    pub fn sync_capture_settings(&mut self, sim: &mut BuildingSimulator) {
        let suppressed =
            SensorManager::capture_suppression(&self.ontology, self.preferences.all(), &self.macs);
        SensorManager::sync_suppression(&self.ontology, &suppressed, sim);
    }

    /// Policy 1's actuation loop output.
    pub fn thermostat_commands(&self, floors: &[SpaceId], now: Timestamp) -> Vec<HvacCommand> {
        self.sensors.thermostat_commands(&self.model, floors, now)
    }

    /// The live occupancy belief for a room (from motion/camera signals;
    /// `None` when unknown or stale).
    pub fn room_occupied(&self, space: SpaceId, now: Timestamp) -> Option<bool> {
        self.sensors.room_occupied(space, now)
    }

    /// Runs retention garbage collection. Returns rows deleted.
    ///
    /// The legacy single-record path: deletions are logged as one logical
    /// [`WalRecord::Gc`] with no begin/commit bracket and no certificate.
    /// The provable path is [`Tippers::sweep`].
    pub fn gc(&mut self, now: Timestamp) -> usize {
        let removed = self.store.gc(now);
        if removed > 0 {
            self.log(WalRecord::Gc { now });
        }
        removed
    }

    // ---- enforced retention (provable deletion) ------------------------------

    /// Runs one provable retention sweep: expired rows are deleted and the
    /// deletion bracketed in the log ([`WalRecord::SweepBegin`], the
    /// physical [`WalRecord::SweepDelete`], [`WalRecord::SweepCommit`]),
    /// and a [`DeletionCertificate`] is recorded in the audit log and
    /// journaled on the tamper-evident chain. Crash-safe: recovery
    /// finishes a sweep interrupted at any record boundary, so every
    /// expired row is deleted exactly once with a matching certificate.
    /// Returns rows deleted.
    pub fn sweep(&mut self, now: Timestamp) -> usize {
        self.finish_pending_sweep();
        self.last_sweep_at = Some(now);
        let rows = self.store.gc_collect(now);
        if rows.is_empty() {
            return 0;
        }
        let id = self.next_sweep_id;
        self.next_sweep_id += 1;
        let count = rows.len();
        self.log(WalRecord::SweepBegin { id, now });
        self.log(WalRecord::SweepDelete {
            id,
            rows: rows.clone(),
        });
        self.pending_sweep = Some(PendingSweep {
            id,
            now,
            rows,
            deleted_logged: true,
        });
        if self.config.fault_plan.should_fail(FaultPoint::SweepCrash) {
            // Injected crash window: the commit record never lands. The
            // pending sweep stays open for recovery (or the next sweep)
            // to finish exactly once.
            return count;
        }
        self.commit_pending_sweep();
        count
    }

    /// True while a sweep has begun but not committed.
    pub fn sweep_in_progress(&self) -> bool {
        self.pending_sweep.is_some()
    }

    /// Fires the configured virtual-time sweep schedule
    /// ([`TippersConfig::sweep_every_secs`]): sweeps when at least one
    /// period of virtual time has passed since the last sweep. Followers
    /// never sweep — they replay the primary's shipped sweep records.
    fn maybe_sweep(&mut self, now: Timestamp) {
        let Some(every) = self.config.sweep_every_secs else {
            return;
        };
        if self.serve_follower {
            return;
        }
        let due = self
            .last_sweep_at
            .is_none_or(|last| now.seconds().saturating_sub(last.seconds()) >= every);
        if due {
            self.sweep(now);
        }
    }

    /// Finishes a sweep interrupted between its WAL records: if the
    /// deleted-rows record never landed the expired rows are re-collected
    /// (replay reproduces the interrupted run's store state, so the rows —
    /// and therefore the certificate digest — come out identical), then
    /// the commit follows.
    fn finish_pending_sweep(&mut self) {
        let Some(pending) = self.pending_sweep.as_ref() else {
            return;
        };
        if !pending.deleted_logged {
            let (id, now) = (pending.id, pending.now);
            let rows = self.store.gc_collect(now);
            if let Some(p) = self.pending_sweep.as_mut() {
                p.rows = rows.clone();
                p.deleted_logged = true;
            }
            self.log(WalRecord::SweepDelete { id, rows });
        }
        self.commit_pending_sweep();
    }

    /// Commits the pending sweep: derives the deletion digest, records
    /// and journals the certificate, and logs [`WalRecord::SweepCommit`].
    fn commit_pending_sweep(&mut self) {
        let Some(pending) = self.pending_sweep.take() else {
            return;
        };
        let digest = deletion_digest(pending.id, pending.now, &pending.rows);
        let certificate = DeletionCertificate {
            sweep: pending.id,
            time: pending.now,
            rows: pending.rows.len() as u64,
            digest: digest.clone(),
        };
        self.certify(certificate);
        self.log(WalRecord::SweepCommit {
            id: pending.id,
            now: pending.now,
            rows: pending.rows.len() as u64,
            digest,
        });
    }

    /// All deletion certificates, oldest first.
    pub fn deletion_certificates(&self) -> &[DeletionCertificate] {
        self.audit.certificates()
    }

    // ---- accountability (tamper-evident audit) -------------------------------

    /// The node-local tamper-evident audit chain (read-only).
    pub fn audit_chain(&self) -> &AuditChain {
        &self.audit_chain
    }

    /// Verifies the chain's open (unsealed) run: sequence continuity,
    /// linkage, and every record MAC. Returns records checked.
    ///
    /// # Errors
    ///
    /// The first [`ChainFault`] found.
    pub fn verify_audit_chain(&self) -> Result<u64, ChainFault> {
        self.audit_chain.verify()
    }

    /// Loads every archived sealed segment from the log backend and
    /// verifies the full lineage: each segment internally, segment-to-
    /// segment linkage from genesis, and continuity with the live chain
    /// (so truncating the archive's tail is detected too). Returns
    /// archived records checked.
    ///
    /// # Errors
    ///
    /// [`ChainFault::Corrupt`] for a segment that no longer parses, or
    /// the first lineage/MAC/root fault found.
    pub fn verify_audit_archive(&self) -> Result<u64, ChainFault> {
        self.audit_chain.verify_archive(&self.audit_archive(&[])?)
    }

    /// Every audited decision this node has made, oldest first, read from
    /// the audit chain — the engine's only decision record. Verifies the
    /// archive lineage ([`Tippers::verify_audit_archive`]) and the open
    /// run ([`Tippers::verify_audit_chain`]) before decoding the
    /// [`ChainEvent::Decision`] payloads in sequence order; a sealed
    /// segment whose archive write is awaiting retry is read from memory.
    /// After a crash this is the history up to the last archived segment:
    /// a checkpoint succeeds only once the open run is archived, so
    /// nothing before it is lost.
    ///
    /// # Errors
    ///
    /// The first [`ChainFault`] found in the archive or the open run.
    pub fn decisions(&self) -> Result<Vec<AuditEntry>, ChainFault> {
        let archive = self.audit_archive(&self.unarchived)?;
        self.audit_chain.verify_archive(&archive)?;
        self.audit_chain.verify()?;
        let records = archive
            .iter()
            .flat_map(|segment| &segment.records)
            .chain(self.audit_chain.open_records());
        let mut decisions = Vec::new();
        for record in records {
            match serde_json::from_str::<ChainEvent>(&record.payload) {
                Ok(ChainEvent::Decision { entry }) => decisions.push(entry),
                Ok(ChainEvent::Deletion { .. }) => {}
                Err(_) => {
                    return Err(ChainFault::Corrupt {
                        name: format!("record {}", record.seq),
                    })
                }
            }
        }
        Ok(decisions)
    }

    /// The archived sealed segments in sequence order (none without a
    /// log), with each of `pending` standing in for whatever its failed
    /// archive write left under its name.
    ///
    /// # Errors
    ///
    /// [`ChainFault::Corrupt`] naming the first segment that no longer
    /// parses, or the archive prefix when the backend cannot list it.
    fn audit_archive(&self, pending: &[SealedSegment]) -> Result<Vec<SealedSegment>, ChainFault> {
        let Some(wal) = self.wal.as_ref() else {
            return Ok(Vec::new());
        };
        let archived = read_audit_archive(wal).map_err(|_| ChainFault::Corrupt {
            name: ARCHIVE_PREFIX.to_owned(),
        })?;
        let mut segments = pending.to_vec();
        for (name, segment) in archived {
            if pending.iter().any(|p| archive_name(p) == name) {
                continue;
            }
            segments.push(segment.ok_or(ChainFault::Corrupt { name })?);
        }
        segments.sort_by_key(|s| s.first_seq);
        Ok(segments)
    }

    /// Sealed-segment archive writes that failed since open.
    pub fn audit_archive_failures(&self) -> u64 {
        self.audit_archive_failures
    }

    // ---- disclosure quotas ---------------------------------------------------

    /// Budget units `(user, service, purpose)` has consumed in the window
    /// containing `now` (0 when quotas are disabled).
    pub fn quota_used(
        &self,
        user: UserId,
        service: &ServiceId,
        purpose: ConceptId,
        now: Timestamp,
    ) -> u32 {
        self.config.quota.map_or(0, |config| {
            self.quotas.used(user, service, purpose, now, config)
        })
    }

    /// Quota charges whose durable record was dropped — each one rolled
    /// back and its request denied fail-closed.
    pub fn quota_charge_drops(&self) -> u64 {
        self.quota_charge_drops
    }

    /// Marks this node a replication follower (or primary again): a
    /// follower serves reads check-only — it never originates quota
    /// charges or sweeps; its durable state moves only through shipped
    /// records.
    pub(crate) fn set_serve_follower(&mut self, follower: bool) {
        self.serve_follower = follower;
    }

    /// Applies the disclosure budget to one subject's decision on the
    /// release path: exhausted budgets — and charges whose durable record
    /// was dropped — turn a permit into a fail-closed
    /// [`crate::DecisionBasis::QuotaExceeded`] denial, which is audited
    /// like any other decision.
    fn apply_quota(
        &mut self,
        user: UserId,
        request: &DataRequest,
        now: Timestamp,
        decision: EnforcementDecision,
    ) -> EnforcementDecision {
        let Some(config) = self.config.quota else {
            return decision;
        };
        if !decision.permits() {
            return decision;
        }
        if self
            .quotas
            .exhausted(user, &request.service, request.purpose, now, config)
        {
            return EnforcementDecision::quota_exceeded();
        }
        if self.serve_follower {
            // Followers check but never charge: the primary's shipped
            // QuotaCharge records drive this ledger.
            return decision;
        }
        if self
            .config
            .fault_plan
            .should_fail(FaultPoint::QuotaCounterDrop)
        {
            // The durable charge was dropped before it could land: deny
            // rather than disclose against an uncharged budget.
            self.quota_charge_drops += 1;
            return EnforcementDecision::quota_exceeded();
        }
        self.quotas
            .charge(user, &request.service, request.purpose, now, config);
        let failures_before = self.wal_append_failures;
        self.log(WalRecord::QuotaCharge {
            user,
            service: request.service.clone(),
            purpose: request.purpose,
            now,
        });
        if self.wal_append_failures > failures_before {
            // The charge is in memory but not durable: roll it back and
            // fail closed — an uncharged counter must mean an undisclosed
            // row, never the other way around.
            self.quotas
                .rollback(user, &request.service, request.purpose);
            self.quota_charge_drops += 1;
            return EnforcementDecision::quota_exceeded();
        }
        decision
    }

    // ---- snapshot & recovery -------------------------------------------------

    /// Captures the BMS's durable state (store, preferences, pending
    /// notifications, deletion certificates, quota counters) for crash
    /// recovery. Audited decisions are not included: the audit chain is
    /// their record. Policies, ontology, and spatial model are
    /// administrative configuration the operator re-applies on startup and
    /// are not included.
    pub fn snapshot(&self) -> crate::Snapshot {
        let (preferences, next_preference_id) = self.preferences.snapshot_parts();
        crate::Snapshot {
            version: crate::SNAPSHOT_VERSION,
            store: self.store.clone(),
            preferences,
            next_preference_id,
            audit: self.audit.clone(),
            quotas: self.quotas.clone(),
        }
    }

    /// Rebuilds a BMS from a snapshot taken by [`Tippers::snapshot`]. The
    /// caller supplies the administrative configuration (ontology, model,
    /// config) and re-adds policies afterwards, mirroring a real restart.
    ///
    /// # Errors
    ///
    /// [`crate::SnapshotError::UnsupportedVersion`] for a foreign format,
    /// [`crate::SnapshotError::Inconsistent`] if the snapshot's id
    /// allocator trails its own preferences.
    pub fn from_snapshot(
        ontology: Ontology,
        model: SpatialModel,
        config: TippersConfig,
        snapshot: crate::Snapshot,
    ) -> Result<Tippers, crate::SnapshotError> {
        let mut bms = Tippers::new(ontology, model, config);
        bms.restore_durable_state(snapshot)?;
        Ok(bms)
    }

    /// Validates a snapshot and installs its durable state (store,
    /// preferences, notifications, certificates, quotas), invalidating the
    /// enforcement engine. Shared by [`Tippers::from_snapshot`] and
    /// checkpoint replay.
    fn restore_durable_state(
        &mut self,
        snapshot: crate::Snapshot,
    ) -> Result<(), crate::SnapshotError> {
        snapshot.check_version()?;
        if let Some(bad) = snapshot
            .preferences
            .iter()
            .find(|p| p.id.0 >= snapshot.next_preference_id)
        {
            return Err(crate::SnapshotError::Inconsistent(format!(
                "preference {} is at or above the id allocator ({})",
                bad.id, snapshot.next_preference_id
            )));
        }
        if !snapshot.audit.entries().is_empty() {
            return Err(crate::SnapshotError::Inconsistent(
                "decision entries belong on the audit chain, not in a snapshot".to_owned(),
            ));
        }
        self.store = snapshot.store;
        self.preferences =
            PreferenceManager::from_parts(snapshot.preferences, snapshot.next_preference_id);
        self.audit = snapshot.audit;
        self.quotas = snapshot.quotas;
        self.enforcer = None;
        self.capture_filter = None;
        Ok(())
    }

    // ---- service requests (steps 9–10) ---------------------------------------

    /// Handles a service's data request, enforcing per-subject decisions.
    ///
    /// When admission control is configured ([`TippersConfig::admission`])
    /// the request first passes a priority-classed gate: expired deadlines
    /// and shed requests are answered *fail-closed* — every subject denied
    /// with [`crate::DecisionBasis::Overload`] and audited — and Emergency
    /// traffic is never shed. The brownout ladder then bounds how much
    /// work an admitted request may do (coarse answers, cached answers).
    pub fn handle_request(&mut self, request: &DataRequest, now: Timestamp) -> DataResponse {
        let now_ms = ms_from_secs(now.seconds());
        // Stage 1: expired work is dropped at the door, not processed.
        if request.deadline.is_some_and(|d| d < now) {
            if let Some(ctrl) = self.admission.as_mut() {
                ctrl.record_external_shed(request.priority);
            }
            return self.deny_all(request, now, EnforcementDecision::shed_overload());
        }
        // Stage 2: priority-classed admission + brownout ladder.
        let mut admitted = false;
        let mut level = BrownoutLevel::Normal;
        if let Some(ctrl) = self.admission.as_mut() {
            let load = ctrl.load(now_ms);
            let previous = self.brownout.level();
            level = self.brownout.observe(now_ms, load);
            if level > previous {
                self.health
                    .mark_degraded(format!("brownout escalated to {level}"));
            } else if level == BrownoutLevel::Normal
                && previous > BrownoutLevel::Normal
                && self.enforcer.is_some()
            {
                self.health.mark_recovered();
            }
            if ctrl.admit(request.priority, now_ms, level).is_err() {
                return self.deny_all(request, now, EnforcementDecision::shed_overload());
            }
            admitted = true;
        }
        // Stage 3: the retention schedule rides the request path (the only
        // place virtual time flows through a live BMS).
        self.maybe_sweep(now);
        self.ensure_enforcer();
        let subjects = self.subjects_of(request, now);
        // Virtual cost per subject: lets the deadline expire *mid-request*,
        // so a long fan-out is abandoned partway instead of finishing late.
        let per_subject_ms = self
            .admission
            .as_ref()
            .map_or(0.0, AdmissionController::service_time_ms);
        let mut results = Vec::with_capacity(subjects.len());
        for (i, user) in subjects.into_iter().enumerate() {
            let stage_ms = now_ms + (per_subject_ms * i as f64) as i64;
            let expired = request
                .deadline
                .is_some_and(|d| ms_from_secs(d.seconds()) < stage_ms);
            // Fail closed: if the engine could not be built, every subject
            // is denied with an explicit InternalError audit record; work
            // reached past its deadline is denied as Overload.
            let decision = if expired {
                EnforcementDecision::shed_overload()
            } else {
                match self.enforcer.as_ref() {
                    Some(e) => {
                        let flow = RequestFlow {
                            subject: user,
                            subject_group: self.group_of(user),
                            data: request.data,
                            purpose: request.purpose,
                            service: Some(request.service.clone()),
                            action: DataAction::Share,
                            time: now,
                            subject_space: self.current_space_of(user, now),
                            requester_space: request.requester_space,
                            room_occupied: None,
                        };
                        e.decide(&flow, &self.ontology, &self.model)
                    }
                    None => EnforcementDecision::fail_closed(),
                }
            };
            // The disclosure budget gates the release *before* the audit
            // record, so an exhausted budget is audited as the
            // QuotaExceeded denial it produced.
            let decision = self.apply_quota(user, request, now, decision);
            self.record_decision(
                now,
                user,
                Some(request.service.clone()),
                request.data,
                request.purpose,
                &decision,
            );
            let records = if decision.permits() {
                self.release_under_brownout(user, request, &decision, level)
            } else {
                Vec::new()
            };
            results.push(SubjectResult {
                user,
                decision,
                records,
            });
        }
        if admitted {
            if let Some(ctrl) = self.admission.as_mut() {
                ctrl.complete(now_ms);
            }
        }
        DataResponse {
            results,
            degraded: self.health.is_degraded(),
        }
    }

    /// Resolves a request's subject selector to concrete users.
    fn subjects_of(&self, request: &DataRequest, now: Timestamp) -> Vec<UserId> {
        match &request.subjects {
            SubjectSelector::One(u) => vec![*u],
            SubjectSelector::All => {
                let mut v: Vec<UserId> = self.groups.keys().copied().collect();
                v.sort();
                v
            }
            SubjectSelector::InSpace(space) => {
                let mut v: Vec<UserId> = self
                    .groups
                    .keys()
                    .copied()
                    .filter(|&u| {
                        self.current_space_of(u, now)
                            .is_some_and(|s| self.model.contains(*space, s))
                    })
                    .collect();
                v.sort();
                v
            }
        }
    }

    /// Releases rows for one permitted subject, applying the brownout
    /// ladder: [`BrownoutLevel::CoarseOnly`] caps location granularity at
    /// floor level, [`BrownoutLevel::CachedOnly`] replays the last fresh
    /// answer (released under an identical decision effect) instead of
    /// querying the store. Emergency traffic always gets the full path.
    fn release_under_brownout(
        &mut self,
        user: UserId,
        request: &DataRequest,
        decision: &EnforcementDecision,
        level: BrownoutLevel,
    ) -> Vec<ReleasedRecord> {
        let emergency = request.priority == Priority::Emergency;
        let key = (request.service.as_str().to_owned(), user, request.data);
        if level >= BrownoutLevel::CachedOnly && !emergency {
            return match self.coarse_cache.get(&key) {
                Some((effect, records)) if *effect == decision.effect => records.clone(),
                _ => Vec::new(),
            };
        }
        let mut records = self.release_rows(user, request, decision);
        if level >= BrownoutLevel::CoarseOnly && !emergency {
            for record in &mut records {
                if let ReleasedValue::Location(loc) = &record.value {
                    if let Some(space) = loc.space {
                        if loc.granularity < Granularity::Floor {
                            record.value = ReleasedValue::Location(GranularLocation::degrade(
                                &self.model,
                                space,
                                None,
                                Granularity::Floor,
                            ));
                        }
                    }
                }
            }
        }
        if self.admission.is_some() {
            self.coarse_cache
                .insert(key, (decision.effect, records.clone()));
        }
        records
    }

    /// Per-class admission counters, when admission control is configured.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(AdmissionController::stats)
    }

    /// The brownout ladder's current rung.
    pub fn brownout_level(&self) -> BrownoutLevel {
        self.brownout.level()
    }

    /// Privacy-preserving aggregate occupancy query (§IV.B.2's
    /// "aggregated or anonymized" disclosure level): distinct-subject
    /// counts per time bucket over a space subtree, with per-subject
    /// preference exclusion and k-anonymity suppression.
    pub fn handle_aggregate(
        &mut self,
        request: &AggregateRequest,
        now: Timestamp,
    ) -> AggregateResponse {
        self.ensure_enforcer();
        let c = self.ontology.concepts().clone();
        // Contributions: any subject-bearing row captured inside the space.
        let rows: Vec<(Timestamp, UserId, SpaceId)> = self
            .store
            .query_category(&self.ontology, c.data, request.from, request.to)
            .into_iter()
            .filter(|r| self.model.contains(request.space, r.observation.space))
            .filter_map(|r| {
                r.observation
                    .subject
                    .map(|u| (r.observation.timestamp, u, r.observation.space))
            })
            .collect();
        // Preference filter: a subject whose preferences deny occupancy
        // flowing to this service/purpose is excluded entirely.
        let mut subjects: Vec<UserId> = rows.iter().map(|&(_, u, _)| u).collect();
        subjects.sort();
        subjects.dedup();
        let mut excluded = std::collections::HashSet::new();
        for &user in &subjects {
            let flow = RequestFlow {
                subject: user,
                subject_group: self.group_of(user),
                data: c.occupancy,
                purpose: request.purpose,
                service: Some(request.service.clone()),
                action: DataAction::Share,
                time: now,
                subject_space: Some(request.space),
                requester_space: None,
                room_occupied: None,
            };
            // Fail closed: without an engine every subject is excluded
            // from the aggregate, audited as InternalError.
            let decision = match self.enforcer.as_ref() {
                Some(e) => e.decide(&flow, &self.ontology, &self.model),
                None => EnforcementDecision::fail_closed(),
            };
            self.record_decision(
                now,
                user,
                Some(request.service.clone()),
                c.occupancy,
                request.purpose,
                &decision,
            );
            if !decision.permits() {
                excluded.insert(user);
            }
        }
        let contributions: Vec<(Timestamp, UserId)> = rows
            .into_iter()
            .filter(|(_, u, _)| !excluded.contains(u))
            .map(|(t, u, _)| (t, u))
            .collect();
        AggregateResponse {
            buckets: bucketize(
                &contributions,
                request.from,
                request.to,
                request.bucket_secs,
                self.config.k_anonymity,
            ),
            excluded_subjects: excluded.len() as u32,
            k: self.config.k_anonymity,
            degraded: self.health.is_degraded(),
        }
    }

    /// Convenience: one user's (possibly degraded) current location for a
    /// service (Figure 1's step 9: "a service requests TIPPERS about
    /// Mary's location").
    pub fn locate(
        &mut self,
        request_service: tippers_policy::ServiceId,
        purpose: ConceptId,
        user: UserId,
        now: Timestamp,
    ) -> Option<GranularLocation> {
        let c = self.ontology.concepts().clone();
        let request = DataRequest {
            service: request_service,
            purpose,
            data: c.location_room,
            subjects: SubjectSelector::One(user),
            from: Timestamp(now.seconds() - 3600),
            to: Timestamp(now.seconds() + 1),
            requester_space: None,
            priority: Priority::Interactive,
            deadline: None,
        };
        let response = self.handle_request(&request, now);
        let result = response.results.into_iter().next()?;
        result
            .records
            .into_iter()
            .rev()
            .find_map(|r| match r.value {
                ReleasedValue::Location(l) => Some(l),
                _ => None,
            })
    }

    /// The BMS's belief about a user's current space (latest network row).
    fn current_space_of(&self, user: UserId, now: Timestamp) -> Option<SpaceId> {
        let c = self.ontology.concepts();
        let row = self.store.latest_for(&self.ontology, user, c.data, now)?;
        if now - row.observation.timestamp > 3600 {
            return None;
        }
        Some(row.observation.space)
    }

    fn release_rows(
        &mut self,
        user: UserId,
        request: &DataRequest,
        decision: &EnforcementDecision,
    ) -> Vec<ReleasedRecord> {
        let location_categories = {
            let c = self.ontology.concepts();
            [c.wifi_association, c.bluetooth_sighting, c.location]
        };
        // Location requests are answered from network observations, which
        // is what the store actually holds (the paper's Figure 2: the MAC
        // log *is* the location record).
        let is_location_request = {
            let c = self.ontology.concepts();
            self.ontology.data.is_a(request.data, c.location)
                || self.ontology.data.compatible(request.data, c.location)
        };
        let rows: Vec<crate::store::StoredRow> = if is_location_request {
            let mut rows = Vec::new();
            for cat in location_categories {
                rows.extend(
                    self.store
                        .query_subject(&self.ontology, user, cat, request.from, request.to)
                        .into_iter()
                        .cloned(),
                );
            }
            rows.sort_by_key(|r| r.observation.timestamp);
            rows
        } else {
            self.store
                .query_subject(&self.ontology, user, request.data, request.from, request.to)
                .into_iter()
                .cloned()
                .collect()
        };

        let granularity = match decision.effect {
            Effect::Degrade(g) => g,
            _ => Granularity::Exact,
        };
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let value = match &row.observation.payload {
                ObservationPayload::WifiAssociation { .. }
                | ObservationPayload::BeaconSighting { .. } => {
                    // Network rows reveal the capturing device's space —
                    // room granularity at best.
                    let g = granularity.coarsest(Granularity::Room);
                    ReleasedValue::Location(GranularLocation::degrade(
                        &self.model,
                        row.observation.space,
                        None,
                        g,
                    ))
                }
                ObservationPayload::Motion { detected } => ReleasedValue::Flag(*detected),
                ObservationPayload::PowerReading { watts } => {
                    let noised = match decision.effect {
                        Effect::Noise { sigma } => watts + self.gaussian() * sigma,
                        _ => *watts,
                    };
                    ReleasedValue::Scalar(noised)
                }
                ObservationPayload::Temperature { celsius } => ReleasedValue::Scalar(*celsius),
                ObservationPayload::CameraFrame { occupant_count, .. } => {
                    ReleasedValue::Count(*occupant_count)
                }
                ObservationPayload::BadgeSwipe { user, .. } => ReleasedValue::Identity(*user),
                // Future payload kinds are withheld until a release mapping
                // exists for them (privacy-conservative default).
                _ => continue,
            };
            out.push(ReleasedRecord {
                time: row.observation.timestamp,
                value,
            });
        }
        out
    }

    /// Approximate standard normal via the central limit theorem.
    fn gaussian(&mut self) -> f64 {
        let sum: f64 = (0..12).map(|_| self.noise_rng.gen::<f64>()).sum();
        sum - 6.0
    }

    /// Patches the enforcement index for one settings change, and marks
    /// the capture filter for re-derivation. Without an index there is
    /// nothing to patch: the next read builds one over the changed lists.
    /// A patch consults [`FaultPoint::EnforcerBuild`] as a build does; an
    /// injected failure drops the index and marks the BMS degraded, so
    /// decisions fail closed until the next read's rebuild succeeds.
    fn settings_changed(&mut self, patch: impl FnOnce(&mut IndexedEnforcer, &Ontology)) {
        self.capture_filter = None;
        let Some(index) = self.enforcer.as_mut() else {
            return;
        };
        if self
            .config
            .fault_plan
            .should_fail(FaultPoint::EnforcerBuild)
        {
            self.enforcer = None;
            self.health
                .mark_degraded("enforcement engine patch failed; failing closed");
            return;
        }
        patch(index, &self.ontology);
    }

    /// Successful enforcement-index builds since this engine was created.
    /// Settings changes patch the index, so this grows only at the first
    /// read after open, a restore, or a failed patch or build.
    pub fn enforcer_builds(&self) -> u64 {
        self.enforcer_builds
    }

    /// Builds the enforcement index if there is none: at the first read
    /// after open, a checkpoint replay or snapshot restore, or a failed
    /// patch. Settings changes patch an existing index in place
    /// ([`Tippers::settings_changed`]). An injected
    /// [`FaultPoint::EnforcerBuild`] failure leaves the engine absent and
    /// marks the BMS degraded — subsequent decisions fail closed until a
    /// rebuild succeeds.
    fn ensure_enforcer(&mut self) {
        if self.enforcer.is_some() {
            return;
        }
        if self
            .config
            .fault_plan
            .should_fail(FaultPoint::EnforcerBuild)
        {
            self.health
                .mark_degraded("enforcement engine rebuild failed; failing closed");
            return;
        }
        let policies = self.policies.all().to_vec();
        let prefs = self.preferences.all().to_vec();
        self.enforcer = Some(IndexedEnforcer::new(
            policies,
            prefs,
            self.config.strategy,
            &self.ontology,
        ));
        self.enforcer_builds += 1;
        self.health.mark_recovered();
    }
}

/// The archive file name of a sealed segment (zero-padded, so name order
/// is sequence order).
fn archive_name(segment: &SealedSegment) -> String {
    format!("{ARCHIVE_PREFIX}{:010}.seg", segment.first_seq)
}

/// Reads every archived sealed segment file through the log backend, in
/// name (so sequence) order, each with its segment or `None` when it no
/// longer parses. Parsing is lazy: recovery walks back from the newest
/// file to the first that parses; verification parses them all and
/// reports the rest as [`ChainFault::Corrupt`].
fn read_audit_archive(
    wal: &Wal,
) -> Result<impl DoubleEndedIterator<Item = (String, Option<SealedSegment>)>, WalError> {
    Ok(wal
        .archived(ARCHIVE_PREFIX)?
        .into_iter()
        .map(|(name, bytes)| {
            let segment = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| serde_json::from_str::<SealedSegment>(text).ok());
            (name, segment)
        }))
}

/// The deletion digest a [`DeletionCertificate`] carries: SHA-256 (hex)
/// over the sweep id, sweep time, and the canonical JSON of every deleted
/// row. A pure function of the `SweepDelete` record's contents, so
/// recovery finishing an interrupted sweep re-derives exactly the digest
/// the uninterrupted run would have committed, and replicas replaying the
/// commit can match certificates byte-for-byte.
///
/// The hashed text is `sweep:{id:016x}:{seconds}:` and then each row's
/// JSON followed by a newline; it is streamed into the hasher, one row at
/// a time through a reused buffer.
fn deletion_digest(id: u64, now: Timestamp, rows: &[StoredRow]) -> String {
    let mut hasher = Sha256::new();
    hasher.update(format!("sweep:{id:016x}:{}:", now.seconds()).as_bytes());
    let mut json = String::new();
    for row in rows {
        json.clear();
        row.write_json(&mut json);
        json.push('\n');
        hasher.update(json.as_bytes());
    }
    hex(&hasher.finish())
}
