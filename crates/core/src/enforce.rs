//! The enforcement engine: deciding, per flow, what a data subject's
//! preferences and the building's policies jointly permit.
//!
//! §V.C: enforcement maps policies and preferences to a *where* (device or
//! BMS), *when* (capture, storage, processing, sharing) and *how*
//! (accept/deny, granularity reduction, noise). This module is the BMS-side
//! decision point; capture-time suppression lives in the sensor settings
//! (see `tippers-sensors`).
//!
//! Two interchangeable implementations realize design decision **D1**:
//! [`NaiveEnforcer`] scans every policy and preference per decision;
//! [`IndexedEnforcer`] pre-indexes policies by data-category family and
//! preferences by user. They are property-tested equivalent, and
//! experiment E8 benchmarks the gap — the paper's claim that "the cost of
//! enforcement can be large enough to be prohibitive" without optimization.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use tippers_ontology::{ConceptId, Ontology};
use tippers_policy::{
    conflict::data_overlaps, BuildingPolicy, ConditionContext, DataAction, Effect, FlowRef,
    Modality, PolicyId, PreferenceId, ResolutionStrategy, ServiceId, Timestamp, UserGroup, UserId,
    UserPreference,
};
use tippers_spatial::{SpaceId, SpatialModel};

/// One concrete data flow to decide on.
#[derive(Debug, Clone)]
pub struct RequestFlow {
    /// The data subject.
    pub subject: UserId,
    /// The subject's group (for group-scoped policies).
    pub subject_group: UserGroup,
    /// Data category requested.
    pub data: ConceptId,
    /// Purpose of the flow.
    pub purpose: ConceptId,
    /// Consuming service, if any.
    pub service: Option<ServiceId>,
    /// Lifecycle stage.
    pub action: DataAction,
    /// Decision time.
    pub time: Timestamp,
    /// Where the subject is (or where the data was captured), if known.
    pub subject_space: Option<SpaceId>,
    /// Where the requester is, if known (Policy 4's proximity gate).
    pub requester_space: Option<SpaceId>,
    /// Whether the room in question is occupied, if known.
    pub room_occupied: Option<bool>,
}

/// Why a decision came out the way it did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionBasis {
    /// A mandatory policy forced the flow through.
    MandatoryPolicy(PolicyId),
    /// The subject's own preference decided.
    Preference(PreferenceId),
    /// No matching preference; the policy's modality default applied.
    PolicyDefault(PolicyId),
    /// No building policy authorizes this practice at all — default deny.
    NoAuthorizingPolicy,
    /// The BMS could not evaluate the flow (e.g. the enforcement engine
    /// failed to build) and fell back to denying. Enforcement fails
    /// *closed*: an internal error never releases data, and the audit trail
    /// says so explicitly rather than masquerading as a policy decision.
    InternalError,
    /// The request was shed by admission control (rate limit, concurrency
    /// limit, brownout, or an expired deadline) before any policy was
    /// evaluated. Like [`DecisionBasis::InternalError`] this fails
    /// *closed* — overload never releases data — and is audited under its
    /// own basis so shed traffic is distinguishable from policy denials.
    Overload,
    /// A replica answered the request but could not prove its replication
    /// lag was within the configured staleness bound (partitioned from the
    /// primary, or simply too far behind). Bounded-staleness reads fail
    /// *closed*: rather than guessing from possibly-stale settings, the
    /// replica denies and audits the denial under this basis so it is
    /// distinguishable from a policy decision.
    StaleReplica,
    /// The (user, service, purpose) disclosure budget is exhausted — or a
    /// charge against it could not be made durable. Either way the release
    /// path fails *closed*: an over-querying service is denied (and the
    /// denial audited under this basis) rather than allowed to drain a
    /// subject's data past the configured budget, and an unaccountable
    /// charge never discloses.
    QuotaExceeded,
    /// The enforcement shard owning this subject is quarantined — it
    /// panicked or stalled and is being rebuilt from its WAL partition.
    /// The router fails *closed*: rather than guessing what the rebuilt
    /// shard would decide, it denies and audits the denial under this
    /// basis so degraded-mode traffic is distinguishable from policy
    /// denials and from healthy shards' decisions.
    ShardUnavailable,
}

/// The outcome of deciding one flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnforcementDecision {
    /// What to do with the flow.
    pub effect: Effect,
    /// Why.
    pub basis: DecisionBasis,
    /// Set when a mandatory policy overrode a stricter preference — the
    /// IoTA surfaces this to the user (§III.B's "informing users about it").
    pub overridden_preference: Option<PreferenceId>,
}

impl EnforcementDecision {
    /// True if the flow may proceed in some form.
    pub fn permits(&self) -> bool {
        !self.effect.is_deny()
    }

    /// The fail-closed decision: deny, on the basis of an internal error.
    /// Used whenever the BMS cannot evaluate a flow.
    pub fn fail_closed() -> EnforcementDecision {
        EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::InternalError,
            overridden_preference: None,
        }
    }

    /// The shed decision: deny, on the basis of overload. Admission
    /// control fails closed — a shed request is never a permit.
    pub fn shed_overload() -> EnforcementDecision {
        EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::Overload,
            overridden_preference: None,
        }
    }

    /// The bounded-staleness decision: deny, because the answering replica
    /// cannot prove its lag is within the configured bound. Replicated
    /// reads fail closed rather than guessing from stale settings.
    pub fn stale_replica() -> EnforcementDecision {
        EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::StaleReplica,
            overridden_preference: None,
        }
    }

    /// The quota decision: deny, because the (user, service, purpose)
    /// disclosure budget is spent or a charge could not be made durable.
    pub fn quota_exceeded() -> EnforcementDecision {
        EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::QuotaExceeded,
            overridden_preference: None,
        }
    }

    /// The quarantined-shard decision: deny, because the shard owning
    /// this subject is down and rebuilding from its WAL partition. The
    /// router fails closed rather than deciding from state it does not
    /// own.
    pub fn shard_unavailable() -> EnforcementDecision {
        EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::ShardUnavailable,
            overridden_preference: None,
        }
    }
}

/// A policy/preference decision engine.
///
/// Implementations must agree with [`NaiveEnforcer`] (the executable
/// specification); see the `enforcer_equivalence` property test.
pub trait Enforcer {
    /// Decides one flow.
    fn decide(
        &self,
        flow: &RequestFlow,
        ontology: &Ontology,
        model: &SpatialModel,
    ) -> EnforcementDecision;
}

/// True if `policy` governs `flow`.
pub fn policy_applies(
    policy: &BuildingPolicy,
    flow: &RequestFlow,
    ontology: &Ontology,
    model: &SpatialModel,
) -> bool {
    if !policy.actions.contains(flow.action) {
        return false;
    }
    // Capture-side stages need the observation's category to fall *under*
    // the policy's declared collection category; consumption-side stages
    // also accept categories merely *inferable* from it (a location request
    // is served by the WiFi-log policy, but a WiFi-log policy never
    // authorizes storing, say, motion data just because occupancy is
    // inferable from WiFi logs).
    let data_ok = match flow.action {
        DataAction::Collect | DataAction::Store => ontology.data.is_a(flow.data, policy.data),
        DataAction::Infer | DataAction::Share | DataAction::Actuate => {
            data_overlaps(policy.data, flow.data, ontology)
        }
    };
    if !data_ok {
        return false;
    }
    if !ontology.purposes.is_a(flow.purpose, policy.purpose) {
        return false;
    }
    if !policy.subjects.matches(flow.subject, flow.subject_group) {
        return false;
    }
    if let (Some(policy_svc), Some(flow_svc)) = (&policy.service, &flow.service) {
        if policy_svc != flow_svc {
            return false;
        }
    }
    if let Some(space) = flow.subject_space {
        if !model.contains(policy.space, space) {
            return false;
        }
    }
    let ctx = condition_context(flow, model);
    policy.condition.is_satisfied(&ctx)
}

fn condition_context<'a>(flow: &RequestFlow, model: &'a SpatialModel) -> ConditionContext<'a> {
    ConditionContext {
        model,
        time: flow.time,
        subject_space: flow.subject_space,
        requester_space: flow.requester_space,
        room_occupied: flow.room_occupied,
    }
}

fn flow_ref<'a>(flow: &'a RequestFlow) -> FlowRef<'a> {
    FlowRef {
        data: flow.data,
        purpose: flow.purpose,
        service: flow.service.as_ref(),
        space: flow.subject_space,
    }
}

/// Resolves the subject's matching preferences (highest priority, then
/// strictest, then lowest id) from an iterator of candidates, in one pass.
fn preference_verdict<'a>(
    prefs: impl Iterator<Item = &'a UserPreference>,
    flow: &RequestFlow,
    ontology: &Ontology,
    model: &SpatialModel,
) -> Option<(Effect, PreferenceId)> {
    let ctx = condition_context(flow, model);
    let fr = flow_ref(flow);
    let winner = prefs
        .filter(|p| p.user == flow.subject)
        .filter(|p| p.scope.covers(&fr, ontology, &ctx))
        .max_by_key(|p| (p.priority, p.effect.strictness(), std::cmp::Reverse(p.id)))?;
    Some((winner.effect, winner.id))
}

/// What `decide_from_parts` needs to know about the policies that apply to
/// a flow, gathered in one pass without collecting them.
#[derive(Debug, Clone, Copy, Default)]
struct Applicable {
    /// The first applicable policy.
    first: Option<PolicyId>,
    /// The first applicable mandatory policy.
    required: Option<PolicyId>,
    /// The first applicable opt-out policy.
    opt_out: Option<PolicyId>,
}

impl Applicable {
    /// Scans `policies` in order. Stops at the first mandatory policy,
    /// which decides the flow whatever else applies.
    fn scan<'a>(
        policies: impl Iterator<Item = &'a BuildingPolicy>,
        flow: &RequestFlow,
        ontology: &Ontology,
        model: &SpatialModel,
    ) -> Applicable {
        let mut out = Applicable::default();
        for p in policies.filter(|p| policy_applies(p, flow, ontology, model)) {
            out.first.get_or_insert(p.id);
            match p.modality {
                Modality::Required => {
                    out.required = Some(p.id);
                    break;
                }
                Modality::OptOut => {
                    out.opt_out.get_or_insert(p.id);
                }
                Modality::OptIn => {}
            }
        }
        out
    }
}

/// Core decision logic shared by both enforcers, given the applicable
/// policies and the preference verdict.
fn decide_from_parts(
    applicable: Applicable,
    pref: Option<(Effect, PreferenceId)>,
    strategy: ResolutionStrategy,
) -> EnforcementDecision {
    if let Some(req) = applicable.required {
        // Mandatory policy: by default it prevails; other strategies let
        // the preference bite.
        return match (strategy, pref) {
            (ResolutionStrategy::PolicyPrevails, Some((e, pid))) if e.strictness() > 0 => {
                EnforcementDecision {
                    effect: Effect::Allow,
                    basis: DecisionBasis::MandatoryPolicy(req),
                    overridden_preference: Some(pid),
                }
            }
            (ResolutionStrategy::PolicyPrevails, _) => EnforcementDecision {
                effect: Effect::Allow,
                basis: DecisionBasis::MandatoryPolicy(req),
                overridden_preference: None,
            },
            (_, Some((e, pid))) => EnforcementDecision {
                effect: e,
                basis: DecisionBasis::Preference(pid),
                overridden_preference: None,
            },
            (_, None) => EnforcementDecision {
                effect: Effect::Allow,
                basis: DecisionBasis::MandatoryPolicy(req),
                overridden_preference: None,
            },
        };
    }
    let Some(first) = applicable.first else {
        return EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::NoAuthorizingPolicy,
            overridden_preference: None,
        };
    };
    if let Some((e, pid)) = pref {
        return EnforcementDecision {
            effect: e,
            basis: DecisionBasis::Preference(pid),
            overridden_preference: None,
        };
    }
    // No preference: modality default. Opt-out policies default-allow;
    // opt-in policies default-deny. If both kinds apply, the opt-out
    // authorization suffices for the flow.
    match applicable.opt_out {
        Some(p) => EnforcementDecision {
            effect: Effect::Allow,
            basis: DecisionBasis::PolicyDefault(p),
            overridden_preference: None,
        },
        None => EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::PolicyDefault(first),
            overridden_preference: None,
        },
    }
}

/// The executable specification: linear scan over all policies and
/// preferences per decision.
#[derive(Debug, Clone)]
pub struct NaiveEnforcer {
    policies: Vec<BuildingPolicy>,
    preferences: Vec<UserPreference>,
    strategy: ResolutionStrategy,
}

impl NaiveEnforcer {
    /// Creates a naive enforcer.
    pub fn new(
        policies: Vec<BuildingPolicy>,
        preferences: Vec<UserPreference>,
        strategy: ResolutionStrategy,
    ) -> Self {
        NaiveEnforcer {
            policies,
            preferences,
            strategy,
        }
    }
}

impl Enforcer for NaiveEnforcer {
    fn decide(
        &self,
        flow: &RequestFlow,
        ontology: &Ontology,
        model: &SpatialModel,
    ) -> EnforcementDecision {
        let applicable = Applicable::scan(self.policies.iter(), flow, ontology, model);
        let pref = preference_verdict(self.preferences.iter(), flow, ontology, model);
        decide_from_parts(applicable, pref, self.strategy)
    }
}

/// The optimized enforcer: for every data category, the policies whose
/// data-category family (own category + descendants + inferable
/// categories, the same scheme as `tippers_policy::ConflictIndex`) can
/// overlap a request for it; preferences indexed by user. Deciding a flow
/// allocates nothing.
///
/// A settings change patches the index in place ([`IndexedEnforcer::publish`],
/// [`IndexedEnforcer::retract`], [`IndexedEnforcer::submit`],
/// [`IndexedEnforcer::choose`]); the patched index equals the one
/// [`IndexedEnforcer::new`] builds over the changed lists.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedEnforcer {
    policies: Vec<BuildingPolicy>,
    /// Candidate policy indices per data concept index, ascending.
    candidates: Vec<Vec<usize>>,
    prefs_by_user: HashMap<UserId, Vec<UserPreference>>,
    strategy: ResolutionStrategy,
}

/// The data concepts whose probe reaches a policy on `data`. A policy
/// registers under its family: its own category, its descendants, and
/// everything inferable from it. A request probes its category plus its
/// descendants, which reaches every policy whose data practice overlaps
/// the request (including shared-sub-category and inferred-data overlaps);
/// the precise `policy_applies` check runs on the survivors. The probe of
/// category `c` meets the family exactly when `c` is an ancestor-or-self
/// of a family member, so these are those concepts, once each, ascending.
fn probed_by(data: ConceptId, ontology: &Ontology) -> Vec<ConceptId> {
    let mut family = vec![data];
    family.extend(ontology.data.descendants(data));
    family.extend(ontology.inferable_from(data).iter().map(|inf| inf.concept));
    let mut concepts = Vec::new();
    for k in family {
        concepts.push(k);
        concepts.extend(ontology.data.ancestors(k));
    }
    concepts.sort_unstable();
    concepts.dedup();
    concepts
}

impl IndexedEnforcer {
    /// Builds the indexes.
    pub fn new(
        policies: Vec<BuildingPolicy>,
        preferences: Vec<UserPreference>,
        strategy: ResolutionStrategy,
        ontology: &Ontology,
    ) -> Self {
        let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); ontology.data.len()];
        let mut probes: HashMap<ConceptId, Vec<ConceptId>> = HashMap::new();
        for (i, p) in policies.iter().enumerate() {
            let concepts = probes
                .entry(p.data)
                .or_insert_with(|| probed_by(p.data, ontology));
            for c in concepts.iter() {
                candidates[c.index()].push(i);
            }
        }
        let mut prefs_by_user: HashMap<UserId, Vec<UserPreference>> = HashMap::new();
        for p in preferences {
            prefs_by_user.entry(p.user).or_default().push(p);
        }
        IndexedEnforcer {
            policies,
            candidates,
            prefs_by_user,
            strategy,
        }
    }

    /// Appends a published policy. Its slot is the largest, so every
    /// candidate list it joins stays ascending.
    pub fn publish(&mut self, policy: BuildingPolicy, ontology: &Ontology) {
        let slot = self.policies.len();
        for c in probed_by(policy.data, ontology) {
            self.candidates[c.index()].push(slot);
        }
        self.policies.push(policy);
    }

    /// Removes every policy with `id` (as `PolicyManager::remove` does)
    /// and shifts the higher slots down: one pass over the candidate
    /// lists, which keeps them ascending.
    pub fn retract(&mut self, id: PolicyId) {
        // The new slot of each old slot; `usize::MAX` for a removed one.
        let mut next = 0;
        let slots: Vec<usize> = self
            .policies
            .iter()
            .map(|p| {
                if p.id == id {
                    usize::MAX
                } else {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        self.policies.retain(|p| p.id != id);
        for list in &mut self.candidates {
            list.retain_mut(|i| {
                *i = slots[*i];
                *i != usize::MAX
            });
        }
    }

    /// Adds a submitted preference after the user's earlier ones.
    pub fn submit(&mut self, preference: UserPreference) {
        self.prefs_by_user
            .entry(preference.user)
            .or_default()
            .push(preference);
    }

    /// Adds a setting-derived preference, first dropping the user's
    /// earlier choice for the same setting: the preference carrying the
    /// same marker note (as `PreferenceManager` does).
    pub fn choose(&mut self, preference: UserPreference) {
        let prefs = self.prefs_by_user.entry(preference.user).or_default();
        prefs.retain(|p| p.note != preference.note);
        prefs.push(preference);
    }
}

impl Enforcer for IndexedEnforcer {
    fn decide(
        &self,
        flow: &RequestFlow,
        ontology: &Ontology,
        model: &SpatialModel,
    ) -> EnforcementDecision {
        let candidates = self
            .candidates
            .get(flow.data.index())
            .map_or(&[][..], Vec::as_slice);
        let applicable = Applicable::scan(
            candidates.iter().map(|&i| &self.policies[i]),
            flow,
            ontology,
            model,
        );
        let pref = self
            .prefs_by_user
            .get(&flow.subject)
            .and_then(|prefs| preference_verdict(prefs.iter(), flow, ontology, model));
        decide_from_parts(applicable, pref, self.strategy)
    }
}

/// A helper constructing flows with sensible unknowns.
impl RequestFlow {
    /// A share-stage flow for a service request.
    pub fn share(
        subject: UserId,
        subject_group: UserGroup,
        data: ConceptId,
        purpose: ConceptId,
        service: Option<ServiceId>,
        time: Timestamp,
    ) -> RequestFlow {
        RequestFlow {
            subject,
            subject_group,
            data,
            purpose,
            service,
            action: DataAction::Share,
            time,
            subject_space: None,
            requester_space: None,
            room_occupied: None,
        }
    }

    /// A store-stage flow for ingest.
    pub fn store(
        subject: UserId,
        subject_group: UserGroup,
        data: ConceptId,
        purpose: ConceptId,
        space: SpaceId,
        time: Timestamp,
    ) -> RequestFlow {
        RequestFlow {
            subject,
            subject_group,
            data,
            purpose,
            service: None,
            action: DataAction::Store,
            time,
            subject_space: Some(space),
            requester_space: None,
            room_occupied: None,
        }
    }

    /// Sets the subject's space (builder-style).
    pub fn at_space(mut self, space: SpaceId) -> RequestFlow {
        self.subject_space = Some(space);
        self
    }

    /// Sets the requester's space (builder-style).
    pub fn requester_at(mut self, space: SpaceId) -> RequestFlow {
        self.requester_space = Some(space);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_policy::catalog;
    use tippers_policy::{PreferenceId, PreferenceScope};
    use tippers_spatial::fixtures::dbh;

    struct Env {
        ontology: Ontology,
        dbh: tippers_spatial::fixtures::Dbh,
    }

    fn env() -> Env {
        Env {
            ontology: Ontology::standard(),
            dbh: dbh(),
        }
    }

    fn paper_policies(env: &Env) -> Vec<BuildingPolicy> {
        vec![
            catalog::policy1_thermostat(PolicyId(1), env.dbh.building, &env.ontology),
            catalog::policy2_emergency_location(PolicyId(2), env.dbh.building, &env.ontology),
            catalog::policy3_meeting_room_access(
                PolicyId(3),
                env.dbh.building,
                env.dbh.meeting_rooms.clone(),
                &env.ontology,
            ),
            catalog::policy4_event_proximity(PolicyId(4), vec![env.dbh.lobby], &env.ontology),
        ]
    }

    #[test]
    fn unauthorized_practice_is_denied() {
        let env = env();
        let c = env.ontology.concepts();
        let enforcer = NaiveEnforcer::new(vec![], vec![], ResolutionStrategy::PolicyPrevails);
        let flow = RequestFlow::share(
            UserId(1),
            UserGroup::Staff,
            c.location_fine,
            c.marketing,
            None,
            Timestamp::at(0, 12, 0),
        );
        let d = enforcer.decide(&flow, &env.ontology, &env.dbh.model);
        assert_eq!(d.effect, Effect::Deny);
        assert_eq!(d.basis, DecisionBasis::NoAuthorizingPolicy);
    }

    #[test]
    fn mandatory_policy_overrides_deny_preference() {
        let env = env();
        let c = env.ontology.concepts();
        let pref = catalog::preference2_no_location(PreferenceId(2), UserId(1), &env.ontology);
        let enforcer = NaiveEnforcer::new(
            paper_policies(&env),
            vec![pref],
            ResolutionStrategy::PolicyPrevails,
        );
        let flow = RequestFlow::share(
            UserId(1),
            UserGroup::GradStudent,
            c.location_room,
            c.emergency_response,
            None,
            Timestamp::at(0, 12, 0),
        );
        let d = enforcer.decide(&flow, &env.ontology, &env.dbh.model);
        assert_eq!(d.effect, Effect::Allow);
        assert_eq!(d.basis, DecisionBasis::MandatoryPolicy(PolicyId(2)));
        assert_eq!(d.overridden_preference, Some(PreferenceId(2)));
    }

    #[test]
    fn preference_denies_non_mandatory_flow() {
        let env = env();
        let c = env.ontology.concepts();
        let pref = catalog::preference2_no_location(PreferenceId(2), UserId(1), &env.ontology);
        let mut policies = paper_policies(&env);
        // Add an opt-out location service policy (the Concierge's).
        policies.push(
            BuildingPolicy::new(
                PolicyId(5),
                "Concierge location",
                env.dbh.building,
                c.location_fine,
                c.navigation,
            )
            .with_actions(tippers_policy::ActionSet::ALL)
            .with_service(catalog::services::concierge()),
        );
        let enforcer = NaiveEnforcer::new(policies, vec![pref], ResolutionStrategy::PolicyPrevails);
        let flow = RequestFlow::share(
            UserId(1),
            UserGroup::GradStudent,
            c.location_fine,
            c.navigation,
            Some(catalog::services::concierge()),
            Timestamp::at(0, 12, 0),
        );
        let d = enforcer.decide(&flow, &env.ontology, &env.dbh.model);
        assert_eq!(d.effect, Effect::Deny);
        assert_eq!(d.basis, DecisionBasis::Preference(PreferenceId(2)));
    }

    #[test]
    fn preference3_exception_allows_concierge() {
        let env = env();
        let c = env.ontology.concepts();
        let prefs = vec![
            catalog::preference2_no_location(PreferenceId(2), UserId(1), &env.ontology),
            catalog::preference3_concierge_location(PreferenceId(3), UserId(1), &env.ontology),
        ];
        let mut policies = paper_policies(&env);
        policies.push(
            BuildingPolicy::new(
                PolicyId(5),
                "Concierge location",
                env.dbh.building,
                c.location_fine,
                c.navigation,
            )
            .with_actions(tippers_policy::ActionSet::ALL)
            .with_service(catalog::services::concierge()),
        );
        let enforcer = NaiveEnforcer::new(policies, prefs, ResolutionStrategy::PolicyPrevails);
        let flow = RequestFlow::share(
            UserId(1),
            UserGroup::GradStudent,
            c.location_fine,
            c.navigation,
            Some(catalog::services::concierge()),
            Timestamp::at(0, 12, 0),
        );
        let d = enforcer.decide(&flow, &env.ontology, &env.dbh.model);
        assert_eq!(d.effect, Effect::Allow);
        assert_eq!(d.basis, DecisionBasis::Preference(PreferenceId(3)));
    }

    #[test]
    fn opt_in_policies_default_deny() {
        let env = env();
        let c = env.ontology.concepts();
        let enforcer = NaiveEnforcer::new(
            paper_policies(&env),
            vec![],
            ResolutionStrategy::PolicyPrevails,
        );
        // Policy 4 (event details) is opt-in; with no grant, deny.
        let flow = RequestFlow::share(
            UserId(1),
            UserGroup::Undergrad,
            c.event_details,
            c.event_coordination,
            Some(catalog::services::concierge()),
            Timestamp::at(0, 12, 0),
        )
        .at_space(env.dbh.lobby)
        .requester_at(env.dbh.lobby);
        let d = enforcer.decide(&flow, &env.ontology, &env.dbh.model);
        assert_eq!(d.effect, Effect::Deny);
        assert!(matches!(d.basis, DecisionBasis::PolicyDefault(_)));
        // With an opt-in grant, allowed.
        let grant = UserPreference::new(
            PreferenceId(9),
            UserId(1),
            PreferenceScope {
                data: Some(c.event_details),
                ..Default::default()
            },
            Effect::Allow,
        );
        let enforcer2 = NaiveEnforcer::new(
            paper_policies(&env),
            vec![grant],
            ResolutionStrategy::PolicyPrevails,
        );
        let d2 = enforcer2.decide(&flow, &env.ontology, &env.dbh.model);
        assert_eq!(d2.effect, Effect::Allow);
    }

    #[test]
    fn policy4_proximity_gate() {
        let env = env();
        let c = env.ontology.concepts();
        let grant = UserPreference::new(
            PreferenceId(9),
            UserId(1),
            PreferenceScope::default(),
            Effect::Allow,
        );
        let enforcer = NaiveEnforcer::new(
            paper_policies(&env),
            vec![grant],
            ResolutionStrategy::PolicyPrevails,
        );
        // Requester far away: the only applicable policy's condition fails,
        // so nothing authorizes the flow.
        let far = RequestFlow::share(
            UserId(1),
            UserGroup::Undergrad,
            c.event_details,
            c.event_coordination,
            Some(catalog::services::concierge()),
            Timestamp::at(0, 12, 0),
        )
        .at_space(env.dbh.lobby)
        .requester_at(env.dbh.offices[50]);
        let d = enforcer.decide(&far, &env.ontology, &env.dbh.model);
        assert_eq!(d.effect, Effect::Deny);
        assert_eq!(d.basis, DecisionBasis::NoAuthorizingPolicy);
    }

    #[test]
    fn degrade_preference_survives_resolution() {
        let env = env();
        let c = env.ontology.concepts();
        let pref = catalog::preference_coarse_location(
            PreferenceId(7),
            UserId(1),
            tippers_spatial::Granularity::Floor,
            &env.ontology,
        );
        let mut policies = paper_policies(&env);
        policies.push(
            BuildingPolicy::new(
                PolicyId(5),
                "location service",
                env.dbh.building,
                c.location_fine,
                c.navigation,
            )
            .with_actions(tippers_policy::ActionSet::ALL),
        );
        let enforcer = NaiveEnforcer::new(policies, vec![pref], ResolutionStrategy::PolicyPrevails);
        let flow = RequestFlow::share(
            UserId(1),
            UserGroup::Faculty,
            c.location_fine,
            c.navigation,
            None,
            Timestamp::at(0, 12, 0),
        );
        let d = enforcer.decide(&flow, &env.ontology, &env.dbh.model);
        assert_eq!(
            d.effect,
            Effect::Degrade(tippers_spatial::Granularity::Floor)
        );
    }

    #[test]
    fn the_first_applicable_policy_of_each_kind_decides() {
        let env = env();
        let c = env.ontology.concepts();
        let policy = |id, modality| {
            BuildingPolicy::new(
                PolicyId(id),
                "location service",
                env.dbh.building,
                c.location_fine,
                c.navigation,
            )
            .with_actions(tippers_policy::ActionSet::ALL)
            .with_modality(modality)
        };
        let all = vec![
            policy(10, Modality::OptIn),
            policy(11, Modality::OptOut),
            policy(12, Modality::OptOut),
            policy(13, Modality::Required),
            policy(14, Modality::Required),
        ];
        let flow = RequestFlow::share(
            UserId(1),
            UserGroup::Staff,
            c.location_fine,
            c.navigation,
            None,
            Timestamp::at(0, 12, 0),
        );
        for (policies, effect, basis) in [
            (
                all.clone(),
                Effect::Allow,
                DecisionBasis::MandatoryPolicy(PolicyId(13)),
            ),
            (
                all[..3].to_vec(),
                Effect::Allow,
                DecisionBasis::PolicyDefault(PolicyId(11)),
            ),
            (
                all[..1].to_vec(),
                Effect::Deny,
                DecisionBasis::PolicyDefault(PolicyId(10)),
            ),
        ] {
            let naive =
                NaiveEnforcer::new(policies.clone(), vec![], ResolutionStrategy::PolicyPrevails);
            let indexed = IndexedEnforcer::new(
                policies,
                vec![],
                ResolutionStrategy::PolicyPrevails,
                &env.ontology,
            );
            for d in [
                naive.decide(&flow, &env.ontology, &env.dbh.model),
                indexed.decide(&flow, &env.ontology, &env.dbh.model),
            ] {
                assert_eq!(d.effect, effect);
                assert_eq!(d.basis, basis);
            }
        }
    }

    #[test]
    fn indexed_equals_naive_on_paper_examples() {
        let env = env();
        let c = env.ontology.concepts();
        let policies = paper_policies(&env);
        let prefs = vec![
            catalog::preference1_afterhours_occupancy(
                PreferenceId(1),
                UserId(1),
                env.dbh.offices[0],
                &env.ontology,
            ),
            catalog::preference2_no_location(PreferenceId(2), UserId(1), &env.ontology),
            catalog::preference3_concierge_location(PreferenceId(3), UserId(1), &env.ontology),
        ];
        let naive = NaiveEnforcer::new(
            policies.clone(),
            prefs.clone(),
            ResolutionStrategy::PolicyPrevails,
        );
        let indexed = IndexedEnforcer::new(
            policies,
            prefs,
            ResolutionStrategy::PolicyPrevails,
            &env.ontology,
        );
        let datas = [
            c.location_fine,
            c.occupancy,
            c.wifi_association,
            c.event_details,
        ];
        let purposes = [c.emergency_response, c.navigation, c.comfort, c.marketing];
        for &data in &datas {
            for &purpose in &purposes {
                for hour in [3, 12, 22] {
                    let flow = RequestFlow::share(
                        UserId(1),
                        UserGroup::GradStudent,
                        data,
                        purpose,
                        Some(catalog::services::concierge()),
                        Timestamp::at(0, hour, 0),
                    )
                    .at_space(env.dbh.offices[0]);
                    let a = naive.decide(&flow, &env.ontology, &env.dbh.model);
                    let b = indexed.decide(&flow, &env.ontology, &env.dbh.model);
                    assert_eq!(a, b, "data {data:?} purpose {purpose:?} hour {hour}");
                }
            }
        }
    }
}
