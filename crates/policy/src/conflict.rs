//! Conflict detection between building policies and user preferences.
//!
//! §III.B: "It is possible that user preferences conflict with the existing
//! building policies (e.g., Policy 2 and Preference 2). These conflicts
//! should be detected by the smart building management system (e.g., with
//! the help of a policy reasoner) which is in charge of enforcing the
//! policies by resolving these conflicts while informing users about it."
//!
//! Two detectors are provided (design decision **D2** in DESIGN.md):
//!
//! * [`detect_conflicts_naive`] — the obvious O(policies × preferences)
//!   pairwise scan.
//! * [`ConflictIndex`] — policies indexed by data-category family (own
//!   category, descendants, and inferable categories), so a preference only
//!   meets the policies it could possibly conflict with. Experiment E7
//!   benchmarks the two.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use tippers_ontology::{ConceptId, Ontology};
use tippers_spatial::SpatialModel;

use crate::ids::{PolicyId, PreferenceId};
use crate::policy::BuildingPolicy;
use crate::preference::{Effect, UserPreference};

/// Why a policy and a preference clash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConflictKind {
    /// The user denies a flow a mandatory policy requires (Policy 2 vs
    /// Preference 2).
    DenyOfRequired,
    /// The user degrades/noises a flow a mandatory policy requires in full
    /// fidelity.
    WeakeningOfRequired,
}

/// How a detected conflict is settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ResolutionStrategy {
    /// The building's mandatory policy prevails; the user is notified
    /// (the paper's default: required policies "have to be met completely").
    #[default]
    PolicyPrevails,
    /// The user's preference prevails (a privacy-first deployment).
    PreferencePrevails,
    /// The stricter of the two effects applies.
    Strictest,
}

/// A detected policy/preference conflict, plus its resolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conflict {
    /// The building policy involved.
    pub policy: PolicyId,
    /// The user preference involved.
    pub preference: PreferenceId,
    /// The kind of clash.
    pub kind: ConflictKind,
    /// Effect that will actually be enforced after resolution.
    pub resolved_effect: Effect,
    /// Strategy used to resolve.
    pub strategy: ResolutionStrategy,
    /// Message for the user's IoTA.
    pub notice: String,
}

/// True if the policy's data practice touches the preference's data
/// category: the categories are compatible (comparable or sharing a
/// sub-category), **or** the preference's category is inferable from what
/// the policy collects (§IV.B.2: users care about "the abstract information
/// that can be inferred from an observation", so a location preference must
/// reach a WiFi-log policy).
pub fn data_overlaps(policy_data: ConceptId, pref_data: ConceptId, ontology: &Ontology) -> bool {
    ontology.data.compatible(policy_data, pref_data)
        || ontology.can_infer_from(policy_data, pref_data)
}

/// True if the policy and preference can apply to the same flow:
/// overlapping data (collected or inferable), purposes, subjects, spaces,
/// and conditions.
pub fn scopes_overlap(
    policy: &BuildingPolicy,
    pref: &UserPreference,
    ontology: &Ontology,
    model: &SpatialModel,
) -> bool {
    if let Some(d) = pref.scope.data {
        if !data_overlaps(policy.data, d, ontology) {
            return false;
        }
    }
    if let Some(p) = pref.scope.purpose {
        if !ontology.purposes.compatible(policy.purpose, p) {
            return false;
        }
    }
    if let (Some(svc), Some(pol_svc)) = (&pref.scope.service, &policy.service) {
        if svc != pol_svc {
            return false;
        }
    }
    // A service-scoped preference cannot conflict with a non-service policy
    // only through the service clause; the flow could still match if the
    // policy governs data the service consumes — stay conservative and
    // require overlap only when both sides name a service.
    if !policy.subjects.may_match_user(pref.user) {
        return false;
    }
    if let Some(s) = pref.scope.space {
        if !model.overlap(policy.space, s) {
            return false;
        }
    }
    policy.condition.may_overlap(&pref.scope.condition, model)
}

/// Classifies a single (policy, preference) pair, resolving per `strategy`.
///
/// Only *required* policies conflict: an opt-out/opt-in policy accommodates
/// any preference by design.
pub fn classify(
    policy: &BuildingPolicy,
    pref: &UserPreference,
    ontology: &Ontology,
    model: &SpatialModel,
    strategy: ResolutionStrategy,
) -> Option<Conflict> {
    if !policy.is_required() {
        return None;
    }
    let kind = match pref.effect {
        Effect::Allow => return None,
        Effect::Deny => ConflictKind::DenyOfRequired,
        Effect::Degrade(_) | Effect::Noise { .. } => ConflictKind::WeakeningOfRequired,
    };
    if !scopes_overlap(policy, pref, ontology, model) {
        return None;
    }
    let resolved_effect = match strategy {
        ResolutionStrategy::PolicyPrevails => Effect::Allow,
        ResolutionStrategy::PreferencePrevails => pref.effect,
        ResolutionStrategy::Strictest => pref.effect.stricter(Effect::Allow),
    };
    Some(Conflict {
        policy: policy.id,
        preference: pref.id,
        kind,
        resolved_effect,
        strategy,
        notice: notice(policy, pref, strategy),
    })
}

/// The IoTA notice for a conflict, rendered into one buffer sized up front:
/// "Your preference {pref} cannot be honored: building policy `{name}`
/// ({description}) is mandatory." when the policy prevails, else "Your
/// preference {pref} overrides mandatory building policy `{name}`.".
fn notice(policy: &BuildingPolicy, pref: &UserPreference, strategy: ResolutionStrategy) -> String {
    use std::fmt::Write as _;

    // Either form's fixed text (at most 71 bytes), plus `pref#` and a u64.
    const FIXED: usize = 96;
    let mut text = String::with_capacity(FIXED + policy.name.len() + policy.description.len());
    text.push_str("Your preference ");
    write!(text, "{}", pref.id).expect("writing to a String cannot fail");
    if strategy == ResolutionStrategy::PolicyPrevails {
        text.push_str(" cannot be honored: building policy `");
        text.push_str(&policy.name);
        text.push_str("` (");
        text.push_str(&policy.description);
        text.push_str(") is mandatory.");
    } else {
        text.push_str(" overrides mandatory building policy `");
        text.push_str(&policy.name);
        text.push_str("`.");
    }
    text
}

/// Pairwise conflict detection — the naive baseline.
pub fn detect_conflicts_naive(
    policies: &[BuildingPolicy],
    prefs: &[UserPreference],
    ontology: &Ontology,
    model: &SpatialModel,
    strategy: ResolutionStrategy,
) -> Vec<Conflict> {
    let mut out = Vec::new();
    for policy in policies {
        for pref in prefs {
            if let Some(c) = classify(policy, pref, ontology, model, strategy) {
                out.push(c);
            }
        }
    }
    out
}

/// Data-category index over *required* policies, for fast conflict checks.
///
/// Each required policy is registered under (a) its own data category, (b)
/// every descendant of that category (so preferences over a shared
/// sub-category meet it), and (c) every category inferable from it (so a
/// `location` preference meets a WiFi-log policy). A preference over
/// category `c` probes `c`, its ancestors, and its descendants; set
/// intersection of those key families covers exactly the
/// [`data_overlaps`] relation, and the precise pairwise check runs only on
/// the surviving candidates. Preferences with no data clause fall back to
/// all required policies.
#[derive(Debug, Clone)]
pub struct ConflictIndex {
    by_category: HashMap<ConceptId, Vec<usize>>,
    all_required: Vec<usize>,
}

impl ConflictIndex {
    /// Builds the index over the *required* subset of `policies`.
    /// Indices stored refer to positions in the `policies` slice passed both
    /// here and to [`Self::detect`].
    pub fn build(policies: &[BuildingPolicy], ontology: &Ontology) -> ConflictIndex {
        let mut by_category: HashMap<ConceptId, Vec<usize>> = HashMap::new();
        let mut all_required = Vec::new();
        // Policies often share a data category; compute each category's key
        // family once.
        let mut family_cache: HashMap<ConceptId, Vec<ConceptId>> = HashMap::new();
        for (i, p) in policies.iter().enumerate() {
            if !p.is_required() {
                continue;
            }
            all_required.push(i);
            let keys = family_cache.entry(p.data).or_insert_with(|| {
                let mut keys = vec![p.data];
                keys.extend(ontology.data.descendants(p.data));
                for inf in ontology.inferable_from(p.data) {
                    keys.push(inf.concept);
                }
                keys.sort_unstable();
                keys.dedup();
                keys
            });
            for &k in keys.iter() {
                by_category.entry(k).or_default().push(i);
            }
        }
        ConflictIndex {
            by_category,
            all_required,
        }
    }

    /// Candidate policy indices for one preference.
    fn candidates(&self, pref: &UserPreference, ontology: &Ontology) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        match pref.scope.data {
            None => out.extend_from_slice(&self.all_required),
            Some(c) => {
                let mut probe = vec![c];
                probe.extend(ontology.data.ancestors(c));
                probe.extend(ontology.data.descendants(c));
                for key in probe {
                    if let Some(v) = self.by_category.get(&key) {
                        out.extend_from_slice(v);
                    }
                }
                out.sort_unstable();
                out.dedup();
            }
        }
        out
    }

    /// Indexed conflict detection; semantically identical to
    /// [`detect_conflicts_naive`] (property-tested).
    pub fn detect(
        &self,
        policies: &[BuildingPolicy],
        prefs: &[UserPreference],
        ontology: &Ontology,
        model: &SpatialModel,
        strategy: ResolutionStrategy,
    ) -> Vec<Conflict> {
        let mut out = Vec::new();
        for pref in prefs {
            if pref.effect == Effect::Allow {
                continue;
            }
            for i in self.candidates(pref, ontology) {
                if let Some(c) = classify(&policies[i], pref, ontology, model, strategy) {
                    out.push(c);
                }
            }
        }
        // Naive order is policy-major; normalize for comparability.
        out.sort_by_key(|c| (c.policy, c.preference));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PolicyId, PreferenceId, UserId};
    use crate::policy::Modality;
    use crate::preference::PreferenceScope;
    use tippers_spatial::Granularity;

    fn env() -> (Ontology, SpatialModel) {
        (Ontology::standard(), SpatialModel::new("campus"))
    }

    fn policy2(ont: &Ontology, model: &SpatialModel) -> BuildingPolicy {
        let c = ont.concepts();
        BuildingPolicy::new(
            PolicyId(2),
            "Location tracking in DBH",
            model.root(),
            c.location_room,
            c.emergency_response,
        )
        .with_description("Location is stored continuously for emergencies")
        .with_modality(Modality::Required)
    }

    fn preference2(ont: &Ontology) -> UserPreference {
        let c = ont.concepts();
        UserPreference::new(
            PreferenceId(2),
            UserId(1),
            PreferenceScope {
                data: Some(c.location),
                ..Default::default()
            },
            Effect::Deny,
        )
    }

    #[test]
    fn paper_example_policy2_vs_preference2() {
        let (ont, model) = env();
        let conflicts = detect_conflicts_naive(
            &[policy2(&ont, &model)],
            &[preference2(&ont)],
            &ont,
            &model,
            ResolutionStrategy::PolicyPrevails,
        );
        assert_eq!(conflicts.len(), 1);
        let c = &conflicts[0];
        assert_eq!(c.kind, ConflictKind::DenyOfRequired);
        assert_eq!(c.resolved_effect, Effect::Allow);
        assert!(c.notice.contains("mandatory"));
    }

    #[test]
    fn notices_render_the_documented_text_for_every_strategy() {
        let (ont, model) = env();
        let policy = policy2(&ont, &model);
        let mut pref = preference2(&ont);
        for id in [0, 2, 7_019, u64::MAX] {
            pref.id = PreferenceId(id);
            for strategy in [
                ResolutionStrategy::PolicyPrevails,
                ResolutionStrategy::PreferencePrevails,
                ResolutionStrategy::Strictest,
            ] {
                let expected = if strategy == ResolutionStrategy::PolicyPrevails {
                    format!(
                        "Your preference {} cannot be honored: building policy `{}` ({}) is mandatory.",
                        pref.id, policy.name, policy.description
                    )
                } else {
                    format!(
                        "Your preference {} overrides mandatory building policy `{}`.",
                        pref.id, policy.name
                    )
                };
                let conflict = classify(&policy, &pref, &ont, &model, strategy).expect("conflicts");
                assert_eq!(conflict.notice, expected);
            }
        }
    }

    #[test]
    fn optional_policies_never_conflict() {
        let (ont, model) = env();
        let mut p = policy2(&ont, &model);
        p.modality = Modality::OptOut;
        assert!(detect_conflicts_naive(
            &[p],
            &[preference2(&ont)],
            &ont,
            &model,
            ResolutionStrategy::PolicyPrevails,
        )
        .is_empty());
    }

    #[test]
    fn allow_preferences_never_conflict() {
        let (ont, model) = env();
        let mut pref = preference2(&ont);
        pref.effect = Effect::Allow;
        assert!(detect_conflicts_naive(
            &[policy2(&ont, &model)],
            &[pref],
            &ont,
            &model,
            ResolutionStrategy::PolicyPrevails,
        )
        .is_empty());
    }

    #[test]
    fn unrelated_data_category_no_conflict() {
        let (ont, model) = env();
        let c = ont.concepts();
        let mut pref = preference2(&ont);
        pref.scope.data = Some(c.ambient_temperature);
        assert!(detect_conflicts_naive(
            &[policy2(&ont, &model)],
            &[pref],
            &ont,
            &model,
            ResolutionStrategy::PolicyPrevails,
        )
        .is_empty());
    }

    #[test]
    fn degrade_is_weakening() {
        let (ont, model) = env();
        let mut pref = preference2(&ont);
        pref.effect = Effect::Degrade(Granularity::Building);
        let conflicts = detect_conflicts_naive(
            &[policy2(&ont, &model)],
            &[pref],
            &ont,
            &model,
            ResolutionStrategy::Strictest,
        );
        assert_eq!(conflicts[0].kind, ConflictKind::WeakeningOfRequired);
        assert_eq!(
            conflicts[0].resolved_effect,
            Effect::Degrade(Granularity::Building)
        );
    }

    #[test]
    fn preference_prevails_strategy() {
        let (ont, model) = env();
        let conflicts = detect_conflicts_naive(
            &[policy2(&ont, &model)],
            &[preference2(&ont)],
            &ont,
            &model,
            ResolutionStrategy::PreferencePrevails,
        );
        assert_eq!(conflicts[0].resolved_effect, Effect::Deny);
    }

    #[test]
    fn indexed_matches_naive_on_example() {
        let (ont, model) = env();
        let c = ont.concepts();
        let policies = vec![
            policy2(&ont, &model),
            BuildingPolicy::new(PolicyId(3), "camera", model.root(), c.image, c.surveillance)
                .with_modality(Modality::Required),
        ];
        let prefs = vec![
            preference2(&ont),
            UserPreference::new(
                PreferenceId(3),
                UserId(2),
                PreferenceScope::default(), // any data
                Effect::Deny,
            ),
        ];
        let naive = {
            let mut v = detect_conflicts_naive(
                &policies,
                &prefs,
                &ont,
                &model,
                ResolutionStrategy::PolicyPrevails,
            );
            v.sort_by_key(|c| (c.policy, c.preference));
            v
        };
        let idx = ConflictIndex::build(&policies, &ont);
        let fast = idx.detect(
            &policies,
            &prefs,
            &ont,
            &model,
            ResolutionStrategy::PolicyPrevails,
        );
        assert_eq!(naive, fast);
        assert_eq!(naive.len(), 3); // pref3 (any) hits both, pref2 hits policy2
    }
}
