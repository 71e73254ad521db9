//! TA014 — compilability.
//!
//! Two declarations resist reduction to finite decision tables. A
//! `requester_nearby` condition ranges over *continuous requester
//! positions*, so no finite table can hold it: the enforcer evaluates it,
//! interpreted, on every request the policy or preference matches, which
//! costs a requester-position check per decision (correct, but priced per
//! request: a warning). This reproduction has no compiled decision path —
//! every condition is interpreted — so the warning marks the conditions
//! that could never leave per-request evaluation, not a fast path they
//! forfeit. And a rule base whose inference rules form a cycle cannot be
//! stratified at all — closure computation still terminates (updates
//! require strictly increasing confidence) but the rule set has no
//! well-founded evaluation order, so each cycle is an **error** pinned to
//! `/ontology/rules` with the participating rule names as evidence.
//!
//! Cycles are global facts (computed once by the fact builder via
//! Tarjan's SCC over the rule-dependency graph); the condition check is
//! per policy/preference and depends on nothing else, so the pass needs
//! no cross-unit invalidation.

use super::{policy_owners, preference_owners, Pass};
use crate::diag::{Diagnostic, LintCode, Severity};
use crate::engine::{Context, UnitId};

pub(crate) struct Compile;

impl Pass for Compile {
    fn code(&self) -> LintCode {
        LintCode::Uncompilable
    }

    fn owners(&self, cx: &Context<'_>) -> Vec<UnitId> {
        let mut owners = vec![UnitId::Global];
        owners.extend(policy_owners(cx));
        owners.extend(preference_owners(cx));
        owners
    }

    fn may_interact(&self, _cx: &Context<'_>, _owner: UnitId, _changed: UnitId) -> bool {
        false
    }

    fn check(&self, cx: &Context<'_>, owner: UnitId) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        match owner {
            UnitId::Global => {
                for cycle in &cx.facts.rule_cycles {
                    out.push(
                        Diagnostic::new(
                            LintCode::Uncompilable,
                            Severity::Error,
                            "/ontology/rules",
                            format!(
                                "inference rules {} form a cycle: the rule base cannot \
                                 be stratified into a one-pass evaluation order",
                                cycle
                                    .iter()
                                    .map(|r| format!("`{r}`"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        )
                        .with_evidence(cycle.clone()),
                    );
                }
            }
            UnitId::Policy(id) => {
                for p in cx.policies_with_id(id) {
                    if p.condition.requester_nearby {
                        out.push(Diagnostic::new(
                            LintCode::Uncompilable,
                            Severity::Warning,
                            format!("/policies/{}/condition/requester_nearby", p.id.0),
                            format!(
                                "{} (`{}`) guards on requester_nearby, which ranges over \
                                 continuous requester positions: no finite decision \
                                 table can hold it, so it costs interpreted evaluation \
                                 on every request it matches",
                                p.id, p.name
                            ),
                        ));
                    }
                }
            }
            UnitId::Preference(id) => {
                for a in cx.preferences_with_id(id) {
                    if a.scope.condition.requester_nearby {
                        out.push(Diagnostic::new(
                            LintCode::Uncompilable,
                            Severity::Warning,
                            format!("/preferences/{}/scope/condition/requester_nearby", a.id.0),
                            format!(
                                "{} guards on requester_nearby, which ranges over \
                                 continuous requester positions: no finite decision \
                                 table can hold it, so it costs interpreted evaluation \
                                 on every request it matches",
                                a.id
                            ),
                        ));
                    }
                }
            }
            UnitId::Document(_) => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use tippers_ontology::{InferenceRule, Ontology};
    use tippers_policy::{BuildingPolicy, Condition, PolicyId};
    use tippers_spatial::fixtures;

    use super::*;
    use crate::corpus::DeploymentCorpus;
    use crate::passes::collect;

    #[test]
    fn the_standard_rule_base_compiles() {
        let dbh = fixtures::dbh();
        let corpus = DeploymentCorpus::new(Ontology::standard(), dbh.model);
        assert!(collect(&Compile, &corpus).is_empty());
    }

    #[test]
    fn a_rule_cycle_is_an_error_naming_its_members() {
        let dbh = fixtures::dbh();
        let mut ontology = Ontology::standard();
        let c = ontology.concepts().clone();
        ontology.add_rule(InferenceRule::new(
            "power-implies-temp",
            vec![c.power_consumption],
            c.ambient_temperature,
            0.5,
        ));
        ontology.add_rule(InferenceRule::new(
            "temp-implies-power",
            vec![c.ambient_temperature],
            c.power_consumption,
            0.5,
        ));
        let corpus = DeploymentCorpus::new(ontology, dbh.model);
        let out = collect(&Compile, &corpus);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, LintCode::Uncompilable);
        assert_eq!(out[0].severity, Severity::Error);
        assert_eq!(out[0].path, "/ontology/rules");
        assert_eq!(
            out[0].evidence,
            vec![
                "power-implies-temp".to_owned(),
                "temp-implies-power".to_owned()
            ]
        );
    }

    #[test]
    fn requester_nearby_guards_warn_on_policies() {
        let dbh = fixtures::dbh();
        let ontology = Ontology::standard();
        let c = ontology.concepts().clone();
        let mut corpus = DeploymentCorpus::new(ontology, dbh.model.clone());
        corpus.policies.push(
            BuildingPolicy::new(PolicyId(4), "nearby", dbh.lobby, c.occupancy, c.comfort)
                .with_condition(Condition::default().with_requester_nearby()),
        );
        let out = collect(&Compile, &corpus);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].severity, Severity::Warning);
        assert_eq!(out[0].path, "/policies/4/condition/requester_nearby");
    }

    #[test]
    fn the_figures_corpus_flags_policy_4() {
        // Figure 4's "share location when requester is nearby" setting
        // compiles to a requester_nearby guard.
        let corpus = DeploymentCorpus::figures();
        let out = collect(&Compile, &corpus);
        assert!(
            out.iter().all(|d| d.severity == Severity::Warning),
            "{out:?}"
        );
        assert!(
            out.iter().any(|d| d.path.starts_with("/policies/4")),
            "{out:?}"
        );
    }
}
