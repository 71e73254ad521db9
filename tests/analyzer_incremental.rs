//! WAL-driven incremental re-linting: the settings mutation that
//! `tippers::SettingsMutation::of` reads off each log record names exactly
//! the unit the analyzer must re-check, and the incrementally spliced
//! report always matches a full re-analysis of the mutated deployment.

use proptest::prelude::*;
use tippers::{SettingsMutation, WalRecord};
use tippers_analyzer::{analyze, Analyzer, DeploymentCorpus, UnitId};
use tippers_ontology::Ontology;
use tippers_policy::{
    ActionSet, BuildingPolicy, Effect, PolicyId, PreferenceId, PreferenceScope, Timestamp, UserId,
    UserPreference,
};
use tippers_spatial::fixtures;

/// Maps a core-vocabulary mutation onto the analyzer's unit space.
fn unit(m: SettingsMutation) -> UnitId {
    match m {
        SettingsMutation::Everything => UnitId::Global,
        SettingsMutation::Policy(id) => UnitId::Policy(id.0),
        SettingsMutation::Preference(id) => UnitId::Preference(id.0),
    }
}

/// Mirrors a WAL record onto the linted corpus (settings records carry
/// their assigned ids).
fn apply(corpus: &mut DeploymentCorpus, record: &WalRecord) {
    match record {
        WalRecord::AddPolicy { policy } => corpus.policies.push(policy.clone()),
        WalRecord::RemovePolicy { policy } => {
            corpus.policies.retain(|p| p.id != *policy);
        }
        WalRecord::SubmitPreferenceAssigned { preference, .. } => {
            corpus.preferences.push(preference.clone());
        }
        // Setting choices and retroactive purges dirty a unit without
        // changing the deployment spec — the analyzer must tolerate the
        // over-approximate invalidation.
        _ => {}
    }
}

#[test]
fn a_wal_tail_drives_incremental_relint() {
    let dbh = fixtures::dbh();
    let corpus = DeploymentCorpus::new(Ontology::standard(), dbh.model.clone());
    let c = corpus.ontology.concepts().clone();
    let mut analyzer = Analyzer::new(corpus.clone());
    let mut mirror = corpus;

    let sharing = {
        let mut p = BuildingPolicy::new(
            PolicyId(1),
            "WiFi share",
            dbh.building,
            c.wifi_association,
            c.emergency_response,
        );
        p.actions = ActionSet::ALL;
        p
    };
    let records = vec![
        WalRecord::AddPolicy {
            policy: BuildingPolicy::new(
                PolicyId(0),
                "Comfort sensing",
                dbh.building,
                c.occupancy,
                c.comfort,
            ),
        },
        WalRecord::AddPolicy { policy: sharing },
        WalRecord::SubmitPreferenceAssigned {
            preference: UserPreference::new(
                PreferenceId(0),
                UserId(3),
                PreferenceScope {
                    data: Some(c.location),
                    ..Default::default()
                },
                Effect::Deny,
            ),
            now: Timestamp(10),
        },
        WalRecord::SettingChoiceAssigned {
            user: UserId(3),
            policy: PolicyId(0),
            setting_key: "share".into(),
            option_index: 0,
            id: PreferenceId(1),
        },
        WalRecord::RemovePolicy {
            policy: PolicyId(1),
        },
        WalRecord::Gc { now: Timestamp(99) },
    ];
    for record in records {
        apply(&mut mirror, &record);
        let Some(changed) = SettingsMutation::of(&record).map(unit) else {
            // Data-plane record: nothing to re-lint.
            continue;
        };
        analyzer.update(mirror.clone(), &[changed]);
        assert_eq!(
            analyzer.report(),
            &analyze(&mirror),
            "drift after {record:?}"
        );
    }
}

proptest! {
    /// Random WAL tails over a random starting corpus: after every
    /// record, splicing the dirty units matches a full re-analysis.
    #[test]
    fn random_wal_tails_match_full_reanalysis(seed in any::<u64>(), steps in 1usize..10) {
        let dbh = fixtures::dbh();
        let corpus = DeploymentCorpus::new(Ontology::standard(), dbh.model.clone());
        let datas: Vec<_> = corpus
            .ontology
            .data
            .iter()
            .map(tippers_ontology::Concept::id)
            .collect();
        let purposes: Vec<_> = corpus
            .ontology
            .purposes
            .iter()
            .map(tippers_ontology::Concept::id)
            .collect();
        let spaces: Vec<_> = corpus.model.iter().map(tippers_spatial::Space::id).collect();

        let mut analyzer = Analyzer::new(corpus.clone());
        let mut mirror = corpus;
        // The engine's allocators: every settings record carries its id.
        let (mut next_policy, mut next_preference) = (0u64, 0u64);
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for step in 0..steps {
            let record = match next() % 5 {
                0 | 1 => {
                    next_policy += 1;
                    let mut p = BuildingPolicy::new(
                        PolicyId(next_policy - 1),
                        format!("policy {step}"),
                        spaces[next() % spaces.len()],
                        datas[next() % datas.len()],
                        purposes[next() % purposes.len()],
                    );
                    if next() % 2 == 0 {
                        p.actions = ActionSet::ALL;
                    }
                    WalRecord::AddPolicy { policy: p }
                }
                2 => {
                    next_preference += 1;
                    WalRecord::SubmitPreferenceAssigned {
                        preference: UserPreference::new(
                            PreferenceId(next_preference - 1),
                            UserId((next() % 4) as u64),
                            PreferenceScope {
                                data: Some(datas[next() % datas.len()]),
                                ..Default::default()
                            },
                            if next() % 2 == 0 { Effect::Deny } else { Effect::Allow },
                        ),
                        now: Timestamp(step as i64),
                    }
                }
                3 => WalRecord::RemovePolicy {
                    policy: PolicyId((next() % (step + 2)) as u64),
                },
                _ => {
                    next_preference += 1;
                    WalRecord::SettingChoiceAssigned {
                        user: UserId(1),
                        policy: PolicyId((next() % (step + 2)) as u64),
                        setting_key: "share".into(),
                        option_index: 0,
                        id: PreferenceId(next_preference - 1),
                    }
                }
            };
            apply(&mut mirror, &record);
            let changed: Vec<UnitId> = SettingsMutation::of(&record).map(unit).into_iter().collect();
            analyzer.update(mirror.clone(), &changed);
            prop_assert_eq!(analyzer.report(), &analyze(&mirror));
        }
    }
}
