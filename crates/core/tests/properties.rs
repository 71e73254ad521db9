//! Property-based tests for the enforcement engine and store.

use proptest::prelude::*;
use tippers::{
    Enforcer, IndexedEnforcer, NaiveEnforcer, PolicyManager, PreferenceManager, RequestFlow, Store,
    Tippers, TippersConfig,
};
use tippers_ontology::{ConceptId, Ontology};
use tippers_policy::conflict::detect_conflicts_naive;
use tippers_policy::{
    BuildingPolicy, Condition, DataAction, Effect, Modality, PolicyId, PreferenceId,
    PreferenceScope, ResolutionStrategy, ServiceId, TimeWindow, Timestamp, UserGroup, UserId,
    UserPreference,
};
use tippers_sensors::{DeviceId, MacAddress, Observation, ObservationPayload};
use tippers_spatial::{Granularity, RoomUse, SpaceId, SpaceKind, SpatialModel};

fn env() -> (Ontology, SpatialModel, Vec<SpaceId>) {
    let ont = Ontology::standard();
    let mut m = SpatialModel::new("campus");
    let b = m.add_space("B", SpaceKind::Building, m.root());
    let mut spaces = vec![m.root(), b];
    for f in 0..2 {
        let floor = m.add_space(format!("B-{f}"), SpaceKind::Floor, b);
        spaces.push(floor);
        for r in 0..4 {
            spaces.push(m.add_space(
                format!("B-{f}{r:02}"),
                SpaceKind::room(RoomUse::Office),
                floor,
            ));
        }
    }
    (ont, m, spaces)
}

/// A tiny deterministic generator driven by a u64 stream.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

fn gen_policies(
    seed: u64,
    n: usize,
    ont: &Ontology,
    spaces: &[SpaceId],
    datas: &[ConceptId],
    purposes: &[ConceptId],
) -> Vec<BuildingPolicy> {
    let mut lcg = Lcg(seed);
    let _ = ont;
    (0..n)
        .map(|i| {
            let mut p = BuildingPolicy::new(
                PolicyId(i as u64),
                format!("p{i}"),
                spaces[lcg.next() % spaces.len()],
                datas[lcg.next() % datas.len()],
                purposes[lcg.next() % purposes.len()],
            );
            p.modality = [Modality::Required, Modality::OptOut, Modality::OptIn][lcg.next() % 3];
            p.actions = match lcg.next() % 3 {
                0 => tippers_policy::ActionSet::ALL,
                1 => tippers_policy::ActionSet::COLLECT_STORE,
                _ => tippers_policy::ActionSet::of(&[DataAction::Share]),
            };
            if lcg.next().is_multiple_of(3) {
                p.condition = Condition::during(if lcg.next().is_multiple_of(2) {
                    TimeWindow::business_hours()
                } else {
                    TimeWindow::after_hours()
                });
            }
            if lcg.next().is_multiple_of(4) {
                p.service = Some(ServiceId::new(format!("svc{}", lcg.next() % 3)));
            }
            p
        })
        .collect()
}

fn gen_prefs(
    seed: u64,
    n: usize,
    spaces: &[SpaceId],
    datas: &[ConceptId],
    purposes: &[ConceptId],
) -> Vec<UserPreference> {
    let mut lcg = Lcg(seed ^ 0xABCD);
    (0..n)
        .map(|i| {
            let effect = match lcg.next() % 4 {
                0 => Effect::Allow,
                1 => Effect::Deny,
                2 => Effect::Degrade(Granularity::ALL[lcg.next() % 6]),
                _ => Effect::Noise { sigma: 2.0 },
            };
            let scope = PreferenceScope {
                data: if lcg.next().is_multiple_of(4) {
                    None
                } else {
                    Some(datas[lcg.next() % datas.len()])
                },
                purpose: if lcg.next().is_multiple_of(3) {
                    Some(purposes[lcg.next() % purposes.len()])
                } else {
                    None
                },
                service: if lcg.next().is_multiple_of(4) {
                    Some(ServiceId::new(format!("svc{}", lcg.next() % 3)))
                } else {
                    None
                },
                space: if lcg.next().is_multiple_of(2) {
                    Some(spaces[lcg.next() % spaces.len()])
                } else {
                    None
                },
                condition: if lcg.next().is_multiple_of(3) {
                    Condition::during(TimeWindow::after_hours())
                } else {
                    Condition::always()
                },
            };
            UserPreference::new(
                PreferenceId(i as u64),
                UserId((lcg.next() % 4) as u64),
                scope,
                effect,
            )
            .with_priority((lcg.next() % 3) as u8)
        })
        .collect()
}

/// A random flow over users `0..4`, any action, stage and context.
fn gen_flow(
    lcg: &mut Lcg,
    spaces: &[SpaceId],
    datas: &[ConceptId],
    purposes: &[ConceptId],
) -> RequestFlow {
    RequestFlow {
        subject: UserId((lcg.next() % 4) as u64),
        subject_group: UserGroup::ALL[lcg.next() % 5],
        data: datas[lcg.next() % datas.len()],
        purpose: purposes[lcg.next() % purposes.len()],
        service: if lcg.next().is_multiple_of(2) {
            Some(ServiceId::new(format!("svc{}", lcg.next() % 3)))
        } else {
            None
        },
        action: DataAction::ALL[lcg.next() % 5],
        time: Timestamp::at((lcg.next() % 7) as i64, (lcg.next() % 24) as u32, 0),
        subject_space: if lcg.next().is_multiple_of(2) {
            Some(spaces[lcg.next() % spaces.len()])
        } else {
            None
        },
        requester_space: if lcg.next().is_multiple_of(2) {
            Some(spaces[lcg.next() % spaces.len()])
        } else {
            None
        },
        room_occupied: match lcg.next() % 3 {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        },
    }
}

proptest! {
    /// D1 equivalence: the indexed enforcer and the naive enforcer return
    /// identical decisions on arbitrary policy/preference sets and flows.
    #[test]
    fn enforcer_equivalence(
        seed in any::<u64>(),
        n_policies in 0usize..24,
        n_prefs in 0usize..24,
        n_flows in 1usize..24,
    ) {
        let (ont, model, spaces) = env();
        let datas: Vec<ConceptId> = ont.data.iter().map(tippers_ontology::Concept::id).collect();
        let purposes: Vec<ConceptId> = ont.purposes.iter().map(tippers_ontology::Concept::id).collect();
        for strategy in [
            ResolutionStrategy::PolicyPrevails,
            ResolutionStrategy::PreferencePrevails,
            ResolutionStrategy::Strictest,
        ] {
            let policies = gen_policies(seed, n_policies, &ont, &spaces, &datas, &purposes);
            let prefs = gen_prefs(seed, n_prefs, &spaces, &datas, &purposes);
            let naive = NaiveEnforcer::new(policies.clone(), prefs.clone(), strategy);
            let indexed = IndexedEnforcer::new(policies, prefs, strategy, &ont);
            let mut lcg = Lcg(seed ^ 0x77);
            for _ in 0..n_flows {
                let flow = gen_flow(&mut lcg, &spaces, &datas, &purposes);
                let a = naive.decide(&flow, &ont, &model);
                let b = indexed.decide(&flow, &ont, &model);
                prop_assert_eq!(a, b, "strategy {:?}", strategy);
            }
        }
    }

    /// Patching the index per settings change equals rebuilding it: over a
    /// random sequence of publishes, retractions (of live, already
    /// retracted and never-issued ids), submissions (some replaying an
    /// earlier id) and superseding setting choices, applied to the
    /// managers and patched into an index built once up front, the patched
    /// index `==` `IndexedEnforcer::new` over the managers' lists and
    /// decides like `NaiveEnforcer` over them.
    #[test]
    fn patched_index_equals_a_rebuild(
        seed in any::<u64>(),
        n_policies in 0usize..12,
        n_prefs in 0usize..12,
        n_changes in 1usize..40,
    ) {
        let (ont, model, spaces) = env();
        let datas: Vec<ConceptId> = ont.data.iter().map(tippers_ontology::Concept::id).collect();
        let purposes: Vec<ConceptId> = ont.purposes.iter().map(tippers_ontology::Concept::id).collect();
        let strategy = [
            ResolutionStrategy::PolicyPrevails,
            ResolutionStrategy::PreferencePrevails,
            ResolutionStrategy::Strictest,
        ][(seed % 3) as usize];
        let pool = gen_policies(seed, n_policies + n_changes, &ont, &spaces, &datas, &purposes);
        let mut pool = pool.into_iter().map(|p| p.with_setting(BuildingPolicy::location_setting()));
        let pref_pool = gen_prefs(seed, n_prefs + n_changes, &spaces, &datas, &purposes);
        let mut pref_pool = pref_pool.into_iter();
        let mut policies = PolicyManager::new();
        let mut prefs = PreferenceManager::new();
        for p in pool.by_ref().take(n_policies) {
            policies.add(p);
        }
        for p in pref_pool.by_ref().take(n_prefs) {
            prefs.add(p);
        }
        let mut index = IndexedEnforcer::new(
            policies.all().to_vec(),
            prefs.all().to_vec(),
            strategy,
            &ont,
        );
        // The managers' next ids: policies count up from 0, and the
        // preference pool's ids from 0 as well.
        let (mut next_policy, mut next_pref) = (n_policies as u64, n_prefs as u64);
        let mut lcg = Lcg(seed ^ 0x9A7C);
        for step in 0..n_changes {
            match lcg.next() % 4 {
                0 => {
                    let policy = pool.next().expect("the pool holds one per change");
                    let id = policies.add(policy);
                    next_policy += 1;
                    index.publish(policies.get(id).expect("just added").clone(), &ont);
                }
                1 => {
                    let id = PolicyId(lcg.next() as u64 % (next_policy + 2));
                    policies.remove(id);
                    index.retract(id);
                }
                2 => {
                    let mut pref = pref_pool.next().expect("the pool holds one per change");
                    pref.id = if lcg.next().is_multiple_of(4) && !prefs.is_empty() {
                        prefs.all()[lcg.next() % prefs.len()].id
                    } else {
                        next_pref += 1;
                        PreferenceId(next_pref - 1)
                    };
                    prefs.insert_assigned(pref.clone());
                    index.submit(pref);
                }
                _ => {
                    let Some(policy) = (!policies.is_empty())
                        .then(|| policies.all()[lcg.next() % policies.len()].clone())
                    else {
                        continue;
                    };
                    let user = UserId((lcg.next() % 4) as u64);
                    let id = PreferenceId(next_pref);
                    next_pref += 1;
                    let chosen = prefs
                        .apply_setting_choice_assigned(user, &policy, "location-sensing", lcg.next() % 3, id)
                        .expect("every pooled policy carries the setting")
                        .clone();
                    index.choose(chosen);
                }
            }
            let rebuilt = IndexedEnforcer::new(
                policies.all().to_vec(),
                prefs.all().to_vec(),
                strategy,
                &ont,
            );
            prop_assert!(index == rebuilt, "step {}: the patched index differs from a rebuild", step);
            let naive = NaiveEnforcer::new(policies.all().to_vec(), prefs.all().to_vec(), strategy);
            for _ in 0..4 {
                let flow = gen_flow(&mut lcg, &spaces, &datas, &purposes);
                prop_assert_eq!(
                    index.decide(&flow, &ont, &model),
                    naive.decide(&flow, &ont, &model),
                    "step {}", step
                );
            }
        }
    }

    /// With no authorizing policies at all, every flow is denied — the
    /// default-deny invariant.
    #[test]
    fn default_deny_without_policies(seed in any::<u64>()) {
        let (ont, model, spaces) = env();
        let datas: Vec<ConceptId> = ont.data.iter().map(tippers_ontology::Concept::id).collect();
        let purposes: Vec<ConceptId> = ont.purposes.iter().map(tippers_ontology::Concept::id).collect();
        let prefs = gen_prefs(seed, 8, &spaces, &datas, &purposes);
        let enforcer = NaiveEnforcer::new(vec![], prefs, ResolutionStrategy::PolicyPrevails);
        let mut lcg = Lcg(seed);
        let flow = RequestFlow {
            subject: UserId(0),
            subject_group: UserGroup::Staff,
            data: datas[lcg.next() % datas.len()],
            purpose: purposes[lcg.next() % purposes.len()],
            service: None,
            action: DataAction::Share,
            time: Timestamp::at(0, 12, 0),
            subject_space: None,
            requester_space: None,
            room_occupied: None,
        };
        prop_assert_eq!(enforcer.decide(&flow, &ont, &model).effect, Effect::Deny);
    }

    /// The engine's intake queues exactly the notices the pairwise naive
    /// detector yields for each submitted preference, in policy order:
    /// over generated corpora with `Allow` preferences, preferences with
    /// no data clause, and policy retractions between submissions.
    #[test]
    fn intake_notices_equal_naive_detection(
        seed in any::<u64>(),
        n_policies in 0usize..20,
        n_prefs in 1usize..24,
    ) {
        let (ont, model, spaces) = env();
        let datas: Vec<ConceptId> = ont.data.iter().map(tippers_ontology::Concept::id).collect();
        let purposes: Vec<ConceptId> = ont.purposes.iter().map(tippers_ontology::Concept::id).collect();
        let strategy = [
            ResolutionStrategy::PolicyPrevails,
            ResolutionStrategy::PreferencePrevails,
            ResolutionStrategy::Strictest,
        ][(seed % 3) as usize];
        let mut bms = Tippers::new(
            ont.clone(),
            model.clone(),
            TippersConfig {
                strategy,
                ..TippersConfig::default()
            },
        );
        for policy in gen_policies(seed, n_policies, &ont, &spaces, &datas, &purposes) {
            bms.add_policy(policy);
        }
        let mut lcg = Lcg(seed ^ 0x5EED);
        let prefs = gen_prefs(seed, n_prefs, &spaces, &datas, &purposes);
        for (i, mut pref) in prefs.into_iter().enumerate() {
            if lcg.next().is_multiple_of(4) && !bms.policies().is_empty() {
                let retracted = bms.policies()[lcg.next() % bms.policies().len()].id;
                prop_assert!(bms.remove_policy(retracted));
            }
            pref.id = bms.submit_preference(pref.clone(), Timestamp(i as i64));
            let expected: Vec<String> = detect_conflicts_naive(
                bms.policies(),
                std::slice::from_ref(&pref),
                &ont,
                &model,
                strategy,
            )
            .into_iter()
            .map(|conflict| conflict.notice)
            .collect();
            let queued: Vec<String> = bms
                .take_notifications(pref.user)
                .into_iter()
                .map(|notice| notice.text)
                .collect();
            prop_assert_eq!(queued, expected, "preference {}", i);
        }
    }

    /// Retention GC never keeps an expired row and never deletes an
    /// unexpired one.
    #[test]
    fn gc_is_exact(retentions in proptest::collection::vec(proptest::option::of(1i64..10_000), 1..60), gc_at in 0i64..12_000) {
        let ont = Ontology::standard();
        let mut m = SpatialModel::new("c");
        let b = m.add_space("B", SpaceKind::Building, m.root());
        let mut store = Store::new();
        let t0 = Timestamp::at(0, 0, 0);
        let c = ont.concepts();
        for (i, &ret) in retentions.iter().enumerate() {
            let obs = Observation {
                device: DeviceId(0),
                timestamp: t0,
                space: b,
                payload: ObservationPayload::WifiAssociation {
                    mac: MacAddress::for_user(i as u64),
                    ap: DeviceId(0),
                },
                subject: Some(UserId(i as u64)),
            };
            store.insert(obs, c.wifi_association, PolicyId(0), t0, ret);
        }
        let now = Timestamp(gc_at);
        store.gc(now);
        let expected: usize = retentions
            .iter()
            .filter(|r| r.is_none_or(|secs| t0.seconds() + secs > now.seconds()))
            .count();
        prop_assert_eq!(store.len(), expected);
        for row in store.iter() {
            if let Some(e) = row.expires_at {
                prop_assert!(e > now);
            }
        }
    }
}
