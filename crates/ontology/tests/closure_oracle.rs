//! Oracle for the memoized subsumption closure: on random multi-parent
//! DAGs, `is_a`, `compatible`, `ancestors` and `descendants` must equal a
//! plain depth-first-search reference, before and after `try_add` (which
//! must reset the memo) and after a serde round trip (which skips the memo
//! and must rebuild it).

use proptest::prelude::*;
use tippers_ontology::{ConceptId, Taxonomy};

/// Parent choices for each concept after the first: a seed and a parent
/// count in 0..=3 (0 makes another root, so forests are covered too).
/// Up to 150 concepts, so the bit rows span more than two 64-bit words.
fn arb_choices() -> impl Strategy<Value = Vec<(u64, u8)>> {
    proptest::collection::vec((any::<u64>(), 0u8..4), 1..150)
}

fn add_concepts(t: &mut Taxonomy, choices: &[(u64, u8)]) {
    let mut ids: Vec<ConceptId> = t.iter().map(tippers_ontology::Concept::id).collect();
    for &(seed, parents) in choices {
        let mut ps: Vec<ConceptId> = (0..u64::from(parents))
            .map(|k| ids[((seed >> (k * 16)) % ids.len() as u64) as usize])
            .collect();
        ps.sort_unstable();
        ps.dedup();
        let key = format!("c{}", ids.len());
        ids.push(t.try_add(&key, &key, &ps).expect("parents already exist"));
    }
}

fn dfs(t: &Taxonomy, id: ConceptId, up: bool) -> Vec<ConceptId> {
    let mut out = Vec::new();
    let mut seen = vec![false; t.len()];
    let mut stack = vec![id];
    while let Some(c) = stack.pop() {
        let concept = t.concept(c);
        let next = if up {
            concept.parents()
        } else {
            concept.children()
        };
        for &n in next {
            if !seen[n.index()] {
                seen[n.index()] = true;
                out.push(n);
                stack.push(n);
            }
        }
    }
    out
}

fn ref_is_a(t: &Taxonomy, sub: ConceptId, sup: ConceptId) -> bool {
    sub == sup || dfs(t, sub, true).contains(&sup)
}

fn ref_compatible(t: &Taxonomy, a: ConceptId, b: ConceptId) -> bool {
    let mut under_a = dfs(t, a, false);
    under_a.push(a);
    let mut under_b = dfs(t, b, false);
    under_b.push(b);
    under_a.iter().any(|c| under_b.contains(c))
}

fn check_against_reference(t: &Taxonomy) {
    let ids: Vec<ConceptId> = t.iter().map(tippers_ontology::Concept::id).collect();
    for &a in &ids {
        assert_eq!(
            t.ancestors(a),
            dfs(t, a, true).as_slice(),
            "ancestors of {a}"
        );
        assert_eq!(
            t.descendants(a),
            dfs(t, a, false).as_slice(),
            "descendants of {a}"
        );
        for &b in &ids {
            assert_eq!(t.is_a(a, b), ref_is_a(t, a, b), "is_a({a}, {b})");
            assert_eq!(
                t.compatible(a, b),
                ref_compatible(t, a, b),
                "compatible({a}, {b})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoized_closure_matches_dfs_reference(
        first in arb_choices(),
        more in arb_choices(),
    ) {
        let mut t = Taxonomy::new();
        t.add_root("c0", "C0");
        add_concepts(&mut t, &first);
        check_against_reference(&t);
        // The closure is built now; new concepts must invalidate it.
        add_concepts(&mut t, &more);
        check_against_reference(&t);
        let json = serde_json::to_string(&t).unwrap();
        let back: Taxonomy = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.len(), t.len());
        check_against_reference(&back);
    }
}
