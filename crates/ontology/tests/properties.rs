//! Property-based tests for taxonomies and the inference engine.

use proptest::prelude::*;
use tippers_ontology::{ConceptId, InferenceEngine, InferenceRule, Ontology, Taxonomy};

/// Builds a random multi-parent DAG: each concept picks 1–2 parents among
/// the already-added concepts.
fn arb_taxonomy(max: usize) -> impl Strategy<Value = Taxonomy> {
    (2usize..=max).prop_flat_map(|n| {
        proptest::collection::vec((any::<u64>(), any::<bool>()), n - 1).prop_map(move |choices| {
            let mut t = Taxonomy::new();
            let mut ids = vec![t.add_root("c0", "C0")];
            for (i, (seed, two_parents)) in choices.iter().enumerate() {
                let p1 = ids[(*seed as usize) % ids.len()];
                let mut parents = vec![p1];
                if *two_parents && ids.len() > 1 {
                    let p2 = ids[((*seed >> 17) as usize) % ids.len()];
                    if p2 != p1 {
                        parents.push(p2);
                    }
                }
                let key = format!("c{}", i + 1);
                ids.push(t.try_add(&key, &key, &parents).expect("valid parents"));
            }
            t
        })
    })
}

fn all_ids(t: &Taxonomy) -> Vec<ConceptId> {
    t.iter().map(tippers_ontology::Concept::id).collect()
}

proptest! {
    /// Subsumption is a partial order and agrees with ancestors().
    #[test]
    fn is_a_partial_order(t in arb_taxonomy(20), seed in any::<u64>()) {
        let ids = all_ids(&t);
        let pick = |s: u64| ids[(s as usize) % ids.len()];
        let (a, b, c) = (pick(seed), pick(seed >> 8), pick(seed >> 16));
        prop_assert!(t.is_a(a, a));
        if t.is_a(a, b) && t.is_a(b, a) {
            prop_assert_eq!(a, b);
        }
        if t.is_a(a, b) && t.is_a(b, c) {
            prop_assert!(t.is_a(a, c));
        }
        // ancestors() is exactly the strict is_a set.
        for &anc in t.ancestors(a) {
            prop_assert!(t.is_a(a, anc));
        }
        prop_assert_eq!(
            t.ancestors(a).contains(&b),
            a != b && t.is_a(a, b)
        );
    }

    /// descendants() is the inverse relation of ancestors().
    #[test]
    fn descendants_inverse_of_ancestors(t in arb_taxonomy(20)) {
        for c in all_ids(&t) {
            for &d in t.descendants(c) {
                prop_assert!(t.ancestors(d).contains(&c));
            }
        }
    }

    /// `compatible` is symmetric and implied by comparability.
    #[test]
    fn compatible_symmetric(t in arb_taxonomy(16), seed in any::<u64>()) {
        let ids = all_ids(&t);
        let a = ids[(seed as usize) % ids.len()];
        let b = ids[((seed >> 13) as usize) % ids.len()];
        prop_assert_eq!(t.compatible(a, b), t.compatible(b, a));
        if t.is_a(a, b) || t.is_a(b, a) {
            prop_assert!(t.compatible(a, b));
        }
    }

    /// Distance is a metric-ish: zero iff equal, symmetric.
    #[test]
    fn distance_symmetric(t in arb_taxonomy(16), seed in any::<u64>()) {
        let ids = all_ids(&t);
        let a = ids[(seed as usize) % ids.len()];
        let b = ids[((seed >> 11) as usize) % ids.len()];
        prop_assert_eq!(t.distance(a, b), t.distance(b, a));
        prop_assert_eq!(t.distance(a, a), Some(0));
        if a != b {
            prop_assert_ne!(t.distance(a, b), Some(0));
        }
    }

    /// Inference closure is monotone: more collected data never shrinks
    /// the inferable set, and confidences never exceed 1.
    #[test]
    fn closure_monotone(seed in any::<u64>()) {
        let ont = Ontology::standard();
        let ids: Vec<ConceptId> = ont.data.iter().map(tippers_ontology::Concept::id).collect();
        let a = ids[(seed as usize) % ids.len()];
        let b = ids[((seed >> 9) as usize) % ids.len()];
        let engine = ont.inference();
        let small = engine.closure(&[a]);
        let big = engine.closure(&[a, b]);
        for inf in &small {
            prop_assert!(inf.confidence > 0.0 && inf.confidence <= 1.0);
            let grown = big
                .iter()
                .find(|i| i.concept == inf.concept)
                .map_or(if b == inf.concept { 1.0 } else { 0.0 }, |i| i.confidence);
            prop_assert!(
                grown + 1e-9 >= inf.confidence,
                "confidence of {:?} dropped from {} to {}",
                inf.concept, inf.confidence, grown
            );
        }
    }

    /// The memoized single-source closure agrees with the engine.
    #[test]
    fn cached_closure_matches_engine(seed in any::<u64>()) {
        let ont = Ontology::standard();
        let ids: Vec<ConceptId> = ont.data.iter().map(tippers_ontology::Concept::id).collect();
        let src = ids[(seed as usize) % ids.len()];
        let fresh = ont.inference().closure(&[src]);
        let cached = ont.inferable_from(src);
        prop_assert_eq!(&fresh, &cached.to_vec());
        for &target in &ids {
            prop_assert_eq!(
                ont.can_infer_from(src, target),
                ont.inference().can_infer(&[src], target)
            );
        }
    }
}

#[test]
fn rule_chaining_is_order_independent() {
    // Shuffling the rule list never changes the closure fixpoint.
    let mut t = Taxonomy::new();
    let root = t.add_root("d", "D");
    let a = t.add("a", "A", root);
    let b = t.add("b", "B", root);
    let c = t.add("c", "C", root);
    let d = t.add("dd", "DD", root);
    let rules = vec![
        InferenceRule::new("a->b", vec![a], b, 0.9),
        InferenceRule::new("b->c", vec![b], c, 0.8),
        InferenceRule::new("c->d", vec![c], d, 0.7),
    ];
    let forward = InferenceEngine::new(&t, &rules).closure(&[a]);
    let reversed: Vec<InferenceRule> = rules.iter().rev().cloned().collect();
    let mut backward = InferenceEngine::new(&t, &reversed).closure(&[a]);
    backward.sort_by_key(|i| i.concept);
    let mut forward = forward;
    forward.sort_by_key(|i| i.concept);
    assert_eq!(forward.len(), backward.len());
    for (f, bk) in forward.iter().zip(&backward) {
        assert_eq!(f.concept, bk.concept);
        assert!((f.confidence - bk.confidence).abs() < 1e-9);
    }
}
