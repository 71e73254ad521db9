use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// Identifier of a [`Concept`] within one [`Taxonomy`].
///
/// Ids are dense indices, stable for the taxonomy's lifetime, and
/// meaningless across taxonomies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConceptId(pub(crate) u32);

impl ConceptId {
    /// Index of this concept in the owning taxonomy.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "concept#{}", self.0)
    }
}

/// A node in a [`Taxonomy`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Concept {
    id: ConceptId,
    key: String,
    label: String,
    parents: Vec<ConceptId>,
    children: Vec<ConceptId>,
}

impl Concept {
    /// The concept's id.
    pub fn id(&self) -> ConceptId {
        self.id
    }

    /// Stable, slash-separated key used in serialized policies,
    /// e.g. `"purpose/safety/emergency-response"`.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Direct super-concepts.
    pub fn parents(&self) -> &[ConceptId] {
        &self.parents
    }

    /// Direct sub-concepts.
    pub fn children(&self) -> &[ConceptId] {
        &self.children
    }
}

/// Errors produced by taxonomy construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaxonomyError {
    /// A concept key was registered twice.
    DuplicateKey(String),
    /// A referenced parent id does not exist.
    UnknownParent(ConceptId),
}

impl fmt::Display for TaxonomyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaxonomyError::DuplicateKey(k) => write!(f, "duplicate concept key `{k}`"),
            TaxonomyError::UnknownParent(id) => write!(f, "unknown parent concept {id}"),
        }
    }
}

impl std::error::Error for TaxonomyError {}

/// A multi-parent concept DAG with subsumption queries.
///
/// Concepts are added parents-first, which makes cycles unrepresentable:
/// a concept can only name already-existing concepts as parents.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Taxonomy {
    concepts: Vec<Concept>,
    by_key: HashMap<String, ConceptId>,
    /// Memoized subsumption closure (hot path of policy and preference
    /// matching); rebuilt lazily after deserialization or `try_add`.
    #[serde(skip)]
    closure: OnceLock<Closure>,
}

/// The reflexive-transitive subsumption relation of a taxonomy, computed
/// once: an `n × n` bit matrix (`n²/64` words) and the strict ancestor and
/// descendant lists of every concept, in the order of a depth-first walk
/// from that concept.
#[derive(Debug, Clone)]
struct Closure {
    /// Words per bit-matrix row.
    words: usize,
    /// Row `i`, bit `j`: concept `j` is-a concept `i` (descendant-or-self).
    down: Vec<u64>,
    ancestors: Vec<Vec<ConceptId>>,
    descendants: Vec<Vec<ConceptId>>,
}

impl Closure {
    fn build(concepts: &[Concept]) -> Closure {
        let n = concepts.len();
        let words = n.div_ceil(64);
        let ancestors: Vec<Vec<ConceptId>> = concepts
            .iter()
            .map(|c| dfs(concepts, c.id, Concept::parents))
            .collect();
        let descendants = concepts
            .iter()
            .map(|c| dfs(concepts, c.id, Concept::children))
            .collect();
        let mut down = vec![0; n * words];
        for (i, anc) in ancestors.iter().enumerate() {
            for a in anc.iter().map(|a| a.index()).chain([i]) {
                down[a * words + i / 64] |= 1 << (i % 64);
            }
        }
        Closure {
            words,
            down,
            ancestors,
            descendants,
        }
    }

    /// The descendants-or-self of `id` as a bit row.
    fn row(&self, id: ConceptId) -> &[u64] {
        &self.down[id.index() * self.words..(id.index() + 1) * self.words]
    }
}

/// The concepts reachable from `start` over `edges`, in depth-first order
/// and without `start` itself.
fn dfs(
    concepts: &[Concept],
    start: ConceptId,
    edges: fn(&Concept) -> &[ConceptId],
) -> Vec<ConceptId> {
    let mut out = Vec::new();
    let mut seen = vec![false; concepts.len()];
    let mut stack = vec![start];
    while let Some(c) = stack.pop() {
        for &next in edges(&concepts[c.index()]) {
            if !seen[next.index()] {
                seen[next.index()] = true;
                out.push(next);
                stack.push(next);
            }
        }
    }
    out
}

impl Taxonomy {
    /// Creates an empty taxonomy.
    pub fn new() -> Self {
        Taxonomy::default()
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// True if the taxonomy has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Adds a root concept (no parents).
    ///
    /// # Panics
    ///
    /// Panics on duplicate key; use [`try_add`](Self::try_add) to handle it.
    pub fn add_root(&mut self, key: &str, label: &str) -> ConceptId {
        self.try_add(key, label, &[]).expect("duplicate key")
    }

    /// Adds a concept under one parent.
    ///
    /// # Panics
    ///
    /// Panics on duplicate key or unknown parent.
    pub fn add(&mut self, key: &str, label: &str, parent: ConceptId) -> ConceptId {
        self.try_add(key, label, &[parent])
            .expect("duplicate key or unknown parent")
    }

    /// Adds a concept with any number of parents.
    ///
    /// # Errors
    ///
    /// Returns [`TaxonomyError::DuplicateKey`] or
    /// [`TaxonomyError::UnknownParent`].
    pub fn try_add(
        &mut self,
        key: &str,
        label: &str,
        parents: &[ConceptId],
    ) -> Result<ConceptId, TaxonomyError> {
        if self.by_key.contains_key(key) {
            return Err(TaxonomyError::DuplicateKey(key.to_owned()));
        }
        for &p in parents {
            if p.index() >= self.concepts.len() {
                return Err(TaxonomyError::UnknownParent(p));
            }
        }
        let id = ConceptId(self.concepts.len() as u32);
        self.concepts.push(Concept {
            id,
            key: key.to_owned(),
            label: label.to_owned(),
            parents: parents.to_vec(),
            children: Vec::new(),
        });
        for &p in parents {
            self.concepts[p.index()].children.push(id);
        }
        self.by_key.insert(key.to_owned(), id);
        self.closure = OnceLock::new();
        Ok(id)
    }

    /// Looks a concept up by its stable key.
    pub fn id(&self, key: &str) -> Option<ConceptId> {
        self.by_key.get(key).copied()
    }

    /// Returns the concept for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this taxonomy.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Returns the concept for an id, if valid.
    pub fn get(&self, id: ConceptId) -> Option<&Concept> {
        self.concepts.get(id.index())
    }

    /// The key for an id — convenience for serialization.
    pub fn key_of(&self, id: ConceptId) -> &str {
        self.concept(id).key()
    }

    /// Iterates over all concepts in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Concept> {
        self.concepts.iter()
    }

    fn closure(&self) -> &Closure {
        self.closure.get_or_init(|| Closure::build(&self.concepts))
    }

    /// Subsumption: true if `sub` is `sup` or a (transitive) descendant.
    ///
    /// This is the reasoning primitive behind policy matching: a policy over
    /// `data/location` applies to a request for `data/location/room-level`.
    /// Memoized: a bit lookup after the first query.
    pub fn is_a(&self, sub: ConceptId, sup: ConceptId) -> bool {
        if sub == sup {
            return true;
        }
        self.closure().row(sup)[sub.index() / 64] & (1 << (sub.index() % 64)) != 0
    }

    /// All (transitive) ancestors of `id`, excluding `id` itself, in
    /// depth-first order from `id`.
    pub fn ancestors(&self, id: ConceptId) -> &[ConceptId] {
        &self.closure().ancestors[id.index()]
    }

    /// All (transitive) descendants of `id`, excluding `id` itself, in
    /// depth-first order from `id`.
    pub fn descendants(&self, id: ConceptId) -> &[ConceptId] {
        &self.closure().descendants[id.index()]
    }

    /// True if the two concepts share any descendant-or-self, i.e. a request
    /// could satisfy both.
    pub fn compatible(&self, a: ConceptId, b: ConceptId) -> bool {
        let c = self.closure();
        c.row(a).iter().zip(c.row(b)).any(|(x, y)| x & y != 0)
    }

    /// Semantic distance: number of edges on the shortest undirected path
    /// through the DAG, or `None` if disconnected.
    ///
    /// The IoTA uses this to score how close an advertised practice is to a
    /// practice the user has expressed sensitivity about.
    pub fn distance(&self, a: ConceptId, b: ConceptId) -> Option<u32> {
        use std::collections::VecDeque;
        if a == b {
            return Some(0);
        }
        let mut dist = vec![u32::MAX; self.concepts.len()];
        dist[a.index()] = 0;
        let mut q = VecDeque::from([a]);
        while let Some(c) = q.pop_front() {
            let d = dist[c.index()];
            let node = &self.concepts[c.index()];
            for &n in node.parents.iter().chain(node.children.iter()) {
                if dist[n.index()] == u32::MAX {
                    dist[n.index()] = d + 1;
                    if n == b {
                        return Some(d + 1);
                    }
                    q.push_back(n);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Taxonomy, ConceptId, ConceptId, ConceptId, ConceptId) {
        let mut t = Taxonomy::new();
        let top = t.add_root("top", "Top");
        let l = t.add("left", "Left", top);
        let r = t.add("right", "Right", top);
        let bottom = t.try_add("bottom", "Bottom", &[l, r]).unwrap();
        (t, top, l, r, bottom)
    }

    #[test]
    fn is_a_is_reflexive_and_transitive() {
        let (t, top, l, _r, bottom) = diamond();
        assert!(t.is_a(bottom, bottom));
        assert!(t.is_a(bottom, l));
        assert!(t.is_a(bottom, top));
        assert!(!t.is_a(top, bottom));
    }

    #[test]
    fn multi_parent_subsumption() {
        let (t, _, l, r, bottom) = diamond();
        assert!(t.is_a(bottom, l));
        assert!(t.is_a(bottom, r));
        assert!(!t.is_a(l, r));
    }

    #[test]
    fn ancestors_and_descendants() {
        let (t, top, l, r, bottom) = diamond();
        let mut anc = t.ancestors(bottom).to_vec();
        anc.sort();
        assert_eq!(anc, {
            let mut v = vec![top, l, r];
            v.sort();
            v
        });
        let mut desc = t.descendants(top).to_vec();
        desc.sort();
        assert_eq!(desc, {
            let mut v = vec![l, r, bottom];
            v.sort();
            v
        });
    }

    #[test]
    fn compatible_via_shared_descendant() {
        let (t, _, l, r, _) = diamond();
        // l and r are incomparable but share descendant `bottom`.
        assert!(t.compatible(l, r));
        let mut t2 = Taxonomy::new();
        let a = t2.add_root("a", "A");
        let b = t2.add_root("b", "B");
        assert!(!t2.compatible(a, b));
    }

    #[test]
    fn distance_counts_edges() {
        let (t, top, l, r, bottom) = diamond();
        assert_eq!(t.distance(l, l), Some(0));
        assert_eq!(t.distance(l, top), Some(1));
        assert_eq!(t.distance(l, r), Some(2));
        assert_eq!(t.distance(top, bottom), Some(2));
    }

    #[test]
    fn distance_disconnected_is_none() {
        let mut t = Taxonomy::new();
        let a = t.add_root("a", "A");
        let b = t.add_root("b", "B");
        assert_eq!(t.distance(a, b), None);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut t = Taxonomy::new();
        t.add_root("x", "X");
        assert_eq!(
            t.try_add("x", "X2", &[]),
            Err(TaxonomyError::DuplicateKey("x".into()))
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut t = Taxonomy::new();
        assert_eq!(
            t.try_add("x", "X", &[ConceptId(7)]),
            Err(TaxonomyError::UnknownParent(ConceptId(7)))
        );
    }

    #[test]
    fn key_lookup_round_trips() {
        let (t, top, _, _, _) = diamond();
        assert_eq!(t.id("top"), Some(top));
        assert_eq!(t.key_of(top), "top");
        assert_eq!(t.id("nope"), None);
    }
}
