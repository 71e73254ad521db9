//! The shared semantic dataflow engine.
//!
//! One lowering step (`Facts::build`) turns a [`DeploymentCorpus`] into a
//! typed fact graph — resolvable policies and preferences, per-resource
//! disclosed categories and their inference closures, declared purposes,
//! inference-rule cycles — and every pass queries those facts instead of
//! re-deriving them. The module also owns the analysis *units*
//! ([`UnitId`]), content hashing ([`hash`]), and the incremental
//! [`Analyzer`] that re-solves only the dirty region after an edit.

pub(crate) mod facts;
pub mod hash;
pub mod solver;

use std::collections::BTreeMap;

use tippers_policy::{BuildingPolicy, UserPreference};

pub(crate) use facts::{ClosureMemo, Facts};

use crate::corpus::DeploymentCorpus;
use crate::diag::{Diagnostic, LintCode};
use crate::{finalize, passes, AnalysisReport};

/// One independently-invalidatable unit of the corpus.
///
/// Documents are identified by their position (the wire format carries no
/// stable id), policies and preferences by their stable numeric ids.
/// `Global` stands for everything else: the ontology, the spatial model,
/// the service catalog, priorities, quotas, replication and ingest config,
/// sensitivity list, aliases, strategy. A `Global` change invalidates the
/// whole cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitId {
    /// Configuration shared by every pass (ontology, model, catalogs, …).
    Global,
    /// The `k`-th wire-format document.
    Document(usize),
    /// The policy with this id.
    Policy(u64),
    /// The preference with this id.
    Preference(u64),
}

impl UnitId {
    /// Stable textual key (`"global"`, `"doc:0"`, `"policy:7"`,
    /// `"pref:2"`), used by the CLI cache file and `--changed`.
    pub fn key(self) -> String {
        match self {
            UnitId::Global => "global".to_owned(),
            UnitId::Document(k) => format!("doc:{k}"),
            UnitId::Policy(id) => format!("policy:{id}"),
            UnitId::Preference(id) => format!("pref:{id}"),
        }
    }

    /// Parses a textual key produced by [`UnitId::key`].
    pub fn parse(text: &str) -> Option<UnitId> {
        if text == "global" {
            return Some(UnitId::Global);
        }
        let (kind, rest) = text.split_once(':')?;
        match kind {
            "doc" => rest.parse().ok().map(UnitId::Document),
            "policy" => rest.parse().ok().map(UnitId::Policy),
            "pref" => rest.parse().ok().map(UnitId::Preference),
            _ => None,
        }
    }
}

/// What passes see: the corpus plus the lowered fact graph.
pub(crate) struct Context<'a> {
    pub corpus: &'a DeploymentCorpus,
    pub facts: &'a Facts,
}

impl Context<'_> {
    /// All resolvable policies carrying the given id (duplicate ids are
    /// legal in a corpus; passes handle every carrier).
    pub fn policies_with_id(&self, id: u64) -> Vec<&BuildingPolicy> {
        self.facts
            .policy_index
            .get(&id)
            .map(|ixs| ixs.iter().map(|&i| &self.corpus.policies[i]).collect())
            .unwrap_or_default()
    }

    /// All resolvable preferences carrying the given id.
    pub fn preferences_with_id(&self, id: u64) -> Vec<&UserPreference> {
        self.facts
            .preference_index
            .get(&id)
            .map(|ixs| ixs.iter().map(|&i| &self.corpus.preferences[i]).collect())
            .unwrap_or_default()
    }

    /// The resolvable policies, in corpus order.
    pub fn resolvable_policies(&self) -> Vec<&BuildingPolicy> {
        self.facts
            .resolvable_policies
            .iter()
            .map(|&i| &self.corpus.policies[i])
            .collect()
    }

    /// The resolvable preferences, in corpus order.
    pub fn resolvable_preferences(&self) -> Vec<&UserPreference> {
        self.facts
            .resolvable_preferences
            .iter()
            .map(|&i| &self.corpus.preferences[i])
            .collect()
    }

    /// Allocation-free carrier iteration, for the hot `may_interact`
    /// scans: every resolvable policy carrying the given id.
    pub fn policy_carriers(&self, id: u64) -> impl Iterator<Item = &BuildingPolicy> + '_ {
        let ixs: &[usize] = match self.facts.policy_index.get(&id) {
            Some(v) => v,
            None => &[],
        };
        ixs.iter().map(move |&i| &self.corpus.policies[i])
    }
}

/// Per-(pass, owner) diagnostics: the unit of incremental caching.
pub(crate) type DiagMap = BTreeMap<(LintCode, UnitId), Vec<Diagnostic>>;

/// Runs every pass over the context, optionally fanning the (pass, owner)
/// work items across `threads` workers. The merged map is identical at any
/// thread count: each (pass, owner) cell is computed independently and the
/// merge target is an ordered map.
pub(crate) fn run_all(cx: &Context<'_>, threads: usize) -> DiagMap {
    let passes = passes::all();
    if threads <= 1 {
        let mut map = DiagMap::new();
        for pass in &passes {
            for (owner, diags) in pass.check_all(cx) {
                map.insert((pass.code(), owner), diags);
            }
        }
        return map;
    }
    let items: Vec<(usize, UnitId)> = passes
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.owners(cx).into_iter().map(move |o| (i, o)))
        .collect();
    let items = &items;
    let passes = &passes;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut idx = t;
                    while idx < items.len() {
                        let (pi, owner) = items[idx];
                        out.push(((passes[pi].code(), owner), passes[pi].check(cx, owner)));
                        idx += threads;
                    }
                    out
                })
            })
            .collect();
        let mut map = DiagMap::new();
        for worker in workers {
            for (key, diags) in worker.join().expect("analysis worker panicked") {
                map.insert(key, diags);
            }
        }
        map
    })
}

/// Incremental analyzer: retains the corpus, the fact graph, and the
/// per-(pass, owner) diagnostic cache so that after an edit only the dirty
/// region is re-solved and everything else is spliced from cache.
///
/// The caller names what changed via [`UnitId`]s (from `--changed`, from a
/// WAL settings-mutation feed, or from content-hash diffing via
/// [`Analyzer::update_auto`]). The contract: any mutation outside
/// documents/policies/preferences — ontology, model, catalogs, quotas,
/// replication, ingest, strategy, sensitivity, aliases — must be reported
/// as [`UnitId::Global`], which falls back to a full re-analysis.
/// Suppression (`allow` sets) needs no invalidation: it is applied at
/// report-assembly time on every call.
///
/// ```
/// use tippers_analyzer::{analyze, Analyzer, DeploymentCorpus, UnitId};
///
/// let corpus = DeploymentCorpus::figures();
/// let mut analyzer = Analyzer::new(corpus.clone());
/// let mut edited = corpus.clone();
/// edited.policies[0].name = "renamed".into();
/// let incremental = analyzer.update(edited.clone(), &[UnitId::Policy(1)]).clone();
/// assert_eq!(incremental, analyze(&edited));
/// ```
pub struct Analyzer {
    corpus: DeploymentCorpus,
    facts: Facts,
    memo: ClosureMemo,
    cache: DiagMap,
    report: AnalysisReport,
}

impl Analyzer {
    /// Full analysis; the result is retained for incremental updates.
    pub fn new(corpus: DeploymentCorpus) -> Analyzer {
        Analyzer::with_threads(corpus, 1)
    }

    /// Full analysis with the (pass, owner) work items fanned across
    /// `threads` workers. The report is byte-identical at any thread count.
    pub fn with_threads(corpus: DeploymentCorpus, threads: usize) -> Analyzer {
        let mut memo = ClosureMemo::default();
        let facts = Facts::build(&corpus, &mut memo);
        let cache = run_all(
            &Context {
                corpus: &corpus,
                facts: &facts,
            },
            threads,
        );
        let report = finalize(&corpus, &cache);
        Analyzer {
            corpus,
            facts,
            memo,
            cache,
            report,
        }
    }

    /// Rebuilds an analyzer from a previous run's diagnostic cache without
    /// re-running any pass (the `tippers-lint --cache` resume path). The
    /// entries must come from an earlier [`Analyzer::entries`] of the same
    /// corpus; a stale or fabricated cache yields a stale report.
    pub fn resume(
        corpus: DeploymentCorpus,
        entries: Vec<((LintCode, UnitId), Vec<Diagnostic>)>,
    ) -> Analyzer {
        let mut memo = ClosureMemo::default();
        let facts = Facts::build(&corpus, &mut memo);
        let cache: DiagMap = entries.into_iter().collect();
        let report = finalize(&corpus, &cache);
        Analyzer {
            corpus,
            facts,
            memo,
            cache,
            report,
        }
    }

    /// The current canonical report.
    pub fn report(&self) -> &AnalysisReport {
        &self.report
    }

    /// The corpus the current report describes.
    pub fn corpus(&self) -> &DeploymentCorpus {
        &self.corpus
    }

    /// Number of facts in the lowered graph (resolvable units, disclosed
    /// categories, closure inferences, declared purposes, rules). The
    /// denominator for facts/sec throughput reporting.
    pub fn fact_count(&self) -> usize {
        self.facts.fact_count
    }

    /// The per-(pass, owner) diagnostic cache, for external persistence.
    pub fn entries(&self) -> Vec<((LintCode, UnitId), Vec<Diagnostic>)> {
        self.cache.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Re-analyzes after an edit, re-running a pass on an owner only when
    /// the owner itself changed, the owner is new, or a changed unit *may
    /// interact* with it under the pass's conservative dependency
    /// predicate — evaluated against both the old and the new corpus, so
    /// an interaction that only held before the edit (say, a policy that
    /// stopped being mandatory) still invalidates.
    pub fn update(&mut self, corpus: DeploymentCorpus, changed: &[UnitId]) -> &AnalysisReport {
        let full = changed.contains(&UnitId::Global)
            || corpus.documents.len() != self.corpus.documents.len();
        let facts = Facts::build(&corpus, &mut self.memo);
        if full {
            let cache = {
                let cx = Context {
                    corpus: &corpus,
                    facts: &facts,
                };
                run_all(&cx, 1)
            };
            self.corpus = corpus;
            self.facts = facts;
            self.cache = cache;
            self.report = finalize(&self.corpus, &self.cache);
            return &self.report;
        }

        // Splice the cache in place: re-check only dirty owners, drop
        // stale ones, keep everything else untouched (no clones). For
        // each pass, a two-pointer walk over the sorted owner set and the
        // sorted cached-key range classifies every owner as kept, dirty,
        // or new, and every leftover cached key as stale.
        let passes = passes::all();
        let mut fresh: Vec<((LintCode, UnitId), Vec<Diagnostic>)> = Vec::new();
        let mut stale: Vec<(LintCode, UnitId)> = Vec::new();
        {
            let old_cx = Context {
                corpus: &self.corpus,
                facts: &self.facts,
            };
            let new_cx = Context {
                corpus: &corpus,
                facts: &facts,
            };
            for pass in &passes {
                let code = pass.code();
                let mut owners = pass.owners(&new_cx);
                owners.sort_unstable();
                owners.dedup();
                let cached: Vec<UnitId> = self
                    .cache
                    .range((code, UnitId::Global)..=(code, UnitId::Preference(u64::MAX)))
                    .map(|(&(_, o), _)| o)
                    .collect();
                let (mut i, mut j) = (0, 0);
                while i < owners.len() || j < cached.len() {
                    let owner = owners.get(i);
                    let key = cached.get(j);
                    match (owner, key) {
                        (Some(&o), Some(&k)) if o == k => {
                            i += 1;
                            j += 1;
                            let dirty = o == UnitId::Global
                                || changed.contains(&o)
                                || changed.iter().any(|&c| {
                                    pass.may_interact(&old_cx, o, c)
                                        || pass.may_interact(&new_cx, o, c)
                                });
                            if dirty {
                                fresh.push(((code, o), pass.check(&new_cx, o)));
                            }
                        }
                        (Some(&o), Some(&k)) if o < k => {
                            i += 1;
                            fresh.push(((code, o), pass.check(&new_cx, o)));
                        }
                        (Some(_), Some(&k)) => {
                            j += 1;
                            stale.push((code, k));
                        }
                        (Some(&o), None) => {
                            i += 1;
                            fresh.push(((code, o), pass.check(&new_cx, o)));
                        }
                        (None, Some(&k)) => {
                            j += 1;
                            stale.push((code, k));
                        }
                        (None, None) => unreachable!(),
                    }
                }
            }
        }

        // With no suppression config in play, the canonical report is
        // exactly the sorted, deduped union of the cells — so it can be
        // patched from the cell delta instead of rebuilt, keeping the
        // update cost proportional to the dirty region rather than to the
        // total diagnostic count. Any allow list (either corpus) forces
        // the full finalize, which also owns usage tracking and TA015.
        let fast = corpus.allow.is_empty()
            && self.corpus.allow.is_empty()
            && corpus.documents.iter().all(|d| d.lint_allow.is_empty())
            && self
                .corpus
                .documents
                .iter()
                .all(|d| d.lint_allow.is_empty())
            && corpus.load_diagnostics == self.corpus.load_diagnostics
            && self.report.suppressed == 0;
        let mut removed: Vec<Diagnostic> = Vec::new();
        let mut added: Vec<Diagnostic> = Vec::new();
        if fast {
            for key in &stale {
                if let Some(old) = self.cache.get(key) {
                    removed.extend(old.iter().cloned());
                }
            }
            for (key, diags) in &fresh {
                if let Some(old) = self.cache.get(key) {
                    removed.extend(old.iter().cloned());
                }
                added.extend(diags.iter().cloned());
            }
        }

        self.corpus = corpus;
        self.facts = facts;
        for key in stale {
            self.cache.remove(&key);
        }
        for (key, diags) in fresh {
            self.cache.insert(key, diags);
        }
        if fast {
            let old = std::mem::take(&mut self.report.diagnostics);
            self.report.diagnostics = crate::splice_diagnostics(
                old,
                removed,
                added,
                &self.cache,
                &self.corpus.load_diagnostics,
            );
        } else {
            self.report = finalize(&self.corpus, &self.cache);
        }
        &self.report
    }

    /// [`Analyzer::update`] with the changed set derived by content-hash
    /// diffing: units whose serialized form differs, plus additions,
    /// removals, and any global-configuration drift.
    pub fn update_auto(&mut self, corpus: DeploymentCorpus) -> &AnalysisReport {
        let changed = hash::diff(&self.corpus, &corpus);
        self.update(corpus, &changed)
    }
}
