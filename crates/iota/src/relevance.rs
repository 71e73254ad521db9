//! Relevance scoring: which advertised practices does *this* user care
//! about?
//!
//! §II.C: the IoTA "displays summaries of relevant elements of these
//! policies to the user … by focusing on the elements of a policy that are
//! important with respect to the user's privacy preferences". A
//! [`SensitivityProfile`] holds per-category sensitivities; scoring takes
//! the *inference closure* of an advertised practice into account, so a
//! WiFi-log advertisement scores high for a location-sensitive user even
//! though it never says "location".

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use tippers_ontology::{ConceptId, Ontology};
use tippers_policy::ResourceBlock;

/// Per-category sensitivity weights in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SensitivityProfile {
    weights: HashMap<ConceptId, f64>,
}

impl SensitivityProfile {
    /// An empty profile (indifferent to everything).
    pub fn new() -> SensitivityProfile {
        SensitivityProfile::default()
    }

    /// Sets the sensitivity of a category (clamped to `[0, 1]`).
    pub fn set(&mut self, category: ConceptId, weight: f64) {
        self.weights.insert(category, weight.clamp(0.0, 1.0));
    }

    /// The sensitivity of a category: the max over the category itself and
    /// its ancestors (a `location`-sensitive user is `location/fine`-
    /// sensitive too).
    pub fn sensitivity(&self, ontology: &Ontology, category: ConceptId) -> f64 {
        let mut s = self.weights.get(&category).copied().unwrap_or(0.0);
        for &anc in ontology.data.ancestors(category) {
            if let Some(&w) = self.weights.get(&anc) {
                s = s.max(w);
            }
        }
        s
    }

    /// The privacy-*fundamentalist* archetype: highly sensitive to
    /// location, identity and behaviour.
    pub fn fundamentalist(ontology: &Ontology) -> SensitivityProfile {
        let c = ontology.concepts();
        let mut p = SensitivityProfile::new();
        p.set(c.location, 0.95);
        p.set(c.person_identity, 1.0);
        p.set(c.device_mac, 0.9);
        p.set(c.occupancy, 0.8);
        p.set(c.image, 0.95);
        p.set(ontology.data.id("data/behavior").expect("standard"), 0.9);
        p
    }

    /// The *pragmatist* archetype: cares about identity and imagery, less
    /// about coarse whereabouts.
    pub fn pragmatist(ontology: &Ontology) -> SensitivityProfile {
        let c = ontology.concepts();
        let mut p = SensitivityProfile::new();
        p.set(c.person_identity, 0.8);
        p.set(c.image, 0.7);
        p.set(c.location_fine, 0.6);
        p.set(c.occupancy, 0.3);
        p
    }

    /// The *unconcerned* archetype.
    pub fn unconcerned(_ontology: &Ontology) -> SensitivityProfile {
        SensitivityProfile::new()
    }
}

/// How much a purpose amplifies concern: data collected for marketing or
/// law-enforcement sharing worries users more than safety automation
/// (Peppet's analysis, §IV.B).
pub fn purpose_factor(ontology: &Ontology, purpose: ConceptId) -> f64 {
    let c = ontology.concepts();
    let p = &ontology.purposes;
    if p.is_a(purpose, c.marketing) {
        1.0
    } else if p.is_a(purpose, c.law_enforcement) {
        0.95
    } else if p.is_a(purpose, c.analytics) {
        0.85
    } else if p.is_a(purpose, c.providing_service) {
        0.7
    } else if p.is_a(purpose, c.emergency_response) {
        0.5
    } else {
        0.6
    }
}

/// A scored explanation of why an advertisement is (ir)relevant.
#[derive(Debug, Clone, PartialEq)]
pub struct RelevanceScore {
    /// Combined score in `[0, 1]`.
    pub score: f64,
    /// The collected or inferable category that drove the score.
    pub driving_category: Option<ConceptId>,
    /// True if the driver is only *inferable*, not directly collected —
    /// worth surfacing ("this WiFi log can reveal your location").
    pub via_inference: bool,
}

/// Scores one advertised resource against a profile.
///
/// For every observation category the resource declares, the score
/// considers the category itself and everything inferable from it (scaled
/// by inference confidence), multiplied by the purpose factor; missing
/// machine-readable categories are ignored (the validator warns on them).
pub fn score_resource(
    resource: &ResourceBlock,
    profile: &SensitivityProfile,
    ontology: &Ontology,
) -> RelevanceScore {
    let mut best = RelevanceScore {
        score: 0.0,
        driving_category: None,
        via_inference: false,
    };
    let purpose = resource
        .purpose
        .purposes
        .keys()
        .next()
        .and_then(|k| resolve_purpose(ontology, k));
    let pf = purpose.map_or(0.6, |p| purpose_factor(ontology, p));

    for obs in &resource.observations {
        let Some(cat) = obs.category.as_ref().and_then(|k| ontology.data.id(k)) else {
            continue;
        };
        let direct = profile.sensitivity(ontology, cat) * pf;
        if direct > best.score {
            best = RelevanceScore {
                score: direct,
                driving_category: Some(cat),
                via_inference: false,
            };
        }
        for inf in ontology.inference().closure(&[cat]) {
            let s = profile.sensitivity(ontology, inf.concept) * inf.confidence * pf;
            if s > best.score {
                best = RelevanceScore {
                    score: s,
                    driving_category: Some(inf.concept),
                    via_inference: true,
                };
            }
        }
    }
    best
}

fn resolve_purpose(ontology: &Ontology, key: &str) -> Option<ConceptId> {
    if let Some(id) = ontology.purposes.id(key) {
        return Some(id);
    }
    let normalized = key.to_lowercase().replace(['_', ' '], "-");
    ontology
        .purposes
        .iter()
        .find(|c| {
            c.key().rsplit('/').next() == Some(normalized.as_str())
                || c.label().to_lowercase() == key.to_lowercase()
        })
        .map(tippers_ontology::Concept::id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_policy::{catalog, PolicyCodec, PolicyId};
    use tippers_spatial::fixtures::dbh;

    #[test]
    fn ancestor_sensitivity_propagates() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut p = SensitivityProfile::new();
        p.set(c.location, 0.9);
        assert!((p.sensitivity(&ont, c.location_fine) - 0.9).abs() < 1e-9);
        assert_eq!(p.sensitivity(&ont, c.ambient_temperature), 0.0);
    }

    #[test]
    fn wifi_advert_is_relevant_via_inference() {
        let ont = Ontology::standard();
        let d = dbh();
        let codec = PolicyCodec::new(&ont, &d.model);
        let policy = catalog::policy2_emergency_location(PolicyId(2), d.building, &ont);
        let doc = codec.to_document(&policy);
        let profile = SensitivityProfile::fundamentalist(&ont);
        let score = score_resource(&doc.resources[0], &profile, &ont);
        assert!(score.score > 0.3, "score {}", score.score);
        // WiFi logs are network metadata; the concern comes through
        // inference (device MAC is directly collected at weight 0.9, but
        // also location at 0.95 × 0.9 confidence — either way a driver
        // exists).
        assert!(score.driving_category.is_some());
    }

    #[test]
    fn unconcerned_users_score_zero() {
        let ont = Ontology::standard();
        let d = dbh();
        let codec = PolicyCodec::new(&ont, &d.model);
        let policy = catalog::policy2_emergency_location(PolicyId(2), d.building, &ont);
        let doc = codec.to_document(&policy);
        let profile = SensitivityProfile::unconcerned(&ont);
        let score = score_resource(&doc.resources[0], &profile, &ont);
        assert_eq!(score.score, 0.0);
    }

    #[test]
    fn marketing_purposes_amplify() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        assert!(purpose_factor(&ont, c.marketing) > purpose_factor(&ont, c.emergency_response));
        assert!(purpose_factor(&ont, c.navigation) > purpose_factor(&ont, c.emergency_response));
    }
}
