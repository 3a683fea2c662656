//! Natural-language question rendering (Section 6.2).
//!
//! "Questions … are automatically translated into a natural language
//! question using templates. These templates are domain-specific, and can
//! be manually created in advance." — e.g. the assignment φ17 renders as
//! *"How often do you engage in ball games in Central Park?"*.

use ontology::{PatternFact, PatternSet, RelId, Vocabulary};
use std::collections::HashMap;

/// Domain-specific phrase templates, one per relation. `{s}` and `{o}`
/// are replaced by the subject/object element names (lower-cased unless
/// the name looks like a proper noun); wildcards render as "something".
#[derive(Debug, Clone, Default)]
pub struct QuestionTemplates {
    by_rel: HashMap<RelId, String>,
}

impl QuestionTemplates {
    /// Empty template set (everything uses the generic fallback).
    pub fn new() -> Self {
        Self::default()
    }

    /// The running example's travel-domain templates.
    pub fn travel_defaults(vocab: &Vocabulary) -> Self {
        let mut t = Self::new();
        if let Some(r) = vocab.rel_id("doAt") {
            t.set(r, "{s} in {o}");
        }
        if let Some(r) = vocab.rel_id("eatAt") {
            t.set(r, "eat {s} at {o}");
        }
        t
    }

    /// Templates for the culinary evaluation domain ("How often do you
    /// have dish X with drink Y?").
    pub fn culinary_defaults(vocab: &Vocabulary) -> Self {
        let mut t = Self::new();
        if let Some(r) = vocab.rel_id("servedWith") {
            t.set(r, "have {s} together with {o}");
        }
        t
    }

    /// Templates for the self-treatment evaluation domain.
    pub fn self_treatment_defaults(vocab: &Vocabulary) -> Self {
        let mut t = Self::new();
        if let Some(r) = vocab.rel_id("takenFor") {
            t.set(r, "take {s} to relieve {o}");
        }
        t
    }

    /// Sets the template for one relation.
    pub fn set(&mut self, rel: RelId, template: &str) {
        self.by_rel.insert(rel, template.to_owned());
    }

    fn phrase(&self, vocab: &Vocabulary, p: &PatternFact) -> String {
        let subj = p
            .subject
            .map_or("something".to_owned(), |e| humanize(vocab.elem_name(e)));
        let obj = p
            .object
            .map_or("somewhere".to_owned(), |e| vocab.elem_name(e).to_owned());
        let rel_name = p
            .rel
            .map_or("do".to_owned(), |r| vocab.rel_name(r).to_owned());
        let template = p
            .rel
            .and_then(|r| self.by_rel.get(&r).cloned())
            .unwrap_or_else(|| "{s} {r} {o}".to_owned());
        template
            .replace("{s}", &subj)
            .replace("{r}", &rel_name)
            .replace("{o}", &obj)
    }

    /// Renders a concrete question: *"How often do you ⟨…⟩ and also
    /// ⟨…⟩?"*.
    pub fn render_concrete(&self, vocab: &Vocabulary, pattern: &PatternSet) -> String {
        if pattern.is_empty() {
            return "How often do you do anything at all?".to_owned();
        }
        let parts: Vec<String> = pattern.iter().map(|p| self.phrase(vocab, p)).collect();
        format!("How often do you {}?", parts.join(" and also "))
    }

    /// Renders a specialization question: *"What type of … do you …? How
    /// often do you do that?"* with the options as auto-completion
    /// suggestions.
    pub fn render_specialization(
        &self,
        vocab: &Vocabulary,
        base: &PatternSet,
        options: &[PatternSet],
    ) -> String {
        let base_part = self.render_concrete(vocab, base);
        let base_part = base_part
            .trim_start_matches("How often do you ")
            .trim_end_matches('?');
        let opts: Vec<String> = options
            .iter()
            .map(|o| self.render_concrete(vocab, o))
            .collect();
        format!(
            "Can you be more specific about how you {base_part}? How often do you do that? (suggestions: {})",
            opts.join(" / ")
        )
    }
}

/// Lower-case a class-like name ("Ball Game" → "ball games" is beyond us;
/// we lower-case multi-word class names but keep names containing digits
/// or starting mid-sentence-capitalized proper nouns — heuristically,
/// names whose every word is capitalized and that appear after `instanceOf`
/// would be proper; since we cannot know, we lower-case only all-alpha
/// names of length > 3 that are not all-caps).
fn humanize(name: &str) -> String {
    let proper = name.chars().any(|c| c.is_ascii_digit())
        || name.len() <= 3
        || name.chars().all(|c| c.is_uppercase() || c.is_whitespace());
    if proper {
        name.to_owned()
    } else {
        name.to_lowercase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontology::domains::figure1;
    use ontology::PatternSet;

    #[test]
    fn renders_the_phi17_question() {
        // "How often do you engage in ball games in Central Park?" — our
        // template renders the equivalent "ball game in Central Park".
        let ont = figure1::ontology();
        let v = ont.vocab();
        let t = QuestionTemplates::travel_defaults(v);
        let p = PatternSet::from_facts([v.fact("Ball Game", "doAt", "Central Park").unwrap()]);
        assert_eq!(
            t.render_concrete(v, &p),
            "How often do you ball game in Central Park?"
        );
    }

    #[test]
    fn renders_bundled_questions() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let t = QuestionTemplates::travel_defaults(v);
        let p = PatternSet::from_facts([
            v.fact("Biking", "doAt", "Central Park").unwrap(),
            v.fact("Falafel", "eatAt", "Maoz Veg").unwrap(),
        ]);
        let s = t.render_concrete(v, &p);
        assert!(s.starts_with("How often do you "));
        assert!(s.contains(" and also "));
        assert!(s.contains("biking in Central Park"));
        assert!(s.contains("eat falafel at Maoz Veg"));
    }

    #[test]
    fn wildcards_render_as_something() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let t = QuestionTemplates::travel_defaults(v);
        let p = PatternSet::from_iter([ontology::PatternFact {
            subject: None,
            rel: v.rel_id("eatAt"),
            object: v.elem_id("Maoz Veg"),
        }]);
        assert_eq!(
            t.render_concrete(v, &p),
            "How often do you eat something at Maoz Veg?"
        );
    }

    #[test]
    fn fallback_template_used_for_unknown_relations() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let t = QuestionTemplates::new();
        let p = PatternSet::from_facts([v.fact("Central Park", "inside", "NYC").unwrap()]);
        let s = t.render_concrete(v, &p);
        assert!(s.contains("inside"), "{s}");
    }

    #[test]
    fn domain_default_templates() {
        use ontology::domains::{culinary, self_treatment, DomainScale};
        let c = culinary(DomainScale::small());
        let t = QuestionTemplates::culinary_defaults(c.ontology.vocab());
        let v = c.ontology.vocab();
        let p = PatternSet::from_facts([v.fact("DishKind2", "servedWith", "DrinkKind3").unwrap()]);
        // names with digits are kept verbatim by the humanizer
        assert_eq!(
            t.render_concrete(v, &p),
            "How often do you have DishKind2 together with DrinkKind3?"
        );
        let st = self_treatment(DomainScale::small());
        let t = QuestionTemplates::self_treatment_defaults(st.ontology.vocab());
        let v = st.ontology.vocab();
        let p =
            PatternSet::from_facts([v.fact("RemedyKind3", "takenFor", "SymptomKind2").unwrap()]);
        assert!(t.render_concrete(v, &p).contains("to relieve SymptomKind2"));
    }

    #[test]
    fn specialization_lists_options() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let t = QuestionTemplates::travel_defaults(v);
        let base = PatternSet::from_facts([v.fact("Sport", "doAt", "Central Park").unwrap()]);
        let options = vec![
            PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]),
            PatternSet::from_facts([v.fact("Ball Game", "doAt", "Central Park").unwrap()]),
        ];
        let s = t.render_specialization(v, &base, &options);
        assert!(s.contains("more specific"));
        assert!(s.contains("biking in Central Park"));
        assert!(s.contains("ball game in Central Park"));
    }
}
