//! Association-rule mining over the assignment DAG — the `IMPLYING … AND
//! CONFIDENCE` extension of OASSIS-QL (the paper's language guide mentions
//! rule mining; Section 8 lists it among the features "described in the
//! language guide").
//!
//! A rule query mines assignments φ whose *full* pattern
//! `φ(A_SAT ∪ A_IMP ∪ MORE)` has average support ≥ Θ **and** whose
//! confidence `supp(full) / supp(body)` is ≥ the confidence threshold,
//! where the *body* is `φ(A_SAT ∪ MORE)`.
//!
//! Support is antitone in the assignment order (Observation 4.4), so the
//! support dimension is classified exactly like the vertical algorithm.
//! Confidence, however, is **not** monotone — a rule can gain or lose
//! confidence under specialization — so it must be evaluated pointwise on
//! every support-significant assignment. The algorithm therefore runs in
//! two phases:
//!
//! 1. classify full-pattern support top-down with inference (questions ≈
//!    the vertical algorithm's);
//! 2. sweep the support-significant region, asking each member panel for
//!    the body support, and report the *maximal rule-significant*
//!    assignments (no rule-significant successor).

use crate::assignment::Assignment;
use crate::classify::{Class, Classifier};
use crate::dag::{Dag, NodeId};
use crowd::{Answer, CrowdSource, MemberId, Question};
use oassis_ql::QlError;
use ontology::PatternSet;
use std::collections::{HashMap, HashSet, VecDeque};

/// Configuration for rule mining.
#[derive(Debug, Clone)]
pub struct RuleMiningConfig {
    /// Support threshold override (`None` = the query's `WITH SUPPORT`).
    pub support: Option<f64>,
    /// Confidence threshold override (`None` = the query's
    /// `AND CONFIDENCE`).
    pub confidence: Option<f64>,
    /// Members asked per pattern; their reported supports are averaged
    /// (a panel stand-in for the full multi-user machinery).
    pub panel_size: usize,
    /// Question budget (`None` = run to completion).
    pub max_questions: Option<usize>,
}

impl Default for RuleMiningConfig {
    fn default() -> Self {
        RuleMiningConfig {
            support: None,
            confidence: None,
            panel_size: 5,
            max_questions: None,
        }
    }
}

/// One mined rule: a maximal rule-significant assignment.
#[derive(Debug, Clone)]
pub struct MinedRule {
    /// The assignment.
    pub assignment: Assignment,
    /// The rule body `φ(A_SAT ∪ MORE)`.
    pub body: PatternSet,
    /// The rule head `φ(A_IMP)`.
    pub head: PatternSet,
    /// Average support of body ∪ head.
    pub support: f64,
    /// `supp(body ∪ head) / supp(body)`.
    pub confidence: f64,
    /// Whether the assignment is valid w.r.t. the WHERE clause.
    pub valid: bool,
}

/// Outcome of a rule-mining run.
#[derive(Debug)]
pub struct RuleOutcome {
    /// Maximal rule-significant assignments, valid ones first.
    pub rules: Vec<MinedRule>,
    /// Questions answered by the crowd (both phases).
    pub questions: usize,
    /// Whether the run classified everything.
    pub complete: bool,
    /// Nodes materialized.
    pub nodes_materialized: usize,
}

/// Runs rule mining on a bound rule query (one with an `IMPLYING` clause).
pub fn run_rules<C: CrowdSource>(
    dag: &mut Dag<'_>,
    crowd: &mut C,
    cfg: &RuleMiningConfig,
) -> Result<RuleOutcome, QlError> {
    let q = dag.query();
    if q.imp_meta.is_empty() {
        return Err(QlError::Invalid(
            "run_rules requires an IMPLYING clause".into(),
        ));
    }
    let theta = cfg.support.unwrap_or(q.threshold);
    let conf_theta = cfg
        .confidence
        .or(q.confidence)
        .ok_or_else(|| QlError::Invalid("rule query lacks a confidence threshold".into()))?;

    let members = crowd.members();
    if members.is_empty() {
        return Err(QlError::Invalid(
            "rule mining needs at least one crowd member".into(),
        ));
    }
    let panel: Vec<MemberId> = members.into_iter().take(cfg.panel_size.max(1)).collect();
    let mut state = RuleState {
        cls: Classifier::new(),
        questions: 0,
        budget: cfg.max_questions,
        support_cache: HashMap::new(),
        exhausted: false,
    };

    // ---- phase 1: classify full-pattern support, vertical-style ----
    loop {
        if state.out_of_budget() {
            break;
        }
        let Some(mut phi) = crate::vertical::find_minimal_unclassified(
            dag,
            &mut state.cls,
            &std::collections::HashSet::new(),
        ) else {
            break;
        };
        if !state.ask_support(dag, crowd, &panel, phi, theta) {
            continue;
        }
        loop {
            if state.out_of_budget() {
                break;
            }
            let children = dag.children(phi);
            if let Some(&c) = children
                .iter()
                .find(|&&c| state.cls.class(dag, c) == Class::Significant)
            {
                phi = c;
                continue;
            }
            let next = children
                .iter()
                .copied()
                .find(|&c| state.cls.class(dag, c) == Class::Unknown);
            match next {
                None => break,
                Some(c) => {
                    if state.ask_support(dag, crowd, &panel, c, theta) {
                        phi = c;
                    }
                }
            }
        }
    }
    let complete = !state.out_of_budget()
        && crate::vertical::find_minimal_unclassified(
            dag,
            &mut state.cls,
            &std::collections::HashSet::new(),
        )
        .is_none();

    // ---- phase 2: confidence sweep over the support-significant region ----
    let mut sig_nodes: Vec<NodeId> = Vec::new();
    {
        let mut queue: VecDeque<NodeId> = dag.roots().iter().copied().collect();
        let mut seen: HashSet<NodeId> = queue.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if state.cls.class(dag, id) != Class::Significant {
                continue;
            }
            sig_nodes.push(id);
            for c in dag.children(id) {
                if seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
    }

    let mut rule_sig: HashMap<NodeId, (f64, f64)> = HashMap::new(); // supp, conf
    for &id in &sig_nodes {
        if state.out_of_budget() {
            break;
        }
        let full = dag.node(id).assignment.apply(dag.query());
        let body = dag.node(id).assignment.apply_body(dag.query());
        let supp_full = state.avg_support(crowd, &panel, &full);
        let supp_body = state.avg_support(crowd, &panel, &body);
        let conf = if supp_body > 0.0 {
            supp_full / supp_body
        } else {
            0.0
        };
        if supp_full >= theta && conf >= conf_theta {
            rule_sig.insert(id, (supp_full, conf.min(1.0)));
        }
    }

    // maximal rule-significant: no rule-significant child
    let mut rules: Vec<MinedRule> = rule_sig
        .iter()
        .filter(|(&id, _)| {
            dag.children_if_generated(id)
                .unwrap_or(&[])
                .iter()
                .all(|c| !rule_sig.contains_key(c))
        })
        .map(|(&id, &(support, confidence))| {
            let a = dag.node(id).assignment.clone();
            MinedRule {
                body: a.apply_body(dag.query()),
                head: a.apply_head(dag.query()),
                support,
                confidence,
                valid: dag.node(id).valid,
                assignment: a,
            }
        })
        .collect();
    rules.sort_by(|a, b| {
        b.valid
            .cmp(&a.valid)
            .then(
                b.support
                    .partial_cmp(&a.support)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then_with(|| a.assignment.cmp(&b.assignment))
    });

    Ok(RuleOutcome {
        rules,
        questions: state.questions,
        complete: complete && !state.exhausted,
        nodes_materialized: dag.len(),
    })
}

struct RuleState {
    cls: Classifier,
    questions: usize,
    budget: Option<usize>,
    /// Per (pattern) panel-average support, so phase 2 re-uses phase-1
    /// answers instead of re-asking.
    support_cache: HashMap<PatternSet, f64>,
    exhausted: bool,
}

impl RuleState {
    fn out_of_budget(&self) -> bool {
        self.exhausted || self.budget.is_some_and(|b| self.questions >= b)
    }

    /// Panel-average support of a pattern (cached).
    fn avg_support<C: CrowdSource>(
        &mut self,
        crowd: &mut C,
        panel: &[MemberId],
        pattern: &PatternSet,
    ) -> f64 {
        if let Some(&s) = self.support_cache.get(pattern) {
            return s;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for &m in panel {
            match crowd.ask(
                m,
                &Question::Concrete {
                    pattern: pattern.clone(),
                },
            ) {
                Answer::Support { support, .. } => {
                    self.questions += 1;
                    sum += support;
                    n += 1;
                }
                Answer::Irrelevant { .. } => {
                    self.questions += 1;
                    n += 1; // counts as support 0
                }
                Answer::Unavailable => {
                    self.exhausted = true;
                }
                // stalled member: skip their sample, average the rest
                Answer::NoResponse => {}
                _ => unreachable!("non-concrete answer to a concrete question"),
            }
        }
        let avg = if n == 0 { 0.0 } else { sum / n as f64 };
        self.support_cache.insert(pattern.clone(), avg);
        avg
    }

    /// Asks the panel about the node's full pattern and classifies it.
    fn ask_support<C: CrowdSource>(
        &mut self,
        dag: &mut Dag<'_>,
        crowd: &mut C,
        panel: &[MemberId],
        id: NodeId,
        theta: f64,
    ) -> bool {
        let pattern = dag.node(id).assignment.apply(dag.query());
        let avg = self.avg_support(crowd, panel, &pattern);
        let sig = avg >= theta;
        if sig {
            self.cls.mark_significant(dag, id);
        } else {
            self.cls.mark_insignificant(dag, id);
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    /// Rule query on the running example: "when people do an activity at a
    /// child-friendly NYC attraction, do they also eat at a nearby
    /// restaurant?"
    const RULE_QUERY: &str = r#"
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity.
  $z instanceOf Restaurant.
  $z nearBy $x
SATISFYING
  $y doAt $x
IMPLYING
  [] eatAt $z
WITH SUPPORT = 0.3 AND CONFIDENCE = 0.75
"#;

    fn u_avg(ont: &ontology::Ontology) -> SimulatedMember {
        let [d1, d2] = figure1::personal_dbs(ont);
        let mut tx = d1;
        for _ in 0..3 {
            tx.extend(d2.iter().cloned());
        }
        SimulatedMember::new(
            PersonalDb::from_transactions(tx),
            MemberBehavior::default(),
            AnswerModel::Exact,
            0,
        )
    }

    #[test]
    fn mines_rules_on_the_running_example() {
        let ont = figure1::ontology();
        let q = parse(RULE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        assert_eq!(b.imp_meta.len(), 1);
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont)]);
        let cfg = RuleMiningConfig {
            panel_size: 1,
            ..Default::default()
        };
        let out = run_rules(&mut dag, &mut crowd, &cfg).unwrap();
        assert!(out.complete);
        assert!(!out.rules.is_empty());
        let v = ont.vocab();
        // Feed a Monkey @ Bronx Zoo ⇒ eat at Pine: supp(full) = avg(2/6,1/2)
        // = 5/12 ≥ 0.3; supp(body) = avg(3/6, 1/2) = 1/2; conf = 5/6 ≥ 0.75.
        let monkey = out.rules.iter().find(|r| {
            r.body
                .to_display(v)
                .contains("Feed a Monkey doAt Bronx Zoo")
        });
        let monkey = monkey.expect("monkey rule found");
        assert!(monkey.head.to_display(v).contains("eatAt Pine"));
        assert!(
            (monkey.confidence - 5.0 / 6.0).abs() < 1e-9,
            "{}",
            monkey.confidence
        );
        assert!((monkey.support - 5.0 / 12.0).abs() < 1e-9);
        // Every reported rule clears both thresholds.
        for r in &out.rules {
            assert!(r.support >= 0.3);
            assert!(r.confidence >= 0.75);
        }
    }

    #[test]
    fn confidence_threshold_filters_rules() {
        // With CONFIDENCE = 1.0 only always-co-occurring rules survive.
        let ont = figure1::ontology();
        let strict = RULE_QUERY.replace("CONFIDENCE = 0.75", "CONFIDENCE = 1");
        let q = parse(&strict).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont)]);
        let cfg = RuleMiningConfig {
            panel_size: 1,
            ..Default::default()
        };
        let out = run_rules(&mut dag, &mut crowd, &cfg).unwrap();
        for r in &out.rules {
            assert!(r.confidence >= 1.0 - 1e-9);
        }
        // Biking@CP ⇒ eat@Maoz has confidence 1 for u_avg: body supp
        // avg(2/6, 1/2) = 5/12, full supp 5/12.
        let v = ont.vocab();
        assert!(
            out.rules
                .iter()
                .any(|r| r.body.to_display(v).contains("Biking doAt Central Park")),
            "{:?}",
            out.rules
                .iter()
                .map(|r| r.body.to_display(v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn phase_one_reuses_answers_in_phase_two() {
        let ont = figure1::ontology();
        let q = parse(RULE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont)]);
        let cfg = RuleMiningConfig {
            panel_size: 1,
            ..Default::default()
        };
        let out = run_rules(&mut dag, &mut crowd, &cfg).unwrap();
        // crowd-level question count equals the engine's (no re-asks for
        // cached patterns)
        assert_eq!(out.questions, crowd.questions_asked());
    }

    #[test]
    fn non_rule_query_is_rejected() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont)]);
        assert!(run_rules(&mut dag, &mut crowd, &RuleMiningConfig::default()).is_err());
    }

    #[test]
    fn budget_stops_rule_mining() {
        let ont = figure1::ontology();
        let q = parse(RULE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont)]);
        let cfg = RuleMiningConfig {
            panel_size: 1,
            max_questions: Some(5),
            ..Default::default()
        };
        let out = run_rules(&mut dag, &mut crowd, &cfg).unwrap();
        assert!(!out.complete);
        assert!(out.questions <= 6); // one panel round may finish in flight
    }
}
