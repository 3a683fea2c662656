//! The high-level OASSIS engine: parse → bind → evaluate WHERE → build the
//! assignment DAG → mine the crowd → format answers.
//!
//! This is the API the examples and experiments drive; it corresponds to
//! the prototype's top-level flow of Section 6.1 (RDFLIB SPARQL engine →
//! AssignGenerator → QueueManager → CrowdCache).
//!
//! # The single entry point
//!
//! [`Oassis::run`] executes one query — a pattern query or a rule query
//! (`IMPLYING … AND CONFIDENCE`) — described by a [`QueryRequest`] with
//! [`ExecuteOptions`], against a crowd source, on the caller's thread,
//! and returns a [`QueryOutcome`]. Errors unify under [`OassisError`].
//! The historical entry points `execute`, `execute_concurrent` and
//! `execute_rules` are gone — audit rule D6 bans both their definitions
//! and any call site, so the single entry point cannot regrow wrappers
//! silently. Requests are built fluently:
//! `QueryRequest::pattern(src).threshold(0.4).batch_width(2)`.

use crate::aggregate::Aggregator;
use crate::dag::Dag;
use crate::diversify::diversify;
use crate::multi::{run_multi, MultiOutcome};
use crate::rulemine::{run_rules, RuleMiningConfig, RuleOutcome};
use crate::templates::QuestionTemplates;
use crate::vertical::MiningConfig;
use crowd::CrowdSource;
use oassis_ql::{
    bind, evaluate_where, parse, BaseAssignment, BoundQuery, MatchMode, OutputFormat, QlError,
};
use ontology::Ontology;
use std::sync::Arc;

/// Unified error type of the public engine surface.
#[derive(Debug)]
pub enum OassisError {
    /// Query-language error: parse, bind, or semantic validation.
    Ql(QlError),
    /// Invalid resource budget (question budget, support threshold).
    Budget(String),
}

impl std::fmt::Display for OassisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OassisError::Ql(e) => write!(f, "query error: {e}"),
            OassisError::Budget(m) => write!(f, "budget error: {m}"),
        }
    }
}

impl std::error::Error for OassisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OassisError::Ql(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QlError> for OassisError {
    fn from(e: QlError) -> Self {
        OassisError::Ql(e)
    }
}

/// Options governing one [`QueryRequest`].
#[derive(Debug, Clone, Default)]
pub struct ExecuteOptions {
    /// Mining configuration for pattern queries (threshold override,
    /// question-type policy, crowd-access policy, telemetry handle).
    pub mining: MiningConfig,
    /// Rule-mining configuration, used when the query has an `IMPLYING`
    /// clause.
    pub rules: RuleMiningConfig,
}

/// A declarative description of one engine invocation: one query (pattern
/// or rule) plus the [`ExecuteOptions`] to run it under.
#[derive(Debug, Clone)]
pub struct QueryRequest<'q> {
    src: &'q str,
    options: ExecuteOptions,
}

impl<'q> QueryRequest<'q> {
    /// A request for a single query (pattern or rule — dispatched on the
    /// presence of an `IMPLYING` clause).
    pub fn new(src: &'q str) -> Self {
        QueryRequest {
            src,
            options: ExecuteOptions::default(),
        }
    }

    /// Builder entry point for a single pattern query; chain the fluent
    /// setters to shape the mining configuration:
    /// `QueryRequest::pattern(src).threshold(0.4).batch_width(2)`.
    ///
    /// Equivalent to [`QueryRequest::new`] — rule queries still dispatch
    /// on their `IMPLYING` clause, so `pattern` is about intent, not a
    /// restriction.
    pub fn pattern(src: &'q str) -> Self {
        QueryRequest::new(src)
    }

    /// Sets the minimum support threshold in `(0, 1]` (overrides the
    /// query's `WITH SUPPORT` clause).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.options.mining.threshold = Some(threshold);
        self
    }

    /// Sets the question batch width `k ≥ 1`: up to `k` questions are
    /// planned per member interaction.
    pub fn batch_width(mut self, width: usize) -> Self {
        self.options.mining.batch_width = width;
        self
    }

    /// Caps the total number of crowd questions the run may ask.
    pub fn max_questions(mut self, budget: usize) -> Self {
        self.options.mining.max_questions = Some(budget);
        self
    }

    /// Sets the deterministic mining seed (tie-breaking, sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.mining.seed = seed;
        self
    }

    /// Sets the mining configuration.
    pub fn with_mining(mut self, mining: MiningConfig) -> Self {
        self.options.mining = mining;
        self
    }

    /// Sets the rule-mining configuration.
    pub fn with_rules(mut self, rules: RuleMiningConfig) -> Self {
        self.options.rules = rules;
        self
    }

    /// The query source of the request.
    pub fn src(&self) -> &'q str {
        self.src
    }

    /// The options the request runs under.
    pub fn options(&self) -> &ExecuteOptions {
        &self.options
    }
}

/// A name perfbench's `Oassis::run` calls still spell:
/// `CrowdBinding::single(&mut crowd)` is `&mut crowd`. The next
/// benchmark PR removes it.
pub enum CrowdBinding {}

impl CrowdBinding {
    /// Returns `crowd` unchanged.
    pub fn single<C: CrowdSource>(crowd: &mut C) -> &mut C {
        crowd
    }
}

/// What a [`QueryRequest`] produced.
// One QueryOutcome exists per run and is consumed immediately by an
// `into_*` accessor — the variant size skew never multiplies across a
// collection, and boxing would put an allocation on every answer.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum QueryOutcome {
    /// A pattern query's rendered answers and mining outcome.
    Patterns(QueryAnswer),
    /// A rule query's rendered rules and outcome.
    Rules(RuleAnswer),
}

impl QueryOutcome {
    /// The pattern answer, if this was a single pattern query.
    pub fn as_patterns(&self) -> Option<&QueryAnswer> {
        match self {
            QueryOutcome::Patterns(a) => Some(a),
            _ => None,
        }
    }

    /// The rule answer, if this was a rule query.
    pub fn as_rules(&self) -> Option<&RuleAnswer> {
        match self {
            QueryOutcome::Rules(a) => Some(a),
            _ => None,
        }
    }

    /// Consumes into the pattern answer, if this was a pattern query.
    pub fn into_patterns(self) -> Option<QueryAnswer> {
        match self {
            QueryOutcome::Patterns(a) => Some(a),
            _ => None,
        }
    }

    /// Consumes into the rule answer, if this was a rule query.
    pub fn into_rules(self) -> Option<RuleAnswer> {
        match self {
            QueryOutcome::Rules(a) => Some(a),
            _ => None,
        }
    }
}

/// The OASSIS engine over one ontology.
pub struct Oassis<'o> {
    ont: &'o Ontology,
    match_mode: MatchMode,
    templates: QuestionTemplates,
    prepared: Option<Arc<PreparedQuery>>,
}

/// One query text made ready to mine: its parse/bind and its WHERE
/// result under one match mode. Both are pure functions of the text,
/// the ontology and the mode, so one entry serves every run of the
/// text. [`Oassis::run`] mines from such an entry — a lent one
/// ([`Oassis::with_prepared`]) or one it prepares for the call.
#[derive(Debug)]
pub struct PreparedQuery {
    src: String,
    mode: MatchMode,
    bound: BoundQuery,
    base: Vec<BaseAssignment>,
}

impl PreparedQuery {
    /// Parses and binds `src`, then evaluates its WHERE clause under
    /// `mode`.
    pub fn new(ont: &Ontology, src: &str, mode: MatchMode) -> Result<PreparedQuery, OassisError> {
        let bound = bind(&parse(src)?, ont)?;
        let base = evaluate_where(&bound, ont, mode);
        Ok(PreparedQuery {
            src: src.to_string(),
            mode,
            bound,
            base,
        })
    }

    /// The query text this entry was prepared from.
    pub fn src(&self) -> &str {
        &self.src
    }

    /// The parsed and bound query.
    pub fn bound(&self) -> &BoundQuery {
        &self.bound
    }

    /// The WHERE clause's valid base assignments.
    pub fn base(&self) -> &[BaseAssignment] {
        &self.base
    }
}

/// The answer to an OASSIS-QL query.
#[derive(Debug)]
pub struct QueryAnswer {
    /// Rendered answer rows: the valid MSPs (or, with `ALL`, every valid
    /// significant assignment), in the format the `SELECT` clause
    /// requested.
    pub answers: Vec<String>,
    /// Full mining outcome (question counts, discovery events, MSP sets
    /// including invalid ones, …).
    pub outcome: MultiOutcome,
}

impl QueryAnswer {
    /// The run's answer-operation log: every accepted answer as a
    /// replayable delta. `ops.replay(...)` over the run's DAG reproduces
    /// the outcome's digest-relevant fields from any permutation of the
    /// log (see [`crate::oplog`]).
    pub fn ops(&self) -> &crate::oplog::OpLog {
        &self.outcome.mining.ops
    }
}

impl<'o> Oassis<'o> {
    /// Creates an engine with exact (SPARQL-style) WHERE matching.
    pub fn new(ont: &'o Ontology) -> Self {
        Oassis {
            ont,
            match_mode: MatchMode::Exact,
            templates: QuestionTemplates::new(),
            prepared: None,
        }
    }

    /// Switches the WHERE match mode.
    pub fn with_match_mode(mut self, mode: MatchMode) -> Self {
        self.match_mode = mode;
        self
    }

    /// Lends a prepared entry to [`Self::run`]: a query whose text and
    /// match mode are the entry's mines from it without parsing, binding
    /// or evaluating WHERE again. Any other query is prepared for the
    /// call, exactly as without an entry.
    pub fn with_prepared(mut self, entry: Arc<PreparedQuery>) -> Self {
        self.prepared = Some(entry);
        self
    }

    /// Installs question templates (used by [`Self::render_question`]).
    pub fn with_templates(mut self, templates: QuestionTemplates) -> Self {
        self.templates = templates;
        self
    }

    /// The underlying ontology.
    pub fn ontology(&self) -> &'o Ontology {
        self.ont
    }

    /// Parses and binds a query without executing it.
    pub fn prepare(&self, src: &str) -> Result<BoundQuery, OassisError> {
        let q = parse(src)?;
        Ok(bind(&q, self.ont)?)
    }

    /// The entry `src` mines from: the lent one when it serves `src`
    /// under this engine's match mode, else one prepared here.
    fn prepared(&self, src: &str) -> Result<Arc<PreparedQuery>, OassisError> {
        match &self.prepared {
            Some(entry) if entry.src == src && entry.mode == self.match_mode => Ok(entry.clone()),
            _ => Ok(Arc::new(PreparedQuery::new(
                self.ont,
                src,
                self.match_mode,
            )?)),
        }
    }

    /// Renders a crowd question in natural language.
    pub fn render_question(&self, q: &crowd::Question) -> String {
        match q {
            crowd::Question::Concrete { pattern } => {
                self.templates.render_concrete(self.ont.vocab(), pattern)
            }
            crowd::Question::Specialization { base, options } => self
                .templates
                .render_specialization(self.ont.vocab(), base, options),
        }
    }

    /// Executes a [`QueryRequest`] — a pattern query or a rule query —
    /// against `crowd` and the aggregator, on the caller's thread. The
    /// single entry point of the engine.
    ///
    /// A zero question budget or a support threshold outside `(0, 1]`
    /// is rejected up front with [`OassisError::Budget`]
    /// ([`MiningConfig::check_budget`]).
    pub fn run<C: CrowdSource, A: Aggregator>(
        &self,
        req: &QueryRequest<'_>,
        crowd: &mut C,
        aggregator: &A,
    ) -> Result<QueryOutcome, OassisError> {
        let mining = &req.options.mining;
        mining.check_budget()?;
        let prepared = {
            let _s = mining.telemetry.span("prepare");
            self.prepared(req.src)?
        };
        let outcome = if prepared.bound.imp_meta.is_empty() {
            QueryOutcome::Patterns(self.run_pattern_query(&prepared, crowd, aggregator, mining))
        } else {
            QueryOutcome::Rules(self.run_rule_query(
                &prepared,
                crowd,
                &req.options.rules,
                &mining.telemetry,
            )?)
        };
        Ok(outcome)
    }

    /// Pattern-query pipeline over a prepared query: DAG → multi-user
    /// mining → selection/rendering, each phase under its own telemetry
    /// span.
    fn run_pattern_query<C: CrowdSource, A: Aggregator>(
        &self,
        prepared: &PreparedQuery,
        crowd: &mut C,
        aggregator: &A,
        cfg: &MiningConfig,
    ) -> QueryAnswer {
        let bound = &prepared.bound;
        let root = cfg.telemetry.span("query.pattern");
        let tele = root.tele().clone();
        let mut dag = {
            let _s = tele.span("dag_build");
            Dag::new(bound, self.ont.vocab(), &prepared.base)
        };
        let mut run_cfg = cfg.clone();
        run_cfg.telemetry = tele.clone();
        let outcome = run_multi(&mut dag, crowd, aggregator, &run_cfg);
        let _s = tele.span("select");
        let vocab = self.ont.vocab();
        let selected: Vec<crate::Assignment> = {
            let pool: &[crate::Assignment] = if bound.all {
                &outcome.mining.significant_valid
            } else {
                &outcome.mining.valid_msps
            };
            match bound.top_k {
                None => pool.to_vec(),
                Some(k) if bound.diverse => diversify(vocab, pool, k),
                Some(k) => pool.iter().take(k).cloned().collect(),
            }
        };
        let answers: Vec<String> = selected
            .iter()
            .map(|a| match bound.format {
                OutputFormat::FactSets => a.apply(bound).to_display(vocab),
                OutputFormat::Variables => a.to_display(bound, vocab),
            })
            .collect();
        QueryAnswer { answers, outcome }
    }

    /// Rule-query pipeline over a prepared query: DAG → two-phase rule
    /// mining → rendering, each phase under its own telemetry span.
    fn run_rule_query<C: CrowdSource>(
        &self,
        prepared: &PreparedQuery,
        crowd: &mut C,
        cfg: &RuleMiningConfig,
        telemetry: &telemetry::Telemetry,
    ) -> Result<RuleAnswer, OassisError> {
        let root = telemetry.span("query.rules");
        let tele = root.tele();
        let bound = &prepared.bound;
        let mut dag = {
            let _s = tele.span("dag_build");
            Dag::new(bound, self.ont.vocab(), &prepared.base)
        };
        let outcome = {
            let _s = tele.span("mine.rules");
            run_rules(&mut dag, crowd, cfg)?
        };
        tele.count("engine.questions", outcome.questions as u64);
        let _s = tele.span("select");
        let vocab = self.ont.vocab();
        let pool: Vec<&crate::rulemine::MinedRule> =
            outcome.rules.iter().filter(|r| r.valid).collect();
        let selected: Vec<&crate::rulemine::MinedRule> = match bound.top_k {
            None => pool,
            Some(k) => pool.into_iter().take(k).collect(),
        };
        let answers: Vec<String> = selected
            .iter()
            .map(|r| {
                format!(
                    "{} ⇒ {}   (supp {:.2}, conf {:.2})",
                    r.body.to_display(vocab),
                    r.head.to_display(vocab),
                    r.support,
                    r.confidence
                )
            })
            .collect();
        Ok(RuleAnswer { answers, outcome })
    }
}

/// The answer to an OASSIS-QL rule query.
#[derive(Debug)]
pub struct RuleAnswer {
    /// Rendered `body ⇒ head` rows for the valid mined rules.
    pub answers: Vec<String>,
    /// Full rule-mining outcome.
    pub outcome: RuleOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FixedSampleAggregator;
    use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
    use ontology::domains::figure1;

    fn u_avg(ont: &Ontology, seed: u64) -> SimulatedMember {
        let [d1, d2] = figure1::personal_dbs(ont);
        let mut tx = d1;
        for _ in 0..3 {
            tx.extend(d2.iter().cloned());
        }
        SimulatedMember::new(
            PersonalDb::from_transactions(tx),
            MemberBehavior::default(),
            AnswerModel::Exact,
            seed,
        )
    }

    #[test]
    fn end_to_end_simple_query() {
        let ont = figure1::ontology();
        let engine = Oassis::new(&ont);
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
        let agg = FixedSampleAggregator { sample_size: 1 };
        let ans = engine
            .run(
                &QueryRequest::pattern(figure1::SIMPLE_QUERY),
                &mut crowd,
                &agg,
            )
            .unwrap()
            .into_patterns()
            .unwrap();
        assert!(
            ans.answers.iter().any(|a| a == "Biking doAt Central Park"),
            "{:?}",
            ans.answers
        );
        assert!(ans
            .answers
            .iter()
            .any(|a| a == "Feed a Monkey doAt Bronx Zoo"));
        assert!(ans.outcome.mining.complete);
    }

    #[test]
    fn select_all_returns_superset_of_msps() {
        let ont = figure1::ontology();
        let engine = Oassis::new(&ont);
        let agg = FixedSampleAggregator { sample_size: 1 };
        let all_query = figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT FACT-SETS ALL");
        let mut crowd1 = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
        let msp_ans = engine
            .run(
                &QueryRequest::pattern(figure1::SIMPLE_QUERY),
                &mut crowd1,
                &agg,
            )
            .unwrap()
            .into_patterns()
            .unwrap();
        let mut crowd2 = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
        let all_ans = engine
            .run(&QueryRequest::pattern(&all_query), &mut crowd2, &agg)
            .unwrap()
            .into_patterns()
            .unwrap();
        assert!(all_ans.answers.len() >= msp_ans.answers.len());
        // e.g. the generalization "Sport doAt Central Park" is significant
        // but not maximal
        assert!(
            all_ans
                .answers
                .iter()
                .any(|a| a == "Sport doAt Central Park"),
            "{:?}",
            all_ans.answers
        );
        assert!(!msp_ans
            .answers
            .iter()
            .any(|a| a == "Sport doAt Central Park"));
    }

    #[test]
    fn select_variables_renders_assignments() {
        let ont = figure1::ontology();
        let engine = Oassis::new(&ont);
        let agg = FixedSampleAggregator { sample_size: 1 };
        let var_query = figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT VARIABLES");
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
        let ans = engine
            .run(&QueryRequest::pattern(&var_query), &mut crowd, &agg)
            .unwrap()
            .into_patterns()
            .unwrap();
        assert!(
            ans.answers
                .iter()
                .any(|a| a.contains("$x ↦ {Central Park}")),
            "{:?}",
            ans.answers
        );
        assert!(ans.answers.iter().any(|a| a.contains("$y ↦ {Biking}")));
    }

    #[test]
    fn builder_sets_mining_fields() {
        let req = QueryRequest::pattern("q")
            .threshold(0.4)
            .batch_width(3)
            .max_questions(77)
            .seed(9);
        let m = &req.options().mining;
        assert_eq!(m.threshold, Some(0.4));
        assert_eq!(m.batch_width, 3);
        assert_eq!(m.max_questions, Some(77));
        assert_eq!(m.seed, 9);
        assert_eq!(req.src(), "q");
    }

    #[test]
    fn builder_threshold_validated_by_run() {
        let ont = figure1::ontology();
        let engine = Oassis::new(&ont);
        let agg = FixedSampleAggregator { sample_size: 1 };
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
        let err = engine
            .run(
                &QueryRequest::pattern(figure1::SIMPLE_QUERY).threshold(1.5),
                &mut crowd,
                &agg,
            )
            .unwrap_err();
        assert!(matches!(err, OassisError::Budget(_)), "{err}");
    }

    #[test]
    fn parse_errors_surface() {
        let ont = figure1::ontology();
        let engine = Oassis::new(&ont);
        assert!(engine.prepare("SELECT GARBAGE").is_err());
        assert!(engine
            .prepare("SELECT FACT-SETS WHERE $x instanceOf Mars SATISFYING $x doAt NYC WITH SUPPORT = 0.2")
            .is_err());
    }
}
