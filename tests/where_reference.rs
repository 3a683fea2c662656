//! Differential test of WHERE evaluation against a brute-force reference.
//!
//! Random conjunctions of 1–4 WHERE patterns over the Figure-1 ontology
//! are evaluated by [`evaluate_where`] and by a reference that tries every
//! assignment of the WHERE variables over the vocabulary and keeps those
//! under which each pattern holds by its definition:
//! - an asserted fact matches (Exact: equal components; Semantic: a
//!   constant `c` matches a component `c'` when `c ≤E c'`, and a constant
//!   relation matches any of its `rel_descendants`);
//! - a blank is existential;
//! - `s r* o` holds when some element `x` that `s` matches reaches some
//!   element `y` that `o` matches by 0+ steps, each step an asserted fact
//!   that a one-step `x r y` pattern matches in that mode (so in Semantic
//!   mode a step may follow any `rel_descendants` relation, and a constant
//!   endpoint `c` sits on any `x` with `c ≤E x`);
//! - `s hasLabel "l"` holds by `has_label`.
//!
//! The reference shares no code with the solver: it reads the fact-set
//! itself, not the per-relation index, and computes path reach as a
//! reflexive-transitive closure.

use oassis::ontology::domains::figure1;
use oassis::ontology::{ElemId, Ontology, RelId};
use oassis::prelude::*;
use oassis::ql::bind::WherePattern;
use oassis::ql::{FactTerm, RelTerm, VarId};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Element constants: classes, instances, a vocabulary-only term.
const ELEMS: [&str; 10] = [
    "Activity",
    "Sport",
    "\"Ball Game\"",
    "Attraction",
    "Park",
    "Restaurant",
    "\"Central Park\"",
    "\"Maoz Veg\"",
    "NYC",
    "Boathouse",
];

/// Relation constants, including one with no asserted fact (`doAt`) and
/// the pair `nearBy ≤R inside`.
const RELS: [&str; 5] = ["subClassOf", "instanceOf", "inside", "nearBy", "doAt"];

const LABELS: [&str; 2] = ["child-friendly", "unused-label"];

/// The Figure-1 ontology and, per match mode and relation `r`, the
/// reflexive-transitive closure over elements of the facts a one-step
/// `x r y` pattern matches in that mode.
struct Fixture {
    ont: Ontology,
    reach: [Vec<Vec<Vec<bool>>>; 2],
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ont = figure1::ontology();
        let n = ont.vocab().num_elems();
        let closure = |mode: MatchMode| -> Vec<Vec<Vec<bool>>> {
            ont.vocab()
                .rels()
                .map(|r| {
                    let mut m = vec![vec![false; n]; n];
                    for (i, row) in m.iter_mut().enumerate() {
                        row[i] = true;
                    }
                    let steps = ont.facts().iter().filter(|f| match mode {
                        MatchMode::Exact => f.rel == r,
                        MatchMode::Semantic => ont.vocab().rel_leq(r, f.rel),
                    });
                    for f in steps {
                        m[f.subject.index()][f.object.index()] = true;
                    }
                    // Warshall: row k does not change while k is the pivot.
                    for k in 0..n {
                        let via = m[k].clone();
                        for row in m.iter_mut().filter(|row| row[k]) {
                            for (cell, &step) in row.iter_mut().zip(&via) {
                                *cell |= step;
                            }
                        }
                    }
                    m
                })
                .collect()
        };
        let reach = [closure(MatchMode::Exact), closure(MatchMode::Semantic)];
        Fixture { ont, reach }
    })
}

fn elem_of(t: FactTerm, phi: &[Option<Value>]) -> Option<ElemId> {
    match t {
        FactTerm::Const(e) => Some(e),
        FactTerm::Var(v) => phi[v.index()].and_then(Value::as_elem),
        FactTerm::Blank => None,
    }
}

/// Whether pattern term `t` matches fact component `c` under `phi`.
fn term_matches(
    t: FactTerm,
    c: ElemId,
    phi: &[Option<Value>],
    mode: MatchMode,
    fx: &Fixture,
) -> bool {
    match t {
        FactTerm::Blank => true,
        FactTerm::Const(e) => match mode {
            MatchMode::Exact => e == c,
            MatchMode::Semantic => fx.ont.vocab().elem_leq(e, c),
        },
        FactTerm::Var(v) => phi[v.index()] == Some(Value::Elem(c)),
    }
}

fn rel_matches(
    r: RelTerm,
    rel: RelId,
    phi: &[Option<Value>],
    mode: MatchMode,
    fx: &Fixture,
) -> bool {
    match r {
        RelTerm::Const(c) => match mode {
            MatchMode::Exact => c == rel,
            MatchMode::Semantic => fx.ont.vocab().rel_descendants(c).any(|d| d == rel),
        },
        RelTerm::Var(v) => phi[v.index()] == Some(Value::Rel(rel)),
    }
}

/// Whether `p` holds under the complete assignment `phi`.
fn holds(p: &WherePattern, phi: &[Option<Value>], mode: MatchMode, fx: &Fixture) -> bool {
    let ont = &fx.ont;
    match p {
        WherePattern::Label { s, label } => match elem_of(*s, phi) {
            Some(e) => ont.has_label(e, label),
            None => ont.vocab().elems().any(|e| ont.has_label(e, label)),
        },
        WherePattern::Triple {
            s,
            r,
            o,
            star: false,
        } => ont.facts().iter().any(|f| {
            rel_matches(*r, f.rel, phi, mode, fx)
                && term_matches(*s, f.subject, phi, mode, fx)
                && term_matches(*o, f.object, phi, mode, fx)
        }),
        WherePattern::Triple {
            s,
            r: RelTerm::Const(rel),
            o,
            star: true,
        } => {
            let reach = &fx.reach[mode as usize][rel.index()];
            let ends = |t: FactTerm| -> Vec<ElemId> {
                match t {
                    FactTerm::Blank => ont.vocab().elems().collect(),
                    _ => ont
                        .vocab()
                        .elems()
                        .filter(|&e| term_matches(t, e, phi, mode, fx))
                        .collect(),
                }
            };
            let objects = ends(*o);
            ends(*s)
                .iter()
                .any(|se| objects.iter().any(|oe| reach[se.index()][oe.index()]))
        }
        WherePattern::Triple { star: true, .. } => unreachable!("binder rejects `$p*`"),
    }
}

/// The variables `p` mentions.
fn vars_of(p: &WherePattern) -> Vec<VarId> {
    let elem = |t: &FactTerm| match *t {
        FactTerm::Var(v) => Some(v),
        _ => None,
    };
    match p {
        WherePattern::Label { s, .. } => elem(s).into_iter().collect(),
        WherePattern::Triple { s, r, o, .. } => {
            let rv = match *r {
                RelTerm::Var(v) => Some(v),
                RelTerm::Const(_) => None,
            };
            [elem(s), rv, elem(o)].into_iter().flatten().collect()
        }
    }
}

/// Every assignment of the WHERE variables (elements or relations, by the
/// variable's kind) under which every pattern holds, sorted. A pattern is
/// checked as soon as the variables it mentions have values, which only
/// cuts assignments that some pattern already rejects.
fn reference(b: &BoundQuery, mode: MatchMode, fx: &Fixture) -> Vec<Vec<Option<Value>>> {
    let vocab = fx.ont.vocab();
    let domains: Vec<Vec<Value>> = b
        .vars
        .iter()
        .map(|v| {
            if v.is_rel {
                vocab.rels().map(Value::Rel).collect()
            } else {
                vocab.elems().map(Value::Elem).collect()
            }
        })
        .collect();
    // Patterns checked once variable `k` has its value: those whose last
    // variable is `k` (or that mention none, checked before the first).
    let mut due: Vec<Vec<&WherePattern>> = vec![Vec::new(); b.vars.len() + 1];
    for p in &b.where_patterns {
        let last = vars_of(p).iter().map(|v| v.index() + 1).max().unwrap_or(0);
        due[last].push(p);
    }
    let mut out = Vec::new();
    let mut phi = vec![None; b.vars.len()];
    fn go(
        k: usize,
        phi: &mut Vec<Option<Value>>,
        domains: &[Vec<Value>],
        due: &[Vec<&WherePattern>],
        mode: MatchMode,
        fx: &Fixture,
        out: &mut Vec<Vec<Option<Value>>>,
    ) {
        if !due[k].iter().all(|p| holds(p, phi, mode, fx)) {
            return;
        }
        if k == domains.len() {
            out.push(phi.clone());
            return;
        }
        for &value in &domains[k] {
            phi[k] = Some(value);
            go(k + 1, phi, domains, due, mode, fx, out);
        }
        phi[k] = None;
    }
    go(0, &mut phi, &domains, &due, mode, fx, &mut out);
    out.sort();
    out
}

fn where_text<S: std::borrow::Borrow<str>>(patterns: &[S]) -> String {
    format!(
        "SELECT FACT-SETS WHERE {} SATISFYING Biking doAt NYC WITH SUPPORT = 0.2",
        patterns.join(". ")
    )
}

/// Checks `evaluate_where` against the reference in both modes.
fn check(src: &str) -> Result<(), TestCaseError> {
    let fx = fixture();
    let q = parse(src).map_err(|e| TestCaseError::fail(format!("{src}: {e}")))?;
    let b = bind(&q, &fx.ont).map_err(|e| TestCaseError::fail(format!("{src}: {e}")))?;
    for mode in [MatchMode::Exact, MatchMode::Semantic] {
        let got: Vec<Vec<Option<Value>>> = evaluate_where(&b, &fx.ont, mode)
            .into_iter()
            .map(|a| a.0)
            .collect();
        prop_assert_eq!(got, reference(&b, mode, fx), "{:?} on {}", mode, src);
    }
    Ok(())
}

fn elem_term() -> BoxedStrategy<String> {
    prop_oneof![
        Just("$a".to_owned()),
        Just("$b".to_owned()),
        Just("$c".to_owned()),
        Just("[]".to_owned()),
        (0..ELEMS.len()).prop_map(|i| ELEMS[i].to_owned()),
    ]
    .boxed()
}

fn pattern() -> BoxedStrategy<String> {
    let rel = || (0..RELS.len()).prop_map(|i| RELS[i]);
    prop_oneof![
        (elem_term(), rel(), elem_term()).prop_map(|(s, r, o)| format!("{s} {r} {o}")),
        (elem_term(), elem_term()).prop_map(|(s, o)| format!("{s} $p {o}")),
        (elem_term(), rel(), elem_term()).prop_map(|(s, r, o)| format!("{s} {r}* {o}")),
        (rel(), 0..3usize).prop_map(|(r, v)| {
            let v = ["$a", "$b", "$c"][v];
            format!("{v} {r}* {v}")
        }),
        (elem_term(), 0..LABELS.len()).prop_map(|(s, l)| format!("{s} hasLabel \"{}\"", LABELS[l])),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn where_evaluation_matches_the_brute_force_reference(
        patterns in prop::collection::vec(pattern(), 1..5)
    ) {
        let src = where_text(&patterns);
        let vars = ["$a", "$b", "$c", "$p"].iter().filter(|v| src.contains(*v)).count();
        prop_assume!(vars <= 3);
        check(&src)?;
    }
}

/// The shapes a random draw reaches only now and then.
#[test]
fn where_evaluation_matches_the_reference_on_edge_shapes() {
    for patterns in [
        &["$a subClassOf* $b"][..],
        &["$a subClassOf* $a"],
        &["$a subClassOf* Sport", "Sport subClassOf* $b"],
        &["Sport subClassOf* $a", "$b subClassOf* Sport"],
        &["[] subClassOf* []"],
        &["$a subClassOf* []", "[] instanceOf $a"],
        &["[] hasLabel \"child-friendly\"", "$a nearBy []"],
        &["$a hasLabel \"child-friendly\"", "$b $p $a"],
        &["$a $p $b", "$b $p $c"],
        &["$a nearBy $a"],
        &["Restaurant nearBy $a", "$a inside NYC"],
        &["$a nearBy* NYC"],
        &["Attraction nearBy* $a"],
        &["Sport subClassOf* $a", "$a nearBy* $b"],
        &[
            "$a instanceOf $b",
            "$b subClassOf* Attraction",
            "$c subClassOf* Sport",
        ],
    ] {
        check(&where_text(patterns)).unwrap_or_else(|e| panic!("{e:?}"));
    }
}
