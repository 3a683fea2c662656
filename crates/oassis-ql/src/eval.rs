//! Evaluation of the WHERE clause over the ontology, producing the base
//! (multiplicity-1) valid assignments that seed the assignment DAG.
//!
//! Section 5 of the paper evaluates the WHERE clause with an off-the-shelf
//! SPARQL engine (RDFLIB): variables bind to the components of **asserted**
//! triples. That behaviour is [`MatchMode::Exact`]. The formal semantics of
//! Section 3, however, only requires `φ(A_WHERE) ≤ O` — the instantiated
//! fact-set must be *semantically implied* by the ontology (Definition
//! 2.5). [`MatchMode::Semantic`] implements that relaxation: a pattern fact
//! matches an asserted fact whose components are specializations of the
//! pattern's constants.

use crate::bind::{BoundQuery, FactTerm, RelTerm, Value, VarId, WherePattern};
use ontology::{ElemId, Ontology, RelId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// How constants in WHERE patterns match ontology facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// SPARQL-style: pattern constants must equal fact components
    /// (the paper's implementation, Section 6.1).
    #[default]
    Exact,
    /// Definition 2.5: a pattern constant `c` matches a fact component `c'`
    /// when `c ≤ c'`. Variables still bind to the asserted components.
    Semantic,
}

/// One valid assignment at multiplicity 1: a value for every variable that
/// the WHERE clause constrains (`None` for SATISFYING-only variables,
/// which range over the whole vocabulary — see `oassis-core`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BaseAssignment(pub Vec<Option<Value>>);

impl BaseAssignment {
    /// The value bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<Value> {
        self.0[v.index()]
    }
}

/// Evaluates the WHERE clause, returning the deduplicated valid base
/// assignments. With an empty WHERE clause the result is a single,
/// all-unbound assignment (the SATISFYING clause then ranges over the
/// whole vocabulary, which is how OASSIS-QL captures classic frequent
/// itemset mining — Section 4.1).
///
/// The patterns are joined in one order, fixed for the query before the
/// search starts (`join_plan`).
pub fn evaluate_where(q: &BoundQuery, ont: &Ontology, mode: MatchMode) -> Vec<BaseAssignment> {
    let mut ev = Evaluator {
        ont,
        mode,
        plan: join_plan(q)
            .into_iter()
            .map(|pi| &q.where_patterns[pi])
            .collect(),
        star_cache: HashMap::new(),
        reach: HashMap::new(),
        results: Vec::new(),
    };
    let mut bindings: Vec<Option<Value>> = vec![None; q.vars.len()];
    ev.solve(0, &mut bindings);
    let mut out = ev.results;
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out.dedup();
    out
}

/// [`evaluate_where`] under the name perfbench still calls; `_pool` is
/// ignored. The next benchmark PR removes it.
pub fn evaluate_where_pool(
    q: &BoundQuery,
    ont: &Ontology,
    mode: MatchMode,
    _pool: &minipool::Pool,
) -> Vec<BaseAssignment> {
    evaluate_where(q, ont, mode)
}

/// The order in which the solver matches the WHERE patterns, as indexes
/// into `q.where_patterns`. Greedy: next comes the pattern with the
/// fewest unbound variables, then one that shares a bound variable (a
/// join rather than a cross product), then the earliest in the source.
///
/// The order depends on the query alone. Which variables are bound at a
/// depth of the search does not depend on the values: every pattern
/// matched so far has bound all of its variables, whatever it bound them
/// to. So the greedy choice made once here is the one the search would
/// make at every node.
fn join_plan(q: &BoundQuery) -> Vec<usize> {
    let n = q.where_patterns.len();
    let mut bound = vec![false; q.vars.len()];
    let mut planned = vec![false; n];
    let mut plan = Vec::with_capacity(n);
    for _ in 0..n {
        let pi = (0..n)
            .filter(|&pi| !planned[pi])
            .min_by_key(|&pi| {
                let mut vars: Vec<VarId> = pattern_vars(&q.where_patterns[pi])
                    .into_iter()
                    .flatten()
                    .collect();
                let joins = vars.iter().any(|v| bound[v.index()]);
                vars.retain(|v| !bound[v.index()]);
                vars.sort_unstable();
                vars.dedup();
                (vars.len(), !joins)
            })
            .expect("an unplanned pattern is left");
        planned[pi] = true;
        for v in pattern_vars(&q.where_patterns[pi]).into_iter().flatten() {
            bound[v.index()] = true;
        }
        plan.push(pi);
    }
    plan
}

/// The variables of a pattern's subject, relation and object positions.
fn pattern_vars(p: &WherePattern) -> [Option<VarId>; 3] {
    let var = |t: &FactTerm| match *t {
        FactTerm::Var(v) => Some(v),
        FactTerm::Const(_) | FactTerm::Blank => None,
    };
    match p {
        WherePattern::Label { s, .. } => [var(s), None, None],
        WherePattern::Triple { s, r, o, .. } => {
            let r = match *r {
                RelTerm::Var(v) => Some(v),
                RelTerm::Const(_) => None,
            };
            [var(s), r, var(o)]
        }
    }
}

struct Evaluator<'a> {
    ont: &'a Ontology,
    mode: MatchMode,
    /// The WHERE patterns in [`join_plan`] order: depth `d` of the search
    /// matches `plan[d]`.
    plan: Vec<&'a WherePattern>,
    /// Per-relation star-path adjacency: `(rel, reversed)` → successors.
    star_cache: HashMap<(RelId, bool), HashMap<ElemId, Vec<ElemId>>>,
    /// Star-path reach: `(rel, start, reversed)` → every element reachable
    /// from `start` by 0+ steps.
    reach: HashMap<(RelId, ElemId, bool), Rc<[ElemId]>>,
    /// Every complete assignment found, duplicates included.
    results: Vec<BaseAssignment>,
}

impl Evaluator<'_> {
    /// Matches `plan[depth..]` under `bindings`, which `plan[..depth]` bound.
    fn solve(&mut self, depth: usize, bindings: &mut Vec<Option<Value>>) {
        let Some(&p) = self.plan.get(depth) else {
            self.results.push(BaseAssignment(bindings.clone()));
            return;
        };
        let next = depth + 1;
        match p {
            WherePattern::Label { s, label } => self.match_label(*s, label, next, bindings),
            WherePattern::Triple {
                s,
                r,
                o,
                star: false,
            } => self.match_triple(*s, *r, *o, next, bindings),
            WherePattern::Triple {
                s,
                r,
                o,
                star: true,
            } => {
                let RelTerm::Const(rel) = *r else {
                    unreachable!("binder rejects star with relation variable")
                };
                self.match_star(*s, rel, *o, next, bindings);
            }
        }
    }

    fn match_label(
        &mut self,
        s: FactTerm,
        label: &str,
        next: usize,
        bindings: &mut Vec<Option<Value>>,
    ) {
        match s {
            FactTerm::Const(e) => {
                if self.ont.has_label(e, label) {
                    self.solve(next, bindings);
                }
            }
            FactTerm::Blank => {
                if !self.ont.elems_with_label(label).is_empty() {
                    self.solve(next, bindings);
                }
            }
            FactTerm::Var(v) => match bindings[v.index()] {
                Some(Value::Elem(e)) => {
                    if self.ont.has_label(e, label) {
                        self.solve(next, bindings);
                    }
                }
                Some(Value::Rel(_)) => {}
                None => {
                    for &e in self.ont.elems_with_label(label) {
                        bindings[v.index()] = Some(Value::Elem(e));
                        self.solve(next, bindings);
                    }
                    bindings[v.index()] = None;
                }
            },
        }
    }

    /// Whether a pattern element-position `t` accepts fact component `c`
    /// under the current bindings; returns the variable to bind if unbound.
    fn accept_elem(
        &self,
        t: FactTerm,
        c: ElemId,
        bindings: &[Option<Value>],
    ) -> Option<Option<VarId>> {
        match t {
            FactTerm::Blank => Some(None),
            FactTerm::Const(e) => {
                let ok = match self.mode {
                    MatchMode::Exact => e == c,
                    MatchMode::Semantic => self.ont.vocab().elem_leq(e, c),
                };
                ok.then_some(None)
            }
            FactTerm::Var(v) => match bindings[v.index()] {
                None => Some(Some(v)),
                Some(Value::Elem(e)) if e == c => Some(None),
                _ => None,
            },
        }
    }

    fn match_triple(
        &mut self,
        s: FactTerm,
        r: RelTerm,
        o: FactTerm,
        next: usize,
        bindings: &mut Vec<Option<Value>>,
    ) {
        let vocab = self.ont.vocab();
        match r {
            RelTerm::Const(rel) => match self.mode {
                MatchMode::Exact => self.match_facts(s, rel, None, o, next, bindings),
                MatchMode::Semantic => {
                    for d in vocab.rel_descendants(rel) {
                        self.match_facts(s, d, None, o, next, bindings);
                    }
                }
            },
            RelTerm::Var(v) => match bindings[v.index()] {
                Some(Value::Rel(rel)) => self.match_facts(s, rel, None, o, next, bindings),
                Some(Value::Elem(_)) => {}
                None => {
                    for rel in vocab.rels() {
                        self.match_facts(s, rel, Some(v), o, next, bindings);
                    }
                }
            },
        }
    }

    /// Matches the asserted `rel` facts against `s` and `o`, binding
    /// `rel_var` (if any) to `rel` as well.
    fn match_facts(
        &mut self,
        s: FactTerm,
        rel: RelId,
        rel_var: Option<VarId>,
        o: FactTerm,
        next: usize,
        bindings: &mut Vec<Option<Value>>,
    ) {
        for f in self.ont.facts_with_rel(rel) {
            let Some(sb) = self.accept_elem(s, f.subject, bindings) else {
                continue;
            };
            let Some(ob_pre) = self.accept_elem(o, f.object, bindings) else {
                continue;
            };
            // Bind subject first; re-check object if s and o are the
            // same unbound variable.
            if let Some(v) = sb {
                bindings[v.index()] = Some(Value::Elem(f.subject));
            }
            let ob = if sb.is_some() {
                self.accept_elem(o, f.object, bindings)
            } else {
                Some(ob_pre)
            };
            if let Some(ob) = ob {
                if let Some(v) = ob {
                    bindings[v.index()] = Some(Value::Elem(f.object));
                }
                if let Some(v) = rel_var {
                    bindings[v.index()] = Some(Value::Rel(rel));
                }
                self.solve(next, bindings);
                if let Some(v) = rel_var {
                    bindings[v.index()] = None;
                }
                if let Some(v) = ob {
                    bindings[v.index()] = None;
                }
            }
            if let Some(v) = sb {
                bindings[v.index()] = None;
            }
        }
    }

    /// Star-path adjacency for `rel`: forward (`s → o` of asserted facts)
    /// or reversed.
    fn star_adj(&mut self, rel: RelId, reversed: bool) -> &HashMap<ElemId, Vec<ElemId>> {
        self.star_cache.entry((rel, reversed)).or_insert_with(|| {
            let mut adj: HashMap<ElemId, Vec<ElemId>> = HashMap::new();
            for f in self.ont.facts_with_rel(rel) {
                let (from, to) = if reversed {
                    (f.object, f.subject)
                } else {
                    (f.subject, f.object)
                };
                adj.entry(from).or_default().push(to);
            }
            adj
        })
    }

    /// All elements reachable from `start` by 0+ `rel` facts (forward or
    /// reversed), including `start` itself. Each start is searched once
    /// per call of [`evaluate_where`].
    fn star_reach(&mut self, rel: RelId, start: ElemId, reversed: bool) -> Rc<[ElemId]> {
        if let Some(reach) = self.reach.get(&(rel, start, reversed)) {
            return Rc::clone(reach);
        }
        let adj = self.star_adj(rel, reversed);
        let mut seen: HashSet<ElemId> = HashSet::from([start]);
        let mut queue: VecDeque<ElemId> = VecDeque::from([start]);
        let mut out = vec![start];
        while let Some(e) = queue.pop_front() {
            if let Some(next) = adj.get(&e) {
                for &n in next {
                    if seen.insert(n) {
                        out.push(n);
                        queue.push_back(n);
                    }
                }
            }
        }
        let reach: Rc<[ElemId]> = out.into();
        self.reach.insert((rel, start, reversed), Rc::clone(&reach));
        reach
    }

    fn match_star(
        &mut self,
        s: FactTerm,
        rel: RelId,
        o: FactTerm,
        next: usize,
        bindings: &mut Vec<Option<Value>>,
    ) {
        let elem_of = |t: FactTerm, bindings: &[Option<Value>]| -> Option<Option<ElemId>> {
            // Some(Some(e)) = bound to e; Some(None) = unbound var or blank
            match t {
                FactTerm::Const(e) => Some(Some(e)),
                FactTerm::Blank => Some(None),
                FactTerm::Var(v) => match bindings[v.index()] {
                    Some(Value::Elem(e)) => Some(Some(e)),
                    Some(Value::Rel(_)) => None,
                    None => Some(None),
                },
            }
        };
        let Some(sv) = elem_of(s, bindings) else {
            return;
        };
        let Some(ov) = elem_of(o, bindings) else {
            return;
        };
        match (sv, ov) {
            (Some(se), Some(oe)) => {
                if self.star_reach(rel, se, false).contains(&oe) {
                    self.solve(next, bindings);
                }
            }
            (Some(se), None) => {
                // enumerate objects reachable forward from se
                for &oe in self.star_reach(rel, se, false).iter() {
                    self.bind_star_end(o, oe, next, bindings);
                }
            }
            (None, Some(oe)) => {
                // enumerate subjects that reach oe (reverse reachability)
                for &se in self.star_reach(rel, oe, true).iter() {
                    self.bind_star_end(s, se, next, bindings);
                }
            }
            (None, None) => {
                // both open: every element paired with everything it reaches
                for se in self.ont.vocab().elems() {
                    for &oe in self.star_reach(rel, se, false).iter() {
                        // bind s then o (they may be the same variable)
                        match s {
                            FactTerm::Var(v) => {
                                bindings[v.index()] = Some(Value::Elem(se));
                                self.bind_star_end(o, oe, next, bindings);
                                bindings[v.index()] = None;
                            }
                            _ => self.bind_star_end(o, oe, next, bindings),
                        }
                    }
                }
            }
        }
    }

    fn bind_star_end(
        &mut self,
        t: FactTerm,
        e: ElemId,
        next: usize,
        bindings: &mut Vec<Option<Value>>,
    ) {
        match t {
            FactTerm::Var(v) => match bindings[v.index()] {
                None => {
                    bindings[v.index()] = Some(Value::Elem(e));
                    self.solve(next, bindings);
                    bindings[v.index()] = None;
                }
                Some(Value::Elem(b)) if b == e => self.solve(next, bindings),
                _ => {}
            },
            FactTerm::Blank => self.solve(next, bindings),
            FactTerm::Const(c) => {
                if c == e {
                    self.solve(next, bindings);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::parse;
    use ontology::domains::{figure1, travel, DomainScale};

    fn eval(src: &str, mode: MatchMode) -> (BoundQuery, Vec<BaseAssignment>, Ontology) {
        let ont = figure1::ontology();
        let q = parse(src).unwrap();
        let b = bind(&q, &ont).unwrap();
        let res = evaluate_where(&b, &ont, mode);
        (b, res, ont)
    }

    fn values(b: &BoundQuery, res: &[BaseAssignment], ont: &Ontology, var: &str) -> Vec<String> {
        let v = b.var_by_name(var).unwrap();
        let mut names: Vec<String> = res
            .iter()
            .filter_map(|a| a.get(v))
            .filter_map(Value::as_elem)
            .map(|e| ont.vocab().elem_name(e).to_owned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn figure_2_where_evaluation() {
        let (b, res, ont) = eval(figure1::SAMPLE_QUERY, MatchMode::Exact);
        assert!(!res.is_empty());
        // x: child-friendly attractions inside NYC with a nearby restaurant
        assert_eq!(
            values(&b, &res, &ont, "x"),
            vec!["Bronx Zoo", "Central Park"]
        );
        // z is tied to x by nearBy
        let x = b.var_by_name("x").unwrap();
        let z = b.var_by_name("z").unwrap();
        for a in &res {
            let xe = ont.vocab().elem_name(a.get(x).unwrap().as_elem().unwrap());
            let ze = ont.vocab().elem_name(a.get(z).unwrap().as_elem().unwrap());
            match xe {
                "Central Park" => assert_eq!(ze, "Maoz Veg"),
                "Bronx Zoo" => assert_eq!(ze, "Pine"),
                other => panic!("unexpected x = {other}"),
            }
        }
        // y ranges over every subclass-of* Activity
        let ys = values(&b, &res, &ont, "y");
        assert!(ys.contains(&"Activity".to_owned())); // 0-length path
        assert!(ys.contains(&"Biking".to_owned()));
        assert!(ys.contains(&"Baseball".to_owned()));
        assert!(ys.contains(&"Feed a Monkey".to_owned()));
        assert!(!ys.contains(&"Thing".to_owned())); // above Activity
        assert_eq!(ys.len(), 13);
    }

    #[test]
    fn the_join_plan_filters_x_and_z_before_enumerating_y() {
        // Both queries list, in source order: 0 `$w subClassOf* Attraction`,
        // 1 `$x instanceOf $w`, 2 `$x inside …`, 3 `$x hasLabel …`,
        // 4 `$y subClassOf* Activity`, 5 `$z instanceOf Restaurant`,
        // 6 `$z nearBy $x`. `$y` joins nothing, so enumerating its values
        // before the `$x`/`$z` filters would repeat them once per value.
        let travel = travel(DomainScale::paper());
        for (src, ont) in [
            (figure1::SAMPLE_QUERY, figure1::ontology()),
            (travel.query.as_str(), travel.ontology),
        ] {
            let b = bind(&parse(src).unwrap(), &ont).unwrap();
            let plan = join_plan(&b);
            assert_eq!(plan, vec![0, 1, 2, 3, 6, 5, 4]);
            let mentions = |pi: usize, var: &str| {
                let v = b.var_by_name(var).unwrap();
                pattern_vars(&b.where_patterns[pi]).contains(&Some(v))
            };
            let y_at = plan.iter().position(|&pi| mentions(pi, "y")).unwrap();
            for (at, &pi) in plan.iter().enumerate() {
                if mentions(pi, "x") || mentions(pi, "z") {
                    assert!(at < y_at, "pattern {pi} is planned after `$y`");
                }
            }
        }
    }

    #[test]
    fn star_path_includes_zero_length() {
        let (b, res, ont) = eval(
            "SELECT FACT-SETS WHERE $w subClassOf* Attraction SATISFYING $w doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        let ws = values(&b, &res, &ont, "w");
        assert!(ws.contains(&"Attraction".to_owned()));
        assert!(ws.contains(&"Park".to_owned()));
        assert!(ws.contains(&"Zoo".to_owned()));
        // instances are instanceOf, not subClassOf
        assert!(!ws.contains(&"Central Park".to_owned()));
    }

    #[test]
    fn exact_vs_semantic_relation_matching() {
        // `$a nearBy NYC`: nothing asserted, but `Central Park inside NYC`
        // (and others) imply it semantically because nearBy ≤R inside.
        let src = "SELECT FACT-SETS WHERE $a nearBy NYC SATISFYING $a doAt NYC WITH SUPPORT = 0.2";
        let (_, res_exact, _) = eval(src, MatchMode::Exact);
        assert!(res_exact.is_empty());
        let (b, res_sem, ont) = eval(src, MatchMode::Semantic);
        let names = values(&b, &res_sem, &ont, "a");
        assert_eq!(names, vec!["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn semantic_constant_generalization() {
        // `Maoz Veg nearBy $p` asserted for Central Park; with semantic
        // matching, the more general constant Outdoor also matches as
        // subject? No — constants generalize the *pattern*, so the pattern
        // constant must be ≤ the asserted component.
        let src =
            "SELECT FACT-SETS WHERE Restaurant nearBy $p SATISFYING $p doAt NYC WITH SUPPORT = 0.2";
        let (_, res_exact, _) = eval(src, MatchMode::Exact);
        assert!(res_exact.is_empty()); // `Restaurant nearBy …` is not asserted
        let (b, res_sem, ont) = eval(src, MatchMode::Semantic);
        // Restaurant ≤E Maoz Veg / Pine, so the pattern matches their facts.
        let names = values(&b, &res_sem, &ont, "p");
        assert_eq!(names, vec!["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn empty_where_yields_single_unbound_assignment() {
        let (b, res, _) = eval(
            "SELECT FACT-SETS WHERE SATISFYING $x+ $p $v WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert_eq!(res.len(), 1);
        assert!(res[0].0.iter().all(Option::is_none));
        assert_eq!(b.sat_vars.len(), 3);
    }

    #[test]
    fn blank_in_where_is_existential() {
        let (b, res, ont) = eval(
            "SELECT FACT-SETS WHERE $x nearBy [] SATISFYING $x doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        let names = values(&b, &res, &ont, "x");
        assert_eq!(names, vec!["Maoz Veg", "Pine"]);
        // blanks do not multiply results: Maoz Veg is nearBy two places but
        // appears once
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn relation_variable_enumerates() {
        let (b, res, ont) = eval(
            "SELECT FACT-SETS WHERE \"Maoz Veg\" $p \"Central Park\" SATISFYING Biking doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        let p = b.var_by_name("p").unwrap();
        let rels: Vec<&str> = res
            .iter()
            .filter_map(|a| a.get(p))
            .filter_map(Value::as_rel)
            .map(|r| ont.vocab().rel_name(r))
            .collect();
        assert_eq!(rels, vec!["nearBy"]);
    }

    #[test]
    fn same_variable_twice_in_one_pattern() {
        // `$x nearBy $x` should only match reflexive facts (none here).
        let (_, res, _) = eval(
            "SELECT FACT-SETS WHERE $x nearBy $x SATISFYING $x doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert!(res.is_empty());
    }

    #[test]
    fn bound_star_endpoints_check() {
        let (_, res, _) = eval(
            "SELECT FACT-SETS WHERE Basketball subClassOf* Activity SATISFYING Basketball doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert_eq!(res.len(), 1); // vacuous single assignment (no vars in WHERE)
        let (_, res2, _) = eval(
            "SELECT FACT-SETS WHERE Basketball subClassOf* Food SATISFYING Basketball doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert!(res2.is_empty());
    }

    #[test]
    fn results_are_deterministic_and_sorted() {
        let (_, res1, _) = eval(figure1::SAMPLE_QUERY, MatchMode::Exact);
        let (_, res2, _) = eval(figure1::SAMPLE_QUERY, MatchMode::Exact);
        assert_eq!(res1, res2);
    }

    #[test]
    fn label_filter_on_constant() {
        let (_, res, _) = eval(
            "SELECT FACT-SETS WHERE \"Central Park\" hasLabel \"child-friendly\" SATISFYING Biking doAt \"Central Park\" WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert_eq!(res.len(), 1);
        let (_, res2, _) = eval(
            "SELECT FACT-SETS WHERE \"Madison Square\" hasLabel \"child-friendly\" SATISFYING Biking doAt \"Central Park\" WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert!(res2.is_empty());
    }
}
