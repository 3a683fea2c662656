//! Assignments with multiplicities (Definition 4.1) and their semantic
//! partial order.
//!
//! An assignment maps each SATISFYING-clause variable to a **set** of
//! vocabulary values (elements or relations; singletons unless the
//! variable carries a multiplicity annotation), plus a set of `MORE` facts.
//! Value sets are kept as canonical **antichains**: a value dominated by
//! another value of the same set is redundant under the order of
//! Definition 4.1 (`{Sport, Biking}` ≡ `{Biking}`), so canonical form
//! removes it — making equality and hashing semantic.

// audit: allow-file(D4, slot indices are bounded by the query arity fixed at parse time)
use oassis_ql::{BoundQuery, FactTerm, RelTerm, Value, VarId};
use ontology::{ElemId, Fact, PatternFact, PatternSet, RelId, Vocabulary};

/// Index of a SATISFYING variable within an assignment (the *slot*);
/// slot `i` corresponds to `BoundQuery::sat_vars[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(pub u16);

impl Slot {
    /// The slot as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// `a ≤ b` over assignment values (elements with `≤E`, relations with
/// `≤R`; values of different kinds are incomparable).
pub fn value_leq(vocab: &Vocabulary, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Elem(x), Value::Elem(y)) => vocab.elem_leq(x, y),
        (Value::Rel(x), Value::Rel(y)) => vocab.rel_leq(x, y),
        _ => false,
    }
}

/// An assignment with multiplicities: per-slot canonical antichains of
/// values plus MORE facts (themselves a canonical antichain under the fact
/// order).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Assignment {
    /// Per-slot value sets, sorted; dominated values removed.
    values: Vec<Vec<Value>>,
    /// MORE facts, sorted; dominated facts removed.
    more: Vec<Fact>,
}

impl Assignment {
    /// Creates an assignment from raw per-slot value sets, canonicalizing.
    pub fn new(vocab: &Vocabulary, values: Vec<Vec<Value>>, more: Vec<Fact>) -> Self {
        let values = values
            .into_iter()
            .map(|s| canonical_values(vocab, s))
            .collect();
        let more = canonical_facts(vocab, more);
        Assignment { values, more }
    }

    /// An assignment with `slots` empty slots and no MORE facts.
    pub fn empty(slots: usize) -> Self {
        Assignment {
            values: vec![Vec::new(); slots],
            more: Vec::new(),
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.values.len()
    }

    /// The value set of a slot.
    pub fn slot(&self, s: Slot) -> &[Value] {
        &self.values[s.index()]
    }

    /// The MORE facts.
    pub fn more(&self) -> &[Fact] {
        &self.more
    }

    /// Whether every slot is a singleton and there are no MORE facts
    /// (a *base* assignment, as produced by SPARQL evaluation).
    pub fn is_base(&self) -> bool {
        self.more.is_empty() && self.values.iter().all(|s| s.len() == 1)
    }

    /// Total number of values across slots plus MORE facts (a size measure
    /// used in experiments on multiplicities).
    pub fn total_values(&self) -> usize {
        self.values.iter().map(Vec::len).sum::<usize>() + self.more.len()
    }

    /// Appends the assignment's word form to `out`: per slot, its length
    /// and then one word per value (the id, with bit 32 set for a
    /// relation); then the MORE-fact count and two words per fact. Given
    /// the slot count the form delimits itself, so forms concatenate.
    pub(crate) fn push_words(&self, out: &mut Vec<u64>) {
        for slot in &self.values {
            out.push(slot.len() as u64);
            out.extend(slot.iter().map(|&v| match v {
                Value::Elem(e) => u64::from(e.0),
                Value::Rel(r) => 1 << 32 | u64::from(r.0),
            }));
        }
        out.push(self.more.len() as u64);
        for f in &self.more {
            out.push(u64::from(f.subject.0) << 32 | u64::from(f.object.0));
            out.push(u64::from(f.rel.0));
        }
    }

    /// Reads an assignment of `slots` slots off the front of `words`, a
    /// run of [`Self::push_words`] forms; returns it and the words after
    /// it. The form was written from a canonical assignment, so it is
    /// not canonicalized again.
    pub(crate) fn pop_words(words: &[u64], slots: usize) -> (Assignment, &[u64]) {
        let mut rest = words.iter();
        let mut word = || {
            // PANIC-OK: runs are written whole by push_words, so a form never ends early.
            *rest.next().expect("a word run holds whole forms")
        };
        let values = (0..slots)
            .map(|_| {
                (0..word())
                    .map(|_| match word() {
                        w if w >> 32 == 0 => Value::Elem(ElemId(w as u32)),
                        w => Value::Rel(RelId(w as u32)),
                    })
                    .collect()
            })
            .collect();
        let more = (0..word())
            .map(|_| {
                let (ends, rel) = (word(), word());
                let (s, o) = (ElemId((ends >> 32) as u32), ElemId(ends as u32));
                Fact::new(s, RelId(rel as u32), o)
            })
            .collect();
        (Assignment { values, more }, rest.as_slice())
    }

    /// Returns a copy with `v` inserted into slot `s` (canonicalized).
    pub fn with_value(&self, vocab: &Vocabulary, s: Slot, v: Value) -> Assignment {
        self.with_slot(vocab, s, |set| set.push(v))
    }

    /// Returns a copy with value `old` of slot `s` replaced by `new`
    /// (canonicalized; `old` must be present).
    pub fn with_replaced(&self, vocab: &Vocabulary, s: Slot, old: Value, new: Value) -> Assignment {
        self.with_slot(vocab, s, |set| {
            let pos = set
                .iter()
                .position(|&x| x == old)
                .expect("old value present");
            set[pos] = new;
        })
    }

    /// A copy with slot `s` edited by `edit` and re-canonicalized. The
    /// other slots and the MORE facts are canonical already.
    fn with_slot(
        &self,
        vocab: &Vocabulary,
        s: Slot,
        edit: impl FnOnce(&mut Vec<Value>),
    ) -> Assignment {
        let mut values = self.values.clone();
        let set = &mut values[s.index()];
        edit(set);
        *set = canonical_values(vocab, std::mem::take(set));
        Assignment {
            values,
            more: self.more.clone(),
        }
    }

    /// Returns a copy with the MORE fact `f` added (canonicalized).
    pub fn with_more(&self, vocab: &Vocabulary, f: Fact) -> Assignment {
        let mut more = self.more.clone();
        more.push(f);
        Assignment {
            values: self.values.clone(),
            more: canonical_facts(vocab, more),
        }
    }

    /// Returns a copy with MORE fact `old` replaced by `new`.
    pub fn with_more_replaced(&self, vocab: &Vocabulary, old: Fact, new: Fact) -> Assignment {
        let mut more = self.more.clone();
        let pos = more
            .iter()
            .position(|&x| x == old)
            .expect("old fact present");
        more[pos] = new;
        Assignment {
            values: self.values.clone(),
            more: canonical_facts(vocab, more),
        }
    }

    /// The assignment order of Definition 4.1: `self ≤ other` iff for every
    /// slot, every value of `self` is ≤ some value of `other` in that slot
    /// — and likewise for MORE facts under the fact order.
    pub fn leq(&self, vocab: &Vocabulary, other: &Assignment) -> bool {
        debug_assert_eq!(self.num_slots(), other.num_slots());
        let slots_ok = self
            .values
            .iter()
            .zip(&other.values)
            .all(|(a, b)| a.iter().all(|&v| b.iter().any(|&w| value_leq(vocab, v, w))));
        slots_ok
            && self
                .more
                .iter()
                .all(|&f| other.more.iter().any(|&g| vocab.fact_leq(f, g)))
    }

    /// Applies the assignment to the full mined meta–fact-set — the
    /// SATISFYING patterns, the `IMPLYING` patterns (rule queries), and the
    /// MORE facts — producing the pattern-set the crowd is asked about
    /// (`φ(A_SAT)`, Section 3).
    ///
    /// A meta-fact containing a variable with `k` assigned values expands
    /// to `k` pattern facts (the cross product, if several variables have
    /// multiple values); a variable with an empty value set deletes the
    /// meta-facts that contain it (multiplicity 0, Section 3). Blanks stay
    /// wildcards. MORE facts are appended as concrete patterns.
    pub fn apply(&self, q: &BoundQuery) -> PatternSet {
        let mut out: Vec<PatternFact> = Vec::new();
        self.expand_meta(q, &q.sat_meta, &mut out);
        self.expand_meta(q, &q.imp_meta, &mut out);
        for &f in &self.more {
            out.push(PatternFact::from_fact(f));
        }
        PatternSet::from_iter(out)
    }

    /// Applies the assignment to the rule *body* only (`A_SAT` + MORE,
    /// without the `IMPLYING` head) — the denominator of the confidence
    /// measure in rule queries.
    pub fn apply_body(&self, q: &BoundQuery) -> PatternSet {
        let mut out: Vec<PatternFact> = Vec::new();
        self.expand_meta(q, &q.sat_meta, &mut out);
        for &f in &self.more {
            out.push(PatternFact::from_fact(f));
        }
        PatternSet::from_iter(out)
    }

    /// Applies the assignment to the rule *head* only (`A_IMP`).
    pub fn apply_head(&self, q: &BoundQuery) -> PatternSet {
        let mut out: Vec<PatternFact> = Vec::new();
        self.expand_meta(q, &q.imp_meta, &mut out);
        PatternSet::from_iter(out)
    }

    fn expand_meta(
        &self,
        q: &BoundQuery,
        meta: &[oassis_ql::MetaFact],
        out: &mut Vec<PatternFact>,
    ) {
        let slot_of = |v: VarId| -> Option<Slot> {
            q.sat_vars
                .iter()
                .position(|&x| x == v)
                .map(|i| Slot(i as u16))
        };
        for mf in meta {
            // candidate component values
            let subjects: Vec<Option<ontology::ElemId>> = match mf.subject {
                FactTerm::Blank => vec![None],
                FactTerm::Const(e) => vec![Some(e)],
                FactTerm::Var(v) => {
                    let s = slot_of(v).expect("satisfying var has a slot");
                    self.values[s.index()]
                        .iter()
                        .filter_map(|v| v.as_elem())
                        .map(Some)
                        .collect()
                }
            };
            let rels: Vec<Option<ontology::RelId>> = match mf.rel {
                RelTerm::Const(r) => vec![Some(r)],
                RelTerm::Var(v) => {
                    let s = slot_of(v).expect("satisfying var has a slot");
                    self.values[s.index()]
                        .iter()
                        .filter_map(|v| v.as_rel())
                        .map(Some)
                        .collect()
                }
            };
            let objects: Vec<Option<ontology::ElemId>> = match mf.object {
                FactTerm::Blank => vec![None],
                FactTerm::Const(e) => vec![Some(e)],
                FactTerm::Var(v) => {
                    let s = slot_of(v).expect("satisfying var has a slot");
                    self.values[s.index()]
                        .iter()
                        .filter_map(|v| v.as_elem())
                        .map(Some)
                        .collect()
                }
            };
            // When the same variable appears in both element positions
            // (`$x likes $x`), the i-th value instantiates both positions
            // together instead of crossing (a value pairs with itself).
            let same_var = matches!(
                (mf.subject, mf.object),
                (FactTerm::Var(a), FactTerm::Var(b)) if a == b
            );
            for (si, &s) in subjects.iter().enumerate() {
                for &r in &rels {
                    if same_var {
                        out.push(PatternFact {
                            subject: s,
                            rel: r,
                            object: objects[si],
                        });
                    } else {
                        for &o in &objects {
                            out.push(PatternFact {
                                subject: s,
                                rel: r,
                                object: o,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Renders the assignment for debugging/UI: slot values by variable
    /// name plus MORE facts.
    pub fn to_display(&self, q: &BoundQuery, vocab: &Vocabulary) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &v) in q.sat_vars.iter().enumerate() {
            let names: Vec<String> = self.values[i]
                .iter()
                .map(|&val| match val {
                    Value::Elem(e) => vocab.elem_name(e).to_owned(),
                    Value::Rel(r) => vocab.rel_name(r).to_owned(),
                })
                .collect();
            parts.push(format!(
                "${} ↦ {{{}}}",
                q.vars[v.index()].name,
                names.join(", ")
            ));
        }
        if !self.more.is_empty() {
            let facts: Vec<String> = self.more.iter().map(|&f| vocab.fact_to_string(f)).collect();
            parts.push(format!("MORE {{{}}}", facts.join(". ")));
        }
        parts.join("; ")
    }
}

/// Sorts, dedups and removes dominated values (canonical antichain), in
/// place.
fn canonical_values(vocab: &Vocabulary, mut vs: Vec<Value>) -> Vec<Value> {
    vs.sort_unstable();
    vs.dedup();
    let mut i = 0;
    while i < vs.len() {
        // PANIC-OK: `i < vs.len()` by the loop condition.
        let v = vs[i];
        if vs.iter().any(|&w| w != v && value_leq(vocab, v, w)) {
            vs.remove(i);
        } else {
            i += 1;
        }
    }
    vs
}

/// Canonical antichain of facts under the fact order.
fn canonical_facts(vocab: &Vocabulary, mut fs: Vec<Fact>) -> Vec<Fact> {
    fs.sort_unstable();
    fs.dedup();
    fs.iter()
        .copied()
        .filter(|&f| !fs.iter().any(|&g| g != f && vocab.fact_leq(f, g)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_ql::{bind, parse};
    use ontology::domains::figure1;

    fn setup() -> (ontology::Ontology, BoundQuery) {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        (ont, b)
    }

    fn elem(ont: &ontology::Ontology, name: &str) -> Value {
        Value::Elem(ont.vocab().elem_id(name).unwrap())
    }

    /// slots for SIMPLE_QUERY sat vars: [x, y] in VarId order (x before y).
    fn assign(ont: &ontology::Ontology, x: &str, ys: &[&str]) -> Assignment {
        Assignment::new(
            ont.vocab(),
            vec![
                vec![elem(ont, x)],
                ys.iter().map(|y| elem(ont, y)).collect(),
            ],
            vec![],
        )
    }

    #[test]
    fn word_forms_concatenate_and_read_back() {
        let (ont, _) = setup();
        let v = ont.vocab();
        let tip = v.fact("Rent Bikes", "doAt", "Boathouse").unwrap();
        let rel = Value::Rel(v.rel_id("doAt").unwrap());
        let run = [
            assign(&ont, "Central Park", &["Biking", "Ball Game"]),
            Assignment::empty(2),
            Assignment::new(v, vec![vec![rel], vec![]], vec![]).with_more(v, tip),
        ];
        let mut words = Vec::new();
        for a in &run {
            a.push_words(&mut words);
        }
        let mut rest = &words[..];
        for a in &run {
            let (read, tail) = Assignment::pop_words(rest, 2);
            assert_eq!(&read, a);
            rest = tail;
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn sat_vars_are_x_and_y() {
        let (_, b) = setup();
        assert_eq!(b.sat_vars.len(), 2);
        let names: Vec<&str> = b
            .sat_vars
            .iter()
            .map(|&v| b.vars[v.index()].name.as_str())
            .collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn canonical_antichain_removes_dominated() {
        let (ont, _) = setup();
        // {Sport, Biking} collapses to {Biking}
        let a = assign(&ont, "Central Park", &["Sport", "Biking"]);
        let b = assign(&ont, "Central Park", &["Biking"]);
        assert_eq!(a, b);
        // {Biking, Ball Game} is a genuine antichain
        let c = assign(&ont, "Central Park", &["Biking", "Ball Game"]);
        assert_eq!(c.slot(Slot(1)).len(), 2);
    }

    #[test]
    fn order_example_4_2() {
        // φ17 = (CP, Ball Game) ≤ φ20 = (CP, Baseball), immediate in spirit
        let (ont, _) = setup();
        let v = ont.vocab();
        let phi17 = assign(&ont, "Central Park", &["Ball Game"]);
        let phi20 = assign(&ont, "Central Park", &["Baseball"]);
        assert!(phi17.leq(v, &phi20));
        assert!(!phi20.leq(v, &phi17));
        // φ15 = (CP, Sport) ≤ φ16 = (CP, Biking)
        let phi15 = assign(&ont, "Central Park", &["Sport"]);
        let phi16 = assign(&ont, "Central Park", &["Biking"]);
        assert!(phi15.leq(v, &phi16));
        // incomparable: φ16 vs φ20
        assert!(!phi16.leq(v, &phi20));
        assert!(!phi20.leq(v, &phi16));
    }

    #[test]
    fn multiplicity_order() {
        // (CP, {Biking}) ≤ (CP, {Biking, Ball Game}): node 16 ≤ node 18
        let (ont, _) = setup();
        let v = ont.vocab();
        let n16 = assign(&ont, "Central Park", &["Biking"]);
        let n17 = assign(&ont, "Central Park", &["Ball Game"]);
        let n18 = assign(&ont, "Central Park", &["Biking", "Ball Game"]);
        assert!(n16.leq(v, &n18));
        assert!(n17.leq(v, &n18));
        assert!(!n18.leq(v, &n16));
        // and the set {Sport} is below the pair
        let n15 = assign(&ont, "Central Park", &["Sport"]);
        assert!(n15.leq(v, &n18));
    }

    #[test]
    fn empty_slot_is_below_everything() {
        let (ont, _) = setup();
        let v = ont.vocab();
        let empty_y = Assignment::new(v, vec![vec![elem(&ont, "Central Park")], vec![]], vec![]);
        let with_y = assign(&ont, "Central Park", &["Biking"]);
        assert!(empty_y.leq(v, &with_y));
        assert!(!with_y.leq(v, &empty_y));
    }

    #[test]
    fn apply_expands_multiplicities() {
        let (ont, b) = setup();
        let v = ont.vocab();
        let n18 = assign(&ont, "Central Park", &["Biking", "Ball Game"]);
        let p = n18.apply(&b);
        let rendered = p.to_display(v);
        assert!(rendered.contains("Biking doAt Central Park"));
        assert!(rendered.contains("Ball Game doAt Central Park"));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn apply_empty_slot_deletes_meta_fact() {
        let (ont, b) = setup();
        let empty_y = Assignment::new(
            ont.vocab(),
            vec![vec![elem(&ont, "Central Park")], vec![]],
            vec![],
        );
        let p = empty_y.apply(&b);
        assert!(p.is_empty()); // the only meta-fact used $y
    }

    #[test]
    fn apply_includes_more_facts() {
        let (ont, b) = setup();
        let v = ont.vocab();
        let f = v.fact("Rent Bikes", "doAt", "Boathouse").unwrap();
        let n = assign(&ont, "Central Park", &["Biking"]).with_more(v, f);
        let p = n.apply(&b);
        assert_eq!(p.len(), 2);
        assert!(p.to_display(v).contains("Rent Bikes doAt Boathouse"));
    }

    #[test]
    fn more_facts_participate_in_order() {
        let (ont, _) = setup();
        let v = ont.vocab();
        let f = v.fact("Rent Bikes", "doAt", "Boathouse").unwrap();
        let base = assign(&ont, "Central Park", &["Biking"]);
        let extended = base.with_more(v, f);
        assert!(base.leq(v, &extended));
        assert!(!extended.leq(v, &base));
    }

    #[test]
    fn with_replaced_respects_canonical_form() {
        let (ont, _) = setup();
        let v = ont.vocab();
        let a = assign(&ont, "Central Park", &["Sport"]);
        let biking = elem(&ont, "Biking");
        let sport = elem(&ont, "Sport");
        let b = a.with_replaced(v, Slot(1), sport, biking);
        assert_eq!(b, assign(&ont, "Central Park", &["Biking"]));
    }

    #[test]
    fn blank_in_satisfying_yields_wildcard() {
        let ont = figure1::ontology();
        let q = parse(figure1::SAMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        // slots: x, y, z
        let v = ont.vocab();
        let a = Assignment::new(
            v,
            vec![
                vec![Value::Elem(v.elem_id("Central Park").unwrap())],
                vec![Value::Elem(v.elem_id("Biking").unwrap())],
                vec![Value::Elem(v.elem_id("Maoz Veg").unwrap())],
            ],
            vec![],
        );
        let p = a.apply(&b);
        // `[] eatAt $z` → wildcard subject
        assert!(p.to_display(v).contains("[] eatAt Maoz Veg"));
    }

    #[test]
    fn same_variable_in_both_positions_pairs_values() {
        // `$x likes $x` with φ(x) = {A, B} must yield {A likes A, B likes
        // B}, not the 2×2 cross product.
        let ont = figure1::ontology();
        let q =
            parse("SELECT FACT-SETS WHERE SATISFYING $x+ nearBy $x WITH SUPPORT = 0.2").unwrap();
        let b = bind(&q, &ont).unwrap();
        let v = ont.vocab();
        let a = Assignment::new(
            v,
            vec![vec![
                Value::Elem(v.elem_id("Central Park").unwrap()),
                Value::Elem(v.elem_id("Maoz Veg").unwrap()),
            ]],
            vec![],
        );
        let p = a.apply(&b);
        assert_eq!(p.len(), 2, "{}", p.to_display(v));
        let rendered = p.to_display(v);
        assert!(rendered.contains("Central Park nearBy Central Park"));
        assert!(rendered.contains("Maoz Veg nearBy Maoz Veg"));
        assert!(!rendered.contains("Central Park nearBy Maoz Veg"));
    }

    #[test]
    fn leq_is_reflexive_and_antisymmetric_on_canonicals() {
        let (ont, _) = setup();
        let v = ont.vocab();
        let a = assign(&ont, "Central Park", &["Biking", "Ball Game"]);
        assert!(a.leq(v, &a));
        let b = assign(&ont, "Central Park", &["Ball Game"]);
        assert!(!(a.leq(v, &b) && b.leq(v, &a)));
    }
}
