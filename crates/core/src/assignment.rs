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
///
/// The slots live in one flat allocation, `cells`: a head of `1 + k`
/// cells for `k` slots, then every slot's values, slot after slot. Head
/// cells are not values but counts, stored as element ids: cell 0 holds
/// `k`, and cell `1 + s` the index in `cells` where slot `s`'s values
/// end. Equality and hashing read the cells; the order is that of the
/// nested per-slot lists ([`Ord`] below), which fixes interning order.
#[derive(Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The head, then each slot's values, sorted, dominated values removed.
    cells: Vec<Value>,
    /// MORE facts, sorted; dominated facts removed.
    more: Vec<Fact>,
}

/// The slot of SATISFYING variable `v`.
fn slot_of(q: &BoundQuery, v: VarId) -> Slot {
    let i = q
        .sat_vars
        .iter()
        .position(|&x| x == v)
        .expect("satisfying var has a slot");
    Slot(i as u16)
}

/// A head cell holding `n`.
fn count_cell(n: usize) -> Value {
    Value::Elem(ElemId(n as u32))
}

/// The count a head cell holds.
#[inline]
fn cell_count(v: Value) -> usize {
    match v {
        Value::Elem(ElemId(n)) | Value::Rel(RelId(n)) => n as usize,
    }
}

/// One word per value: the id, with bit 32 set for a relation. Words
/// order like values (elements before relations, then by id).
#[inline]
fn value_word(v: Value) -> u64 {
    match v {
        Value::Elem(e) => u64::from(e.0),
        Value::Rel(r) => 1 << 32 | u64::from(r.0),
    }
}

impl Assignment {
    /// Creates an assignment from raw per-slot value sets, canonicalizing.
    pub fn new(vocab: &Vocabulary, values: Vec<Vec<Value>>, more: Vec<Fact>) -> Self {
        let k = values.len();
        let total: usize = values.iter().map(Vec::len).sum();
        let mut cells = Vec::with_capacity(1 + k + total);
        cells.push(count_cell(k));
        cells.resize(1 + k, count_cell(0));
        for (si, slot) in values.into_iter().enumerate() {
            let start = cells.len();
            cells.extend(slot);
            let n = canonical_values(vocab, &mut cells[start..]);
            cells.truncate(start + n);
            // PANIC-OK: the head holds a cell per slot.
            cells[1 + si] = count_cell(cells.len());
        }
        let more = canonical_facts(vocab, more);
        Assignment { cells, more }
    }

    /// An assignment with `slots` empty slots and no MORE facts.
    pub fn empty(slots: usize) -> Self {
        let mut cells = vec![count_cell(1 + slots); 1 + slots];
        cells[0] = count_cell(slots);
        Assignment {
            cells,
            more: Vec::new(),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        cell_count(self.cells[0])
    }

    /// The cell range of slot `s`'s values.
    #[inline]
    fn bounds(&self, s: usize) -> (usize, usize) {
        let start = cell_count(self.cells[s]) + usize::from(s == 0);
        (start, cell_count(self.cells[1 + s]))
    }

    /// The value set of a slot.
    #[inline]
    pub fn slot(&self, s: Slot) -> &[Value] {
        let (start, end) = self.bounds(s.index());
        &self.cells[start..end]
    }

    /// The value sets of all slots, in slot order.
    fn slots(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.num_slots()).map(|s| self.slot(Slot(s as u16)))
    }

    /// The MORE facts.
    pub fn more(&self) -> &[Fact] {
        &self.more
    }

    /// Whether every slot is a singleton and there are no MORE facts
    /// (a *base* assignment, as produced by SPARQL evaluation).
    pub fn is_base(&self) -> bool {
        self.more.is_empty() && self.slots().all(|s| s.len() == 1)
    }

    /// Total number of values across slots plus MORE facts (a size measure
    /// used in experiments on multiplicities).
    pub fn total_values(&self) -> usize {
        self.cells.len() - 1 - self.num_slots() + self.more.len()
    }

    /// Appends the assignment's word form to `out`: per slot, its length
    /// and then one word per value (the id, with bit 32 set for a
    /// relation); then the MORE-fact count and two words per fact. Given
    /// the slot count the form delimits itself, so forms concatenate.
    pub(crate) fn push_words(&self, out: &mut Vec<u64>) {
        for slot in self.slots() {
            out.push(slot.len() as u64);
            out.extend(slot.iter().map(|&v| value_word(v)));
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
        let mut cells = vec![count_cell(slots); 1 + slots];
        for si in 0..slots {
            for _ in 0..word() {
                cells.push(match word() {
                    w if w >> 32 == 0 => Value::Elem(ElemId(w as u32)),
                    w => Value::Rel(RelId(w as u32)),
                });
            }
            // PANIC-OK: the head holds a cell per slot.
            cells[1 + si] = count_cell(cells.len());
        }
        let more = (0..word())
            .map(|_| {
                let (ends, rel) = (word(), word());
                let (s, o) = (ElemId((ends >> 32) as u32), ElemId(ends as u32));
                Fact::new(s, RelId(rel as u32), o)
            })
            .collect();
        (Assignment { cells, more }, rest.as_slice())
    }

    /// Returns a copy with `v` inserted into slot `s` (canonicalized).
    pub fn with_value(&self, vocab: &Vocabulary, s: Slot, v: Value) -> Assignment {
        self.with_slot(vocab, s, |cells, _| cells.push(v))
    }

    /// Returns a copy with value `old` of slot `s` replaced by `new`
    /// (canonicalized; `old` must be present).
    pub fn with_replaced(&self, vocab: &Vocabulary, s: Slot, old: Value, new: Value) -> Assignment {
        self.with_slot(vocab, s, |cells, start| {
            let pos = cells[start..]
                .iter()
                .position(|&x| x == old)
                .expect("old value present");
            cells[start + pos] = new;
        })
    }

    /// A copy with slot `s` edited and re-canonicalized; the other slots
    /// and the MORE facts are canonical already. `edit` gets the copy's
    /// cells up to the end of slot `s` and the index where that slot
    /// starts.
    fn with_slot(
        &self,
        vocab: &Vocabulary,
        s: Slot,
        edit: impl FnOnce(&mut Vec<Value>, usize),
    ) -> Assignment {
        let (start, end) = self.bounds(s.index());
        let mut cells = Vec::with_capacity(self.cells.len() + 1);
        cells.extend_from_slice(&self.cells[..end]);
        edit(&mut cells, start);
        let n = canonical_values(vocab, &mut cells[start..]);
        cells.truncate(start + n);
        let new_end = cells.len();
        cells.extend_from_slice(&self.cells[end..]);
        if new_end != end {
            let head = 1 + self.num_slots();
            // PANIC-OK: the copy kept the head; the ends of slot `s` and
            // later are at least `end`.
            for cell in &mut cells[1 + s.index()..head] {
                *cell = count_cell(cell_count(*cell) + new_end - end);
            }
        }
        Assignment {
            cells,
            more: self.more.clone(),
        }
    }

    /// Returns a copy with the MORE fact `f` added (canonicalized).
    pub fn with_more(&self, vocab: &Vocabulary, f: Fact) -> Assignment {
        let mut more = self.more.clone();
        more.push(f);
        Assignment {
            cells: self.cells.clone(),
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
            cells: self.cells.clone(),
            more: canonical_facts(vocab, more),
        }
    }

    /// The assignment order of Definition 4.1: `self ≤ other` iff for every
    /// slot, every value of `self` is ≤ some value of `other` in that slot
    /// — and likewise for MORE facts under the fact order.
    pub fn leq(&self, vocab: &Vocabulary, other: &Assignment) -> bool {
        debug_assert_eq!(self.num_slots(), other.num_slots());
        let slots_ok = self
            .slots()
            .zip(other.slots())
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
        for mf in meta {
            // When the same variable appears in both element positions
            // (`$x likes $x`), the i-th value instantiates both positions
            // together instead of crossing (a value pairs with itself).
            let same_var = matches!(
                (mf.subject, mf.object),
                (FactTerm::Var(a), FactTerm::Var(b)) if a == b
            );
            self.each_elem(q, mf.subject, &mut |subject| {
                self.each_rel(q, mf.rel, &mut |rel| {
                    if same_var {
                        out.push(PatternFact {
                            subject,
                            rel,
                            object: subject,
                        });
                    } else {
                        self.each_elem(q, mf.object, &mut |object| {
                            out.push(PatternFact {
                                subject,
                                rel,
                                object,
                            })
                        });
                    }
                })
            });
        }
    }

    /// Calls `f` with each candidate value of an element position: the
    /// wildcard, the constant, or each element of the variable's slot.
    fn each_elem(&self, q: &BoundQuery, t: FactTerm, f: &mut dyn FnMut(Option<ElemId>)) {
        match t {
            FactTerm::Blank => f(None),
            FactTerm::Const(e) => f(Some(e)),
            FactTerm::Var(v) => {
                for e in self.slot(slot_of(q, v)).iter().filter_map(|v| v.as_elem()) {
                    f(Some(e));
                }
            }
        }
    }

    /// Calls `f` with each candidate value of the relation position.
    fn each_rel(&self, q: &BoundQuery, t: RelTerm, f: &mut dyn FnMut(Option<RelId>)) {
        match t {
            RelTerm::Const(r) => f(Some(r)),
            RelTerm::Var(v) => {
                for r in self.slot(slot_of(q, v)).iter().filter_map(|v| v.as_rel()) {
                    f(Some(r));
                }
            }
        }
    }

    /// Renders the assignment for debugging/UI: slot values by variable
    /// name plus MORE facts.
    pub fn to_display(&self, q: &BoundQuery, vocab: &Vocabulary) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &v) in q.sat_vars.iter().enumerate() {
            let names: Vec<String> = self
                .slot(Slot(i as u16))
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
/// place; returns the length of the antichain, which is left at the
/// front of `vs`.
fn canonical_values(vocab: &Vocabulary, vs: &mut [Value]) -> usize {
    vs.sort_unstable();
    let mut n = 0;
    for i in 0..vs.len() {
        if n == 0 || vs[n - 1] != vs[i] {
            vs[n] = vs[i];
            n += 1;
        }
    }
    // keep the maximal values; a value a kept one overwrote is below a
    // maximal value still in `vs[..n]`, so the test sees every maximum
    let mut kept = 0;
    for i in 0..n {
        // PANIC-OK: `i < n <= vs.len()`.
        let v = vs[i];
        if !vs[..n].iter().any(|&w| w != v && value_leq(vocab, v, w)) {
            vs[kept] = v;
            kept += 1;
        }
    }
    kept
}

impl Ord for Assignment {
    /// The order of the nested per-slot lists the flat layout replaced:
    /// slot by slot, each slot's values lexicographically (a prefix
    /// first), then the slot count, then the MORE facts.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let k = self.num_slots();
        let first_diff = self
            .cells
            .iter()
            .zip(&other.cells)
            .position(|(a, b)| a != b);
        let values = match first_diff {
            // equal heads make equal lengths
            None => std::cmp::Ordering::Equal,
            // past equal heads the slots align, so the first different
            // value decides
            Some(i) if i > k => value_word(self.cells[i]).cmp(&value_word(other.cells[i])),
            Some(_) => self
                .slots()
                .zip(other.slots())
                .map(|(a, b)| cmp_values(a, b))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| k.cmp(&other.num_slots())),
        };
        values.then_with(|| self.more.cmp(&other.more))
    }
}

/// `a.cmp(b)` on value slices, one word compare per value.
#[inline]
fn cmp_values(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| value_word(x).cmp(&value_word(y)))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

impl PartialOrd for Assignment {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Assignment {
    /// One word per cell: the head fixes the slot lengths, so the words
    /// need no length prefix.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for &v in &self.cells {
            state.write_u64(value_word(v));
        }
        self.more.hash(state);
    }
}

impl std::fmt::Debug for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assignment")
            .field("values", &self.slots().collect::<Vec<_>>())
            .field("more", &self.more)
            .finish()
    }
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
