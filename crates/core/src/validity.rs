//! The validity index: deciding membership in the expanded assignment set
//! `𝒜 = {φ | ∃φ' ∈ 𝒜_valid, φ ≤ φ'}` (line 1 of Algorithm 1), where
//! `𝒜_valid` contains the SPARQL base assignments **and** all their
//! multiplicity combinations (Section 5, Proposition 5.1).
//!
//! A combination assigns a *set* of concrete values to each slot such that
//! every cross-product choice tuple is a valid base assignment. `φ ∈ 𝒜`
//! therefore holds iff each value of each slot can be *covered* by a
//! concrete valid value (a universe value above it in the order) such that
//! the covering tuples are simultaneously valid — which this module decides
//! by recursive search with intersection-filtered tuple sets.

// audit: allow-file(D4, assignment/level indexing is bounded by the vertical-domain sizes fixed at construction)
use crate::assignment::{value_leq, Assignment, Slot};
use crate::dag::FxBuildHasher;
use oassis_ql::{BaseAssignment, BoundQuery, Multiplicity, Value};
use ontology::Vocabulary;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Static information about one slot of the assignment DAG.
#[derive(Debug, Clone)]
pub struct SlotInfo {
    /// The SATISFYING variable this slot carries.
    pub var: oassis_ql::VarId,
    /// Its multiplicity.
    pub mult: Multiplicity,
    /// Whether it binds relations (predicate position).
    pub is_rel: bool,
    /// `true` when the WHERE clause does not constrain the variable: it
    /// then ranges over the entire vocabulary (how OASSIS-QL captures
    /// classic frequent itemset mining, Section 4.1).
    pub free: bool,
}

/// Index over the valid base assignments, answering membership in the
/// expanded set `𝒜` ([`admits`](ValidityIndex::admits)) and exact validity
/// ([`is_valid`](ValidityIndex::is_valid)).
#[derive(Debug)]
pub struct ValidityIndex {
    slots: Vec<SlotInfo>,
    /// Indices (into `slots`) of WHERE-constrained slots.
    constrained: Vec<usize>,
    /// Valid tuples over the constrained slots (in `constrained` order).
    tuples: HashSet<Vec<Value>, FxBuildHasher>,
    /// Per slot: distinct concrete valid values (constrained slots) or all
    /// vocabulary values of the right kind (free slots), sorted.
    universes: Vec<Vec<Value>>,
    /// Per slot: universe plus all generalizations, sorted.
    closures: Vec<Vec<Value>>,
    /// Per slot: the minimal (most general) values of the closure.
    minimals: Vec<Vec<Value>>,
    /// Tuples in a stable indexed order (same elements as `tuples`):
    /// sorted by every column but `run_col`, then by `run_col`, so each
    /// rest-projection group of `run_col` is one contiguous run.
    tuple_list: Vec<Vec<Value>>,
    /// The first constrained column whose slot may hold several values.
    run_col: Option<usize>,
    /// `run_col`'s rest-projection groups (the one-multiplicity path of
    /// [`Self::admits`]): group `g` is `tuple_list[run_starts[g]..run_starts[g + 1]]`.
    run_starts: Vec<u32>,
    /// Words per cover bitset: `tuple_list.len().div_ceil(64)`.
    stride: usize,
    /// Number of vocabulary elements — rel keys are offset past them.
    num_elems: usize,
    /// Dense value-key space: `num_elems + num_rels` (elems first).
    key_space: usize,
    /// Lazily memoized cover bitsets, flattened: `cover_off[ci][key(v)]`
    /// is the block index (×`stride`) into `cover_words` of the bitset
    /// with bit `t` set iff `v ≤ tuple_list[t][ci]` — the fast path of
    /// [`Self::admits`]. `u32::MAX` = not built yet; columns allocate
    /// their key table on first use.
    cover_off: RefCell<Vec<Vec<u32>>>,
    /// Contiguous arena of all memoized cover bitsets, `stride` words
    /// per block.
    cover_words: RefCell<Vec<u64>>,
    /// The surviving-tuple bitset of [`Self::admits`], reused across calls.
    acc_scratch: RefCell<Vec<u64>>,
    /// The tuple [`Self::is_valid`] builds, reused across calls.
    choice_scratch: RefCell<Vec<Value>>,
    /// Memoized result of [`Self::valid_base_assignments`]. Both the live
    /// run's discovery-curve tracker and op-log replay build a
    /// `ValidTracker` over the same DAG, so the second construction reuses
    /// the first enumeration instead of re-sorting the tuple set.
    base_memo: RefCell<Option<Arc<Vec<Assignment>>>>,
}

impl ValidityIndex {
    /// Builds the index from the WHERE evaluation output.
    pub fn new(q: &BoundQuery, vocab: &Vocabulary, base: &[BaseAssignment]) -> Self {
        let slots: Vec<SlotInfo> = q
            .sat_vars
            .iter()
            .map(|&v| {
                let info = &q.vars[v.index()];
                let free = !info.in_where;
                SlotInfo {
                    var: v,
                    mult: info.mult,
                    is_rel: info.is_rel,
                    free,
                }
            })
            .collect();
        let constrained: Vec<usize> = (0..slots.len()).filter(|&i| !slots[i].free).collect();

        let mut tuples: HashSet<Vec<Value>, FxBuildHasher> = HashSet::default();
        for b in base {
            let tuple: Option<Vec<Value>> =
                constrained.iter().map(|&i| b.get(slots[i].var)).collect();
            if let Some(t) = tuple {
                tuples.insert(t);
            }
        }

        let mut universes: Vec<Vec<Value>> = vec![Vec::new(); slots.len()];
        for (ci, &si) in constrained.iter().enumerate() {
            let mut vals: Vec<Value> = tuples.iter().map(|t| t[ci]).collect();
            vals.sort_unstable();
            vals.dedup();
            universes[si] = vals;
        }
        for (si, slot) in slots.iter().enumerate() {
            if slot.free {
                universes[si] = if slot.is_rel {
                    vocab.rels().map(Value::Rel).collect()
                } else {
                    vocab.elems().map(Value::Elem).collect()
                };
            }
        }

        let closures: Vec<Vec<Value>> = universes
            .iter()
            .map(|u| generalization_closure(vocab, u))
            .collect();
        let minimals: Vec<Vec<Value>> = closures
            .iter()
            .map(|c| {
                c.iter()
                    .copied()
                    .filter(|&v| !c.iter().any(|&w| w != v && value_leq(vocab, w, v)))
                    .collect()
            })
            .collect();

        let run_col = constrained
            .iter()
            .position(|&si| slots[si].mult.max() != Some(1));
        let mut tuple_list: Vec<Vec<Value>> = tuples.iter().cloned().collect();
        match run_col {
            Some(c) => tuple_list.sort_by(|x, y| rest(x, c).cmp(rest(y, c)).then(x[c].cmp(&y[c]))),
            None => tuple_list.sort(),
        }
        let run_starts = run_col.map_or_else(Vec::new, |c| {
            let mut starts: Vec<u32> = (0..tuple_list.len())
                .filter(|&t| t == 0 || rest(&tuple_list[t - 1], c).ne(rest(&tuple_list[t], c)))
                .map(|t| t as u32)
                .collect();
            starts.push(tuple_list.len() as u32);
            starts
        });
        let stride = tuple_list.len().div_ceil(64);
        let cover_off = RefCell::new(vec![Vec::new(); constrained.len()]);
        ValidityIndex {
            slots,
            constrained,
            tuples,
            universes,
            closures,
            minimals,
            tuple_list,
            run_col,
            run_starts,
            stride,
            num_elems: vocab.num_elems(),
            key_space: vocab.num_elems() + vocab.num_rels(),
            cover_off,
            cover_words: RefCell::new(Vec::new()),
            acc_scratch: RefCell::new(Vec::new()),
            choice_scratch: RefCell::new(Vec::new()),
            base_memo: RefCell::new(None),
        }
    }

    /// Slot metadata.
    pub fn slots(&self) -> &[SlotInfo] {
        &self.slots
    }

    /// The concrete valid values of a slot.
    pub fn universe(&self, s: Slot) -> &[Value] {
        &self.universes[s.index()]
    }

    /// Universe plus all generalizations — the values DAG nodes may carry.
    pub fn closure(&self, s: Slot) -> &[Value] {
        &self.closures[s.index()]
    }

    /// The most general values of a slot (DAG-root values).
    pub fn minimal_values(&self, s: Slot) -> &[Value] {
        &self.minimals[s.index()]
    }

    /// Number of valid constrained tuples.
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// The valid base (multiplicity-1) assignments as [`Assignment`]s, in
    /// canonical order — used by the discovery-curve tracker. Returns an
    /// empty list when the query has free slots (the valid set is then the
    /// whole vocabulary and per-assignment tracking is meaningless).
    ///
    /// Memoized: the enumeration runs once per index; later calls (op-log
    /// replay building a second `ValidTracker` over the same DAG) share
    /// the same `Arc`.
    pub fn valid_base_assignments(&self, vocab: &Vocabulary) -> Arc<Vec<Assignment>> {
        if let Some(memo) = self.base_memo.borrow().as_ref() {
            return Arc::clone(memo);
        }
        let built = Arc::new(self.build_base_assignments(vocab));
        *self.base_memo.borrow_mut() = Some(Arc::clone(&built));
        built
    }

    fn build_base_assignments(&self, vocab: &Vocabulary) -> Vec<Assignment> {
        if self.slots.iter().any(|s| s.free) {
            return Vec::new();
        }
        let mut tuples: Vec<&Vec<Value>> = self.tuples.iter().collect();
        tuples.sort();
        tuples
            .iter()
            .map(|t| {
                let mut values: Vec<Vec<Value>> = vec![Vec::new(); self.slots.len()];
                for (ci, &si) in self.constrained.iter().enumerate() {
                    values[si] = vec![t[ci]];
                }
                Assignment::new(vocab, values, Vec::new())
            })
            .collect()
    }

    /// Dense key of a value: elems first, then rels.
    fn value_key(&self, v: Value) -> usize {
        match v {
            Value::Elem(e) => e.index(),
            Value::Rel(r) => self.num_elems + r.index(),
        }
    }

    /// Word offset into `cover_words` of the memoized cover bitset for
    /// constrained column `ci` and value `v`, building it on first use.
    /// The returned block is `self.stride` words long and immutable once
    /// built — callers re-borrow `cover_words` to read it.
    fn cover_offset(&self, vocab: &Vocabulary, ci: usize, v: Value) -> usize {
        debug_assert!(self.stride > 0, "admits bails out on an empty tuple set");
        let key = self.value_key(v);
        {
            let off = self.cover_off.borrow();
            // PANIC-OK: cover_off has one entry per constrained column.
            if let Some(&o) = off[ci].get(key) {
                if o != u32::MAX {
                    return o as usize * self.stride;
                }
            }
        }
        let mut words = self.cover_words.borrow_mut();
        let block = words.len() / self.stride;
        let base = words.len();
        words.resize(base + self.stride, 0);
        for (t, tuple) in self.tuple_list.iter().enumerate() {
            if value_leq(vocab, v, tuple[ci]) {
                // PANIC-OK: the resize above added a full stride of words
                // and t/64 < stride by construction.
                words[base + t / 64] |= 1u64 << (t % 64);
            }
        }
        drop(words);
        let mut off = self.cover_off.borrow_mut();
        // PANIC-OK: cover_off has one entry per constrained column.
        let col = &mut off[ci];
        if col.is_empty() {
            col.resize(self.key_space, u32::MAX);
        }
        // PANIC-OK: keys are < key_space, the length col was resized to.
        col[key] = block as u32;
        base
    }

    /// Whether `φ ∈ 𝒜`: φ is ≤ some valid (combination) assignment.
    /// MORE facts are ignored — they are unconstrained by the WHERE clause.
    ///
    /// Fast paths: single-valued slots intersect memoized cover bitsets;
    /// with one multiplicity slot the surviving tuples are grouped by
    /// their rest-projection and each value of the slot must be covered
    /// within one group (the cross-product condition of Proposition 5.1).
    /// That test runs word by word over `run_col`'s contiguous groups, and
    /// by a scan for any other column or more than 64 values. The fully
    /// general case (≥ 2 multiplicity slots) falls back to a recursive
    /// cover search.
    pub fn admits(&self, vocab: &Vocabulary, a: &Assignment) -> bool {
        if self.constrained.is_empty() {
            return true;
        }
        let n = self.tuple_list.len();
        if n == 0 {
            return false;
        }
        // intersect single-value cover bitsets; find the multiplicity slots
        let mut acc = self.acc_scratch.borrow_mut();
        acc.clear();
        acc.resize(self.stride, !0u64);
        if !n.is_multiple_of(64) {
            *acc.last_mut().expect("non-empty") = (1u64 << (n % 64)) - 1;
        }
        let mut multi: Option<(usize, &[Value])> = None;
        let mut multis = 0;
        for (ci, &si) in self.constrained.iter().enumerate() {
            let values = a.slot(Slot(si as u16));
            match values.len() {
                0 => {} // unconstrained: grouping by rest pins it consistently
                1 => {
                    let off = self.cover_offset(vocab, ci, values[0]);
                    let words = self.cover_words.borrow();
                    // PANIC-OK: cover_offset returns the base of a full
                    // stride-sized block inside cover_words.
                    for (w, &b) in acc.iter_mut().zip(&words[off..off + self.stride]) {
                        *w &= b;
                    }
                }
                _ => {
                    multis += 1;
                    multi.get_or_insert((ci, values));
                }
            }
        }
        if acc.iter().all(|&w| w == 0) {
            return false;
        }
        let Some((ci, values)) = multi else {
            return true;
        };
        if multis > 1 {
            // general recursion over the surviving tuple subset
            let live: HashSet<Vec<Value>> = (0..n)
                .filter(|&t| acc[t / 64] & (1u64 << (t % 64)) != 0)
                .map(|t| self.tuple_list[t].clone())
                .collect();
            return self.admits_rec(vocab, a, 0, live);
        }
        // a rest-projection group must cover every value of the slot;
        // `run_col`'s groups are tested against per-value cover bitsets
        if self.run_col == Some(ci) && values.len() <= 64 {
            return self.admits_one_mult(vocab, ci, values, &acc);
        }
        // exact scan for any other column and for absurdly wide antichains
        let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
        for t in 0..n {
            if acc[t / 64] & (1u64 << (t % 64)) == 0 {
                continue;
            }
            let tuple = &self.tuple_list[t];
            groups
                .entry(rest(tuple, ci).copied().collect())
                .or_default()
                .push(tuple[ci]);
        }
        groups.values().any(|col| {
            values
                .iter()
                .all(|&v| col.iter().any(|&u| value_leq(vocab, v, u)))
        })
    }

    /// The single-multiplicity-slot case of [`Self::admits`] for
    /// `run_col`, decided over its contiguous rest-projection groups.
    ///
    /// Semantics (identical to the scan fallback): some group of surviving
    /// tuples — tuples agreeing on every column but `ci` — must cover all
    /// of the slot's `values`: for each value `v`, some tuple `t` of the
    /// group survives (`acc`) and has `v ≤ t[ci]` (the memoized cover
    /// bitset of `v`), tested word by word over the group's range.
    fn admits_one_mult(
        &self,
        vocab: &Vocabulary,
        ci: usize,
        values: &[Value],
        acc: &[u64],
    ) -> bool {
        debug_assert!((1..=64).contains(&values.len()));
        // fetch all offsets first: cover_offset may grow the arena, so it
        // must run before the long immutable borrow below
        let mut offs = [0usize; 64];
        for (off, &v) in offs.iter_mut().zip(values) {
            *off = self.cover_offset(vocab, ci, v);
        }
        // PANIC-OK: the caller passes at most 64 values.
        let offs = &offs[..values.len()];
        let cover = self.cover_words.borrow();
        let stride = self.stride;
        self.run_starts.windows(2).any(|run| {
            let (lo, hi) = (run[0] as usize, run[1] as usize);
            // PANIC-OK: cover_offset returns the base of a full
            // stride-sized block inside cover_words.
            offs.iter()
                .all(|&off| any_in_range(acc, &cover[off..off + stride], lo, hi))
        })
    }

    fn admits_rec(
        &self,
        vocab: &Vocabulary,
        a: &Assignment,
        ci: usize,
        live: HashSet<Vec<Value>>,
    ) -> bool {
        if live.is_empty() {
            return false;
        }
        let Some(&si) = self.constrained.get(ci) else {
            return true;
        };
        let values = a.slot(Slot(si as u16));
        if values.is_empty() {
            // unconstrained by φ: any single concrete value works; branch
            // over the distinct values present in the live tuples.
            let mut seen: Vec<Value> = live.iter().map(|t| t[0]).collect();
            seen.sort_unstable();
            seen.dedup();
            for u in seen {
                let rest = rests_with(&live, u);
                if self.admits_rec(vocab, a, ci + 1, rest) {
                    return true;
                }
            }
            return false;
        }
        let acc: HashSet<Vec<Value>> = live.iter().map(|t| t[1..].to_vec()).collect();
        self.choose_covers(vocab, a, ci, values, 0, &live, acc)
    }

    #[allow(clippy::too_many_arguments)]
    fn choose_covers(
        &self,
        vocab: &Vocabulary,
        a: &Assignment,
        ci: usize,
        values: &[Value],
        vi: usize,
        live: &HashSet<Vec<Value>>,
        acc: HashSet<Vec<Value>>,
    ) -> bool {
        if acc.is_empty() {
            return false;
        }
        if vi == values.len() {
            return self.admits_rec(vocab, a, ci + 1, acc);
        }
        let v = values[vi];
        let mut covers: Vec<Value> = live
            .iter()
            .map(|t| t[0])
            .filter(|&u| value_leq(vocab, v, u))
            .collect();
        covers.sort_unstable();
        covers.dedup();
        for u in covers {
            let with_u = rests_with(live, u);
            let inter: HashSet<Vec<Value>> = acc
                .iter()
                .filter(|r| with_u.contains(*r))
                .cloned()
                .collect();
            if self.choose_covers(vocab, a, ci, values, vi + 1, live, inter) {
                return true;
            }
        }
        false
    }

    /// Whether `φ ∈ 𝒜_valid`: every slot holds concrete valid values
    /// within its multiplicity bounds and the cross-product of constrained
    /// slots consists of valid base tuples (Proposition 5.1, iterated).
    pub fn is_valid(&self, a: &Assignment) -> bool {
        for (si, slot) in self.slots.iter().enumerate() {
            let n = a.slot(Slot(si as u16)).len();
            if n < slot.mult.min() || slot.mult.max().is_some_and(|m| n > m) {
                return false;
            }
        }
        // cross-product membership over constrained slots
        let mut choice = self.choice_scratch.borrow_mut();
        choice.clear();
        self.valid_rec(a, 0, &mut choice)
    }

    fn valid_rec(&self, a: &Assignment, ci: usize, choice: &mut Vec<Value>) -> bool {
        let Some(&si) = self.constrained.get(ci) else {
            return self.tuples.contains(choice);
        };
        let values = a.slot(Slot(si as u16));
        if values.is_empty() {
            // multiplicity 0: the meta-facts vanish; validity requires the
            // remaining slots to form valid tuples with *some* value here.
            // Deterministic candidate order: hash-set iteration order
            // must not decide which branch the existential search
            // explores first (the result is the same either way, but
            // the work done — and any future trace of it — would not
            // be reproducible).
            let mut seen: Vec<Value> = self.tuples.iter().map(|t| t[ci]).collect();
            seen.sort_unstable();
            seen.dedup();
            for u in seen {
                choice.push(u);
                let ok = self.valid_rec(a, ci + 1, choice);
                choice.pop();
                if ok {
                    return true;
                }
            }
            return false;
        }
        // every value must participate: all cross tuples must be valid
        self.valid_product(a, ci, values, 0, choice)
    }

    fn valid_product(
        &self,
        a: &Assignment,
        ci: usize,
        values: &[Value],
        vi: usize,
        choice: &mut Vec<Value>,
    ) -> bool {
        if vi == values.len() {
            return true;
        }
        choice.push(values[vi]);
        let ok = self.valid_rec(a, ci + 1, choice);
        choice.pop();
        ok && self.valid_product(a, ci, values, vi + 1, choice)
    }
}

/// The values of `tuple` outside column `ci`.
fn rest(tuple: &[Value], ci: usize) -> impl Iterator<Item = &Value> {
    tuple
        .iter()
        .enumerate()
        .filter(move |&(i, _)| i != ci)
        .map(|(_, v)| v)
}

/// Whether some position in `lo..hi` is set in both `a` and `b`.
fn any_in_range(a: &[u64], b: &[u64], lo: usize, hi: usize) -> bool {
    let (first, last) = (lo / 64, (hi - 1) / 64);
    (first..=last).any(|w| {
        // PANIC-OK: `hi` is at most the bit length of both sets.
        let mut word = a[w] & b[w];
        if w == first {
            word &= !0u64 << (lo % 64);
        }
        if w == last {
            word &= !0u64 >> (63 - (hi - 1) % 64);
        }
        word != 0
    })
}

/// Rest-tuples (columns `1..`) of the live tuples whose first column is `u`.
fn rests_with(live: &HashSet<Vec<Value>>, u: Value) -> HashSet<Vec<Value>> {
    live.iter()
        .filter(|t| t[0] == u)
        .map(|t| t[1..].to_vec())
        .collect::<HashSet<Vec<Value>>>()
}

fn generalization_closure(vocab: &Vocabulary, universe: &[Value]) -> Vec<Value> {
    let mut out: HashSet<Value> = universe.iter().copied().collect();
    let mut stack: Vec<Value> = universe.to_vec();
    while let Some(v) = stack.pop() {
        let parents: Vec<Value> = match v {
            Value::Elem(e) => vocab
                .elem_parents(e)
                .iter()
                .map(|&p| Value::Elem(p))
                .collect(),
            Value::Rel(r) => vocab
                .rel_parents(r)
                .iter()
                .map(|&p| Value::Rel(p))
                .collect(),
        };
        for p in parents {
            if out.insert(p) {
                stack.push(p);
            }
        }
    }
    let mut v: Vec<Value> = out.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    fn setup(src: &str) -> (ontology::Ontology, BoundQuery, ValidityIndex) {
        let ont = figure1::ontology();
        let q = parse(src).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let idx = ValidityIndex::new(&b, ont.vocab(), &base);
        (ont, b, idx)
    }

    fn elem(ont: &ontology::Ontology, name: &str) -> Value {
        Value::Elem(ont.vocab().elem_id(name).unwrap())
    }

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
    fn universes_and_roots_match_figure_3() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        // x-universe: the two child-friendly attractions
        let xs: Vec<&str> = idx
            .universe(Slot(0))
            .iter()
            .map(|&u| v.elem_name(u.as_elem().unwrap()))
            .collect();
        assert_eq!(xs, vec!["Central Park", "Bronx Zoo"]);
        // y-universe: all 13 activity classes
        assert_eq!(idx.universe(Slot(1)).len(), 13);
        // closure adds Park/Zoo/Outdoor/Attraction/Place/Thing for x
        assert_eq!(idx.closure(Slot(0)).len(), 2 + 6);
        // minimal values: Thing (figure-1 has a global root)
        let x_min: Vec<&str> = idx
            .minimal_values(Slot(0))
            .iter()
            .map(|&u| v.elem_name(u.as_elem().unwrap()))
            .collect();
        assert_eq!(x_min, vec!["Thing"]);
        // y's minimal is also Thing (Activity ≤ Thing)
        let y_min: Vec<&str> = idx
            .minimal_values(Slot(1))
            .iter()
            .map(|&u| v.elem_name(u.as_elem().unwrap()))
            .collect();
        assert_eq!(y_min, vec!["Thing"]);
    }

    #[test]
    fn admits_generalizations_of_valid() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        // valid base: (Central Park, Biking)
        assert!(idx.admits(v, &assign(&ont, "Central Park", &["Biking"])));
        // generalizations are admitted
        assert!(idx.admits(v, &assign(&ont, "Park", &["Sport"])));
        assert!(idx.admits(v, &assign(&ont, "Attraction", &["Activity"])));
        assert!(idx.admits(v, &assign(&ont, "Thing", &["Thing"])));
        // Madison Square is not child-friendly ⇒ nothing admits it
        assert!(!idx.admits(v, &assign(&ont, "Madison Square", &["Biking"])));
    }

    #[test]
    fn admits_multiplicity_combinations() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        // {Biking, Ball Game} at Central Park: both bases valid ⇒ admitted
        assert!(idx.admits(v, &assign(&ont, "Central Park", &["Biking", "Ball Game"])));
        // generalized x with a value pair still admitted
        assert!(idx.admits(v, &assign(&ont, "Outdoor", &["Biking", "Feed a Monkey"])));
    }

    #[test]
    fn is_valid_checks_concreteness_and_product() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        // base assignments are valid
        assert!(idx.is_valid(&assign(&ont, "Central Park", &["Biking"])));
        // combination: both (CP, Biking) and (CP, Ball Game) valid bases
        assert!(idx.is_valid(&assign(&ont, "Central Park", &["Biking", "Ball Game"])));
        // class-level x is NOT valid (instances required) though admitted
        let gen = assign(&ont, "Park", &["Biking"]);
        assert!(!idx.is_valid(&gen));
        assert!(idx.admits(ont.vocab(), &gen));
    }

    #[test]
    fn multiplicity_bounds_enforced() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        // $y has +: at least one value; empty y violates min
        let empty_y = Assignment::new(
            ont.vocab(),
            vec![vec![elem(&ont, "Central Park")], vec![]],
            vec![],
        );
        assert!(!idx.is_valid(&empty_y));
        // $x defaults to exactly one: two x values invalid
        let two_x = Assignment::new(
            ont.vocab(),
            vec![
                vec![elem(&ont, "Central Park"), elem(&ont, "Bronx Zoo")],
                vec![elem(&ont, "Biking")],
            ],
            vec![],
        );
        assert!(!idx.is_valid(&two_x));
    }

    #[test]
    fn product_condition_rejects_cross_invalid() {
        // craft a query where the valid set is NOT a product:
        // (CP, Maoz) and (BZ, Pine) valid, but (CP, Pine) not.
        let src = r#"
SELECT FACT-SETS
WHERE
  $x hasLabel "child-friendly".
  $z nearBy $x
SATISFYING
  $z+ eatAt $x
WITH SUPPORT = 0.2
"#;
        let (ont, _, idx) = setup(src);
        let v = ont.vocab();
        // slots ordered by VarId: x then z
        let cp_maoz = Assignment::new(
            v,
            vec![
                vec![elem(&ont, "Central Park")],
                vec![elem(&ont, "Maoz Veg")],
            ],
            vec![],
        );
        assert!(idx.is_valid(&cp_maoz));
        let cp_pine = Assignment::new(
            v,
            vec![vec![elem(&ont, "Central Park")], vec![elem(&ont, "Pine")]],
            vec![],
        );
        assert!(!idx.is_valid(&cp_pine));
        assert!(!idx.admits(v, &cp_pine));
        // combination {Maoz, Pine} for z at CP requires (CP, Pine) valid ⇒ no
        let combo = Assignment::new(
            v,
            vec![
                vec![elem(&ont, "Central Park")],
                vec![elem(&ont, "Maoz Veg"), elem(&ont, "Pine")],
            ],
            vec![],
        );
        assert!(!idx.is_valid(&combo));
        assert!(!idx.admits(v, &combo));
    }

    #[test]
    fn free_slots_admit_everything() {
        let (ont, _, idx) = setup("SELECT FACT-SETS WHERE SATISFYING $a+ $p $b WITH SUPPORT = 0.2");
        let v = ont.vocab();
        assert!(idx.slots().iter().all(|s| s.free));
        let a = Assignment::new(
            v,
            vec![
                vec![elem(&ont, "Biking")],
                vec![Value::Rel(v.rel_id("doAt").unwrap())],
                vec![elem(&ont, "Central Park")],
            ],
            vec![],
        );
        assert!(idx.admits(v, &a));
        assert!(idx.is_valid(&a));
    }

    #[test]
    fn more_facts_do_not_affect_admission() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        let f = v.fact("Rent Bikes", "doAt", "Boathouse").unwrap();
        let a = assign(&ont, "Central Park", &["Biking"]).with_more(v, f);
        assert!(idx.admits(v, &a));
    }

    /// Whether some valid combination covers `a`, by exhaustive search:
    /// for every constrained slot, pick a concrete universe value above
    /// each of its values (any one universe value for an empty slot) such
    /// that every tuple of the picked sets' cross product is valid. The
    /// search only prunes on valid tuple prefixes.
    fn admits_brute(ix: &ValidityIndex, vocab: &Vocabulary, a: &Assignment) -> bool {
        let k = ix.constrained.len();
        let prefixes: Vec<HashSet<Vec<Value>>> = (1..=k)
            .map(|len| ix.tuples.iter().map(|t| t[..len].to_vec()).collect())
            .collect();
        struct Search<'s> {
            ix: &'s ValidityIndex,
            vocab: &'s Vocabulary,
            a: &'s Assignment,
            prefixes: Vec<HashSet<Vec<Value>>>,
        }
        impl Search<'_> {
            fn slot(&self, ci: usize, partial: &[Vec<Value>]) -> bool {
                let Some(&si) = self.ix.constrained.get(ci) else {
                    return true;
                };
                let values = self.a.slot(Slot(si as u16));
                if values.is_empty() {
                    return self.ix.universes[si]
                        .iter()
                        .any(|&u| self.pick(ci, &[], partial, vec![u]));
                }
                self.pick(ci, values, partial, Vec::new())
            }

            /// Picks a cover for `values[0]`, then the rest; `chosen`
            /// holds the covers picked so far.
            fn pick(
                &self,
                ci: usize,
                values: &[Value],
                partial: &[Vec<Value>],
                chosen: Vec<Value>,
            ) -> bool {
                let Some((&v, rest)) = values.split_first() else {
                    let next: Vec<Vec<Value>> = partial
                        .iter()
                        .flat_map(|p| chosen.iter().map(move |&u| [p.as_slice(), &[u]].concat()))
                        .collect();
                    return next.iter().all(|p| self.prefixes[ci].contains(p))
                        && self.slot(ci + 1, &next);
                };
                let si = self.ix.constrained[ci];
                self.ix.universes[si].iter().any(|&u| {
                    value_leq(self.vocab, v, u)
                        && partial
                            .iter()
                            .all(|p| self.prefixes[ci].contains(&[p.as_slice(), &[u]].concat()))
                        && self.pick(ci, rest, partial, [chosen.as_slice(), &[u]].concat())
                })
            }
        }
        let search = Search {
            ix,
            vocab,
            a,
            prefixes,
        };
        k == 0 || search.slot(0, &[Vec::new()])
    }

    proptest::proptest! {
        /// `any_in_range` agrees with a bit-by-bit scan of the range.
        #[test]
        fn any_in_range_matches_a_bit_scan(seed in 0u64..1_000_000, lo in 0usize..190, len in 1usize..66) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (a, b): (Vec<u64>, Vec<u64>) = (0..4)
                .map(|_| (rng.gen::<u64>() & rng.gen::<u64>(), rng.gen::<u64>() & rng.gen::<u64>()))
                .unzip();
            let hi = (lo + len).min(256);
            let naive = (lo..hi).any(|t| (a[t / 64] & b[t / 64]) >> (t % 64) & 1 == 1);
            proptest::prop_assert_eq!(any_in_range(&a, &b, lo, hi), naive);
        }
    }

    /// Elements `Item1..Item80` and places `Place1..Place4` joined by a
    /// seeded random `at` relation: unlike the paper's domains, whose
    /// WHERE results are cross products, most combinations are invalid,
    /// and one slot has more than 64 concrete values.
    fn bipartite(seed: u64) -> ontology::Ontology {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = ontology::OntologyBuilder::new();
        b.relation("at");
        b.relation("likes");
        for p in 1..=4 {
            b.instance(&format!("Place{p}"), "Place");
        }
        for i in 1..=80 {
            b.instance(&format!("Item{i}"), "Item");
            for p in 1..=4 {
                if rng.gen_bool(if p == 1 { 0.9 } else { 0.1 }) {
                    b.fact(&format!("Item{i}"), "at", &format!("Place{p}"));
                }
            }
        }
        b.build().expect("acyclic")
    }

    /// The path [`ValidityIndex::admits`] decides `a` on, or `None` when
    /// no tuple survives the single-valued covers (it answers `false`
    /// before choosing one).
    fn admits_path(ix: &ValidityIndex, vocab: &Vocabulary, a: &Assignment) -> Option<&'static str> {
        let cols: Vec<&[Value]> = ix
            .constrained
            .iter()
            .map(|&si| a.slot(Slot(si as u16)))
            .collect();
        let survives = ix.tuple_list.iter().any(|t| {
            cols.iter()
                .zip(t)
                .all(|(vs, &u)| vs.len() != 1 || value_leq(vocab, vs[0], u))
        });
        if cols.is_empty() || !survives {
            return None;
        }
        let multi: Vec<usize> = (0..cols.len()).filter(|&ci| cols[ci].len() > 1).collect();
        Some(match multi[..] {
            [] => "single-valued covers",
            [ci] if cols[ci].len() > 64 => "> 64-value scan",
            [ci] if ix.run_col == Some(ci) => "run groups",
            [_] => "scan of another column",
            _ => "admits_rec",
        })
    }

    const ADMITS_PATHS: [&str; 5] = [
        "single-valued covers",
        "run groups",
        "scan of another column",
        "> 64-value scan",
        "admits_rec",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// `admits` agrees with the brute-force definition on random
        /// assignments over figure 1, a synthetic domain, travel, travel
        /// with two `+` slots, and a non-product domain with one and two
        /// `+` slots. Every case runs all six domains and checks that
        /// together they reach every path of `admits` (`ADMITS_PATHS`);
        /// each non-product domain takes the > 64-value scan once.
        #[test]
        fn admits_matches_the_brute_force_definition(seed in 0u64..1_000_000) {
            use ontology::domains::{travel, DomainScale};
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            let mut hit: HashSet<&str> = HashSet::new();
            for domain in 0..6 {
                let (ont, src) = match domain {
                    0 => (figure1::ontology(), figure1::SIMPLE_QUERY.to_string()),
                    1 => {
                        let d = crate::synth::synthetic_domain_mult(40, 4, 0);
                        (d.ontology, d.query)
                    }
                    2 => {
                        let d = travel(DomainScale::small());
                        (d.ontology, d.query)
                    }
                    3 => {
                        let d = travel(DomainScale::small());
                        let src = d.query.replace("$y+ doAt $x.", "$y+ doAt $x+.");
                        (d.ontology, src)
                    }
                    4 => (
                        bipartite(seed % 4),
                        "SELECT FACT-SETS WHERE $x instanceOf Item. $y instanceOf Place. $x at $y \
                         SATISFYING $x+ likes $y WITH SUPPORT = 0.5"
                            .to_string(),
                    ),
                    _ => (
                        bipartite(seed % 4),
                        "SELECT FACT-SETS WHERE $x instanceOf Item. $y instanceOf Place. $x at $y \
                         SATISFYING $x+ likes $y+ WITH SUPPORT = 0.5"
                            .to_string(),
                    ),
                };
                let b = bind(&parse(&src).unwrap(), &ont).unwrap();
                let base = evaluate_where(&b, &ont, MatchMode::Exact);
                let idx = ValidityIndex::new(&b, ont.vocab(), &base);
                let v = ont.vocab();
                let all: Vec<Value> = v.elems().map(Value::Elem).collect();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ domain as u64);
                for case in 0..40 {
                    // Cases draw each slot's values either at random or
                    // around one valid tuple `t0`: one slot takes several
                    // values of `t0`'s rest group (plus, at times, a stray
                    // one), the others keep `t0`'s value. The first case
                    // fills every slot with > 64 concrete values (its rest
                    // group if that large, else its universe) that way and
                    // gives the other slots `t0`'s value.
                    let t0 = &idx.tuple_list[rng.gen_range(0..idx.tuple_list.len())];
                    let around = rng.gen_bool(0.6);
                    let wide_ci = rng.gen_range(0..idx.constrained.len());
                    let values: Vec<Vec<Value>> = (0..idx.slots().len())
                        .map(|si| {
                            let closure = &idx.closures[si];
                            let universe = &idx.universes[si];
                            let ci = idx.constrained.iter().position(|&s| s == si);
                            let group: Vec<Value> = match ci {
                                Some(ci) => idx
                                    .tuple_list
                                    .iter()
                                    .filter(|t| rest(t, ci).eq(rest(t0, ci)))
                                    .map(|t| t[ci])
                                    .collect(),
                                None => universe.clone(),
                            };
                            if case == 0 {
                                let mut wide = if group.len() > 64 { group } else { universe.clone() };
                                if wide.len() > 64 {
                                    wide.shuffle(&mut rng);
                                    wide.truncate(65 + rng.gen_range(0..wide.len() - 64));
                                    return wide;
                                }
                                return ci.map(|ci| vec![t0[ci]]).unwrap_or_default();
                            }
                            let wide = if rng.gen_bool(0.5) { group } else { universe.clone() };
                            let random = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..20) {
                                0 => all[rng.gen_range(0..all.len())],
                                1..=9 => universe[rng.gen_range(0..universe.len())],
                                _ => closure[rng.gen_range(0..closure.len())],
                            };
                            match ci {
                                Some(ci) if around && ci == wide_ci => {
                                    let mut vs: Vec<Value> = (0..rng.gen_range(2..4usize))
                                        .map(|_| wide[rng.gen_range(0..wide.len())])
                                        .collect();
                                    if rng.gen_bool(0.5) {
                                        vs.push(random(&mut rng));
                                    }
                                    vs
                                }
                                // an empty slot leaves the group to pin it
                                Some(ci) if around && rng.gen_bool(0.8) => {
                                    if rng.gen_bool(0.5) {
                                        vec![t0[ci]]
                                    } else {
                                        Vec::new()
                                    }
                                }
                                _ => {
                                    let n = [0usize, 1, 1, 1, 2, 2, 3][rng.gen_range(0..7usize)];
                                    (0..n).map(|_| random(&mut rng)).collect()
                                }
                            }
                        })
                        .collect();
                    let a = Assignment::new(v, values, vec![]);
                    let path = admits_path(&idx, v, &a);
                    if case == 0 && domain >= 4 {
                        proptest::prop_assert_eq!(path, Some("> 64-value scan"));
                    }
                    hit.extend(path);
                    proptest::prop_assert_eq!(
                        idx.admits(v, &a),
                        admits_brute(&idx, v, &a),
                        "{}",
                        a.to_display(&b, v)
                    );
                }
            }
            let missed: Vec<&str> = ADMITS_PATHS.into_iter().filter(|p| !hit.contains(p)).collect();
            proptest::prop_assert!(missed.is_empty(), "paths not reached: {:?}", missed);
        }
    }
}
