//! OASSIS-QL captures classic frequent itemset mining (Section 4.1), and
//! the SIGMOD'13 association-rule companion.
//!
//! Part 1 — "to capture mining for frequent itemsets, use an empty WHERE
//! clause and `$x+ [] []` as the SATISFYING clause": we mine frequent
//! *fact-sets* over a flat vocabulary with the vertical algorithm and
//! check the result against a direct Apriori run on the same
//! transactions.
//!
//! Part 2 — the `crowdrules` crate mines association rules from a
//! simulated crowd with open/closed questions and CI-based estimates.
//!
//! ```sh
//! cargo run --release --example itemset_mining
//! ```

use oassis::prelude::*;
use oassis::rules::{
    AssociationRule, CrowdMiner, ItemId, Itemset, MinerConfig, QuestionStrategy, SimConfig,
    SimulatedRuleCrowd,
};
use std::collections::BTreeSet;

/// A direct, textbook Apriori over itemsets (sets of ElemIds), returning
/// the *maximal* frequent itemsets for comparison with the MSP output.
fn apriori_maximal(
    transactions: &[BTreeSet<u32>],
    universe: &[u32],
    theta: f64,
) -> Vec<BTreeSet<u32>> {
    let n = transactions.len() as f64;
    let frequent = |s: &BTreeSet<u32>| {
        transactions.iter().filter(|t| s.is_subset(t)).count() as f64 / n >= theta
    };
    let mut level: Vec<BTreeSet<u32>> = universe
        .iter()
        .map(|&i| BTreeSet::from([i]))
        .filter(|s| frequent(s))
        .collect();
    let mut all_frequent: Vec<BTreeSet<u32>> = level.clone();
    while !level.is_empty() {
        let mut next: Vec<BTreeSet<u32>> = Vec::new();
        for s in &level {
            for &i in universe {
                if !s.contains(&i) && i > *s.iter().next_back().unwrap() {
                    let mut c = s.clone();
                    c.insert(i);
                    if frequent(&c) && !next.contains(&c) {
                        next.push(c);
                    }
                }
            }
        }
        all_frequent.extend(next.iter().cloned());
        level = next;
    }
    all_frequent
        .iter()
        .filter(|s| !all_frequent.iter().any(|t| *s != t && s.is_subset(t)))
        .cloned()
        .collect()
}

fn main() {
    // ---------------- Part 1: FIM via OASSIS-QL ----------------
    // Flat vocabulary: items are elements; a single relation `did` links
    // each item to the occasion marker.
    let mut b = OntologyBuilder::new();
    let items = ["coffee", "croissant", "newspaper", "juice", "eggs"];
    for it in items {
        b.element(it);
    }
    b.element("it");
    b.relation("did");
    let ont = b.build().unwrap();
    let v = ont.vocab();

    // transactions: breakfast diaries
    let raw: [&[&str]; 8] = [
        &["coffee", "croissant"],
        &["coffee", "croissant", "newspaper"],
        &["coffee", "newspaper"],
        &["juice", "eggs"],
        &["coffee", "croissant"],
        &["coffee", "eggs"],
        &["coffee", "croissant", "newspaper"],
        &["juice"],
    ];
    let tx: Vec<FactSet> = raw
        .iter()
        .map(|items| FactSet::from_iter(items.iter().map(|i| v.fact(i, "did", "it").unwrap())))
        .collect();
    let member = SimulatedMember::new(
        PersonalDb::from_transactions(tx.clone()),
        MemberBehavior::default(),
        AnswerModel::Exact,
        0,
    );

    // The FIM query of Section 4.1. (`$x+ [] []` in the paper's sketch;
    // with a single relation the equivalent is `$x+ did it`.)
    let query = "SELECT FACT-SETS\nWHERE\nSATISFYING\n  $x+ did it\nWITH SUPPORT = 0.375\n";
    println!("FIM query:\n{query}");
    let engine = Oassis::new(&ont);
    let request = QueryRequest::pattern(query);
    let answer = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(v, vec![member]),
            &FixedSampleAggregator { sample_size: 1 },
        )
        .expect("query runs")
        .into_patterns()
        .expect("pattern query");
    println!(
        "maximal frequent fact-sets (θ = 3/8), {} questions:",
        answer.outcome.mining.questions
    );
    let mut mined: Vec<String> = answer.answers.clone();
    mined.sort();
    for a in &mined {
        println!("  • {a}");
    }

    // Reference: direct Apriori on the same transactions.
    let ids: Vec<u32> = items.iter().map(|i| v.elem_id(i).unwrap().0).collect();
    let tsets: Vec<BTreeSet<u32>> = raw
        .iter()
        .map(|t| t.iter().map(|i| v.elem_id(i).unwrap().0).collect())
        .collect();
    let maximal = apriori_maximal(&tsets, &ids, 0.375);
    let mut reference: Vec<String> = maximal
        .iter()
        .map(|s| {
            let mut names: Vec<&str> = s
                .iter()
                .map(|&i| v.elem_name(ontology::ElemId(i)))
                .collect();
            names.sort_unstable();
            names
                .iter()
                .map(|n| format!("{n} did it"))
                .collect::<Vec<_>>()
                .join(". ")
        })
        .collect();
    reference.sort();
    println!("Apriori maximal frequent itemsets (same θ):");
    for r in &reference {
        println!("  • {r}");
    }
    assert_eq!(mined, reference, "OASSIS-QL FIM must agree with Apriori");
    println!("  ✓ identical\n");

    // ---------------- Part 2: SIGMOD'13 association rules ----------------
    let iset = |xs: &[u32]| Itemset::new(xs.iter().map(|&i| ItemId(i)));
    let sim = SimConfig {
        members: 120,
        habits: vec![(iset(&[0, 1]), 0.65), (iset(&[2, 3]), 0.5)],
        seed: 17,
        ..Default::default()
    };
    let mut crowd = SimulatedRuleCrowd::generate(&sim);
    let mut miner = CrowdMiner::new(
        MinerConfig {
            theta_support: 0.35,
            theta_confidence: 0.6,
            strategy: QuestionStrategy::Greedy,
            ..Default::default()
        },
        vec![],
    );
    miner.run(&mut crowd, 500);
    println!(
        "crowdrules: after {} questions, significant association rules:",
        miner.questions()
    );
    for r in miner.significant_rules() {
        println!(
            "  • {r}   (true supp {:.2}, conf {:.2})",
            crowd.true_support(&r),
            crowd.true_confidence(&r)
        );
    }
    let truth = vec![
        AssociationRule::new(iset(&[0]), iset(&[1])).unwrap(),
        AssociationRule::new(iset(&[1]), iset(&[0])).unwrap(),
        AssociationRule::new(iset(&[2]), iset(&[3])).unwrap(),
        AssociationRule::new(iset(&[3]), iset(&[2])).unwrap(),
    ];
    let (p, r) = miner.precision_recall(&truth);
    println!("precision {p:.2}, recall {r:.2} against the planted rules");
}
