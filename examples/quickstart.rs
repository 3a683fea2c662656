//! Quickstart: run the paper's running example end to end.
//!
//! Builds the Figure-1 NYC ontology, a two-member crowd backed by the
//! Table-3 personal databases, and evaluates the (simplified) Figure-2
//! query — then prints the questions a member would see and the mined
//! MSPs.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use oassis::ontology::domains::figure1;
use oassis::prelude::*;

fn main() {
    // 1. General knowledge: the sample ontology of Figure 1.
    let ont = figure1::ontology();
    println!(
        "ontology: {} elements, {} relations, {} universal facts\n",
        ont.vocab().num_elems(),
        ont.vocab().num_rels(),
        ont.num_facts()
    );

    // 2. Individual knowledge: the personal histories of Table 3 (virtual
    //    in the paper, simulation ground truth here). We use two copies of
    //    the `u_avg` member of Example 4.6 — concatenating D_u1 with three
    //    copies of D_u2 makes every answer the exact average of u1 and u2,
    //    so a 2-answer quorum converges to the paper's worked results.
    let [d1, d2] = figure1::personal_dbs(&ont);
    let mut tx = d1;
    for _ in 0..3 {
        tx.extend(d2.iter().cloned());
    }
    let members = vec![
        SimulatedMember::new(
            PersonalDb::from_transactions(tx.clone()),
            MemberBehavior::default(),
            AnswerModel::Exact,
            1,
        ),
        SimulatedMember::new(
            PersonalDb::from_transactions(tx),
            MemberBehavior::default(),
            AnswerModel::Exact,
            2,
        ),
    ];
    let mut crowd = SimulatedCrowd::new(ont.vocab(), members);

    // 3. The user's question, in OASSIS-QL.
    println!("query:\n{}\n", figure1::SIMPLE_QUERY.trim());

    // A taste of what the crowd sees (Section 6.2's templates):
    let engine = Oassis::new(&ont).with_templates(QuestionTemplates::travel_defaults(ont.vocab()));
    let v = ont.vocab();
    let sample_q = crowd::Question::Concrete {
        pattern: PatternSet::from_facts([v.fact("Ball Game", "doAt", "Central Park").unwrap()]),
    };
    println!(
        "a crowd member would be asked e.g.:\n  “{}”\n",
        engine.render_question(&sample_q)
    );

    // 4. Mine the crowd.
    let request = QueryRequest::pattern(figure1::SIMPLE_QUERY);
    let answer = engine
        .run(
            &request,
            &mut crowd,
            &FixedSampleAggregator { sample_size: 2 },
        )
        .expect("query parses and binds")
        .into_patterns()
        .expect("pattern query yields a pattern answer");

    println!(
        "mined {} question(s); MSPs:",
        answer.outcome.mining.questions
    );
    for a in &answer.answers {
        println!("  • {a}");
    }
    println!(
        "\n({} total MSPs, {} valid, complete: {})",
        answer.outcome.mining.msps.len(),
        answer.outcome.mining.valid_msps.len(),
        answer.outcome.mining.complete
    );
}
