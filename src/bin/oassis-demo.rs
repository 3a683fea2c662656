//! `oassis-demo` — a small CLI for exploring the library.
//!
//! ```sh
//! cargo run --release --bin oassis-demo -- domains
//! cargo run --release --bin oassis-demo -- mine figure1 --theta 0.4
//! cargo run --release --bin oassis-demo -- mine travel --theta 0.2 --members 100
//! cargo run --release --bin oassis-demo -- parse examples/query.oql   # or any file
//! cargo run --release --bin oassis-demo -- export-ontology figure1 out.json
//! ```

use oassis::crowd::population::{generate, HabitProfile, PopulationConfig};
use oassis::ontology::domains::{culinary, figure1, self_treatment, travel, DomainScale};
use oassis::prelude::*;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  oassis-demo domains\n  oassis-demo mine <figure1|travel|culinary|self-treatment> \
         [--theta X] [--members N] [--seed S]\n  oassis-demo parse <query-file>\n  \
         oassis-demo export-ontology <domain> <out.json>"
    );
    ExitCode::FAILURE
}

/// The value of flag `name`, or `default` when the flag is absent. A flag
/// with no value, or one that does not parse, is an error naming it.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value for {name}: {value:?}"))
}

/// The `mine` flags: support threshold Θ, crowd size and seed.
fn mine_flags(args: &[String]) -> Result<(f64, usize, u64), String> {
    let theta: f64 = flag(args, "--theta", 0.2)?;
    // the query language's rule for WITH SUPPORT
    if !(0.0..=1.0).contains(&theta) {
        return Err(format!("--theta {theta} outside [0, 1]"));
    }
    Ok((
        theta,
        flag(args, "--members", 60)?,
        flag(args, "--seed", 7)?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("domains") => {
            println!("built-in domains:");
            for (name, ont, query, dag) in [
                (
                    "figure1",
                    figure1::ontology(),
                    figure1::SIMPLE_QUERY.to_owned(),
                    112,
                ),
                {
                    let d = travel(DomainScale::paper());
                    ("travel", d.ontology, d.query, 4773)
                },
                {
                    let d = culinary(DomainScale::paper());
                    ("culinary", d.ontology, d.query, 10512)
                },
                {
                    let d = self_treatment(DomainScale::paper());
                    ("self-treatment", d.ontology, d.query, 2310)
                },
            ] {
                println!(
                    "  {name:<15} {:>5} elements  {:>5} facts  assignment DAG ≈ {dag} nodes",
                    ont.vocab().num_elems(),
                    ont.num_facts()
                );
                let _ = query;
            }
            ExitCode::SUCCESS
        }
        Some("parse") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse(&src) {
                Ok(q) => {
                    println!("parsed OK; canonical form:\n{q}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("parse error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("export-ontology") => {
            let (Some(domain), Some(out)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let ont = match domain.as_str() {
                "figure1" => figure1::ontology(),
                "travel" => travel(DomainScale::paper()).ontology,
                "culinary" => culinary(DomainScale::paper()).ontology,
                "self-treatment" => self_treatment(DomainScale::paper()).ontology,
                other => {
                    eprintln!("unknown domain {other}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(out, ont.to_json()) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Some("mine") => {
            let Some(domain) = args.get(1) else {
                return usage();
            };
            let (theta, members, seed) = match mine_flags(&args) {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };

            let (ont, query) = match domain.as_str() {
                "figure1" => (figure1::ontology(), figure1::SIMPLE_QUERY.to_owned()),
                "travel" => {
                    let d = travel(DomainScale::small());
                    (d.ontology, d.query)
                }
                "culinary" => {
                    let d = culinary(DomainScale::small());
                    (d.ontology, d.query)
                }
                "self-treatment" => {
                    let d = self_treatment(DomainScale::small());
                    (d.ontology, d.query)
                }
                other => {
                    eprintln!("unknown domain {other}");
                    return ExitCode::FAILURE;
                }
            };
            let v = ont.vocab();

            // a small demo crowd: for figure1 use the Table-3 histories;
            // for generated domains plant a few habits over the domain's
            // vocabulary
            let crowd_members: Vec<SimulatedMember> = if domain == "figure1" {
                let [d1, d2] = figure1::personal_dbs(&ont);
                let mut tx = d1;
                for _ in 0..3 {
                    tx.extend(d2.iter().cloned());
                }
                (0..members.clamp(1, 20) as u64)
                    .map(|i| {
                        SimulatedMember::new(
                            PersonalDb::from_transactions(tx.clone()),
                            MemberBehavior::default(),
                            AnswerModel::Exact,
                            i,
                        )
                    })
                    .collect()
            } else {
                let fact = |s: &str, r: &str, o: &str| v.fact(s, r, o).expect("domain term");
                let profiles = match domain.as_str() {
                    "travel" => vec![
                        HabitProfile {
                            facts: vec![
                                fact("ActivityKind5", "doAt", "Attraction1"),
                                fact("Snack1", "eatAt", "Restaurant1"),
                            ],
                            adoption: 0.95,
                            frequency: 0.6,
                        },
                        HabitProfile {
                            facts: vec![
                                fact("ActivityKind7", "doAt", "Attraction2"),
                                fact("Snack2", "eatAt", "Restaurant2"),
                            ],
                            adoption: 0.7,
                            frequency: 0.4,
                        },
                    ],
                    "culinary" => vec![
                        HabitProfile {
                            facts: vec![fact("DishKind4", "servedWith", "DrinkKind3")],
                            adoption: 0.9,
                            frequency: 0.55,
                        },
                        HabitProfile {
                            facts: vec![
                                fact("DishKind11", "servedWith", "DrinkKind7"),
                                fact("DishKind12", "servedWith", "DrinkKind7"),
                            ],
                            adoption: 0.7,
                            frequency: 0.45,
                        },
                    ],
                    _ => vec![
                        HabitProfile {
                            facts: vec![fact("RemedyKind3", "takenFor", "SymptomKind2")],
                            adoption: 0.85,
                            frequency: 0.5,
                        },
                        HabitProfile {
                            facts: vec![fact("RemedyKind7", "takenFor", "SymptomKind5")],
                            adoption: 0.6,
                            frequency: 0.35,
                        },
                    ],
                };
                generate(
                    &profiles,
                    &PopulationConfig {
                        members,
                        answer_model: AnswerModel::Bucketed5,
                        seed,
                        ..Default::default()
                    },
                )
            };

            let engine = Oassis::new(&ont);
            let cfg = MiningConfig {
                threshold: Some(theta),
                seed,
                ..Default::default()
            };
            let request = QueryRequest::new(&query).with_mining(cfg);
            let answer = match engine.run(
                &request,
                &mut SimulatedCrowd::new(v, crowd_members),
                &FixedSampleAggregator { sample_size: 5 },
            ) {
                Ok(outcome) => outcome.into_patterns().expect("pattern query"),
                Err(e) => {
                    eprintln!("query failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "domain {domain}, Θ = {theta}: {} questions, {} MSPs ({} valid), complete: {}",
                answer.outcome.mining.questions,
                answer.outcome.mining.msps.len(),
                answer.outcome.mining.valid_msps.len(),
                answer.outcome.mining.complete
            );
            for a in &answer.answers {
                println!("  • {a}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
