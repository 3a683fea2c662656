//! Figures 4a–4c: crowd statistics for the travel, culinary and
//! self-treatment queries at support thresholds 0.2–0.5, plus the
//! Section-6.3 text statistics (questions-to-completion, answer-type mix,
//! baseline%).
//!
//! Reproduction notes (DESIGN.md §5): the paper's 248 human contributors
//! are replaced by simulated members over generated personal databases;
//! the ontologies are generated so the query DAGs match the paper's
//! reported sizes (4773 / 10512 / 2310-vs-2307 nodes). The threshold sweep
//! re-uses cached answers, exactly as described in Section 6.3: for each
//! threshold we report the answers *used*, while fresh crowd questions are
//! only incurred once.

use bench::{bind_domain, domain_dag_size, print_table, run_domain_at, write_csv};
use ontology::domains::{culinary, self_treatment, travel, DomainScale};

fn main() {
    let thresholds = [0.2, 0.3, 0.4, 0.5];
    // habit counts calibrated so questions-to-completion falls in the
    // paper's 340–1416 band ordering (travel most, self-treatment fewest)
    let domains = [
        (travel(DomainScale::paper()), 4773usize, 12usize),
        (culinary(DomainScale::paper()), 10512, 10),
        (self_treatment(DomainScale::paper()), 2307, 6),
    ];
    let mut summary_rows: Vec<Vec<String>> = Vec::new();

    for (domain, paper_nodes, habits) in &domains {
        let bound = bind_domain(domain);
        let dag_nodes = domain_dag_size(domain, &bound);
        println!(
            "\n### domain {} — DAG {} nodes without multiplicities (paper: {})",
            domain.name, dag_nodes, paper_nodes
        );
        let mut cache = oassis_core::CrowdCache::new();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut csv_rows: Vec<Vec<String>> = Vec::new();
        for &theta in &thresholds {
            let run = run_domain_at(
                domain,
                &bound,
                &domain.ontology,
                &mut cache,
                theta,
                248, // the paper's crowd size
                *habits,
                7,
                1,
                &telemetry::Telemetry::off(),
            );
            let baseline_pct = 100.0 * run.questions as f64 / run.baseline_questions.max(1) as f64;
            rows.push(vec![
                format!("{theta:.1}"),
                run.msps.to_string(),
                run.valid_msps.to_string(),
                run.questions.to_string(),
                format!("{baseline_pct:.1}%"),
                run.complete.to_string(),
            ]);
            csv_rows.push(vec![
                domain.name.to_owned(),
                format!("{theta}"),
                run.msps.to_string(),
                run.valid_msps.to_string(),
                run.questions.to_string(),
                format!("{baseline_pct:.2}"),
                run.baseline_questions.to_string(),
                run.complete.to_string(),
                run.undecided.to_string(),
            ]);
            if theta == 0.2 {
                let qs = &run.question_stats;
                let total = qs.total().max(1);
                summary_rows.push(vec![
                    domain.name.to_owned(),
                    dag_nodes.to_string(),
                    run.questions.to_string(),
                    run.msps.to_string(),
                    format!(
                        "{:.0}%",
                        100.0 * (qs.specialization + qs.none_of_these) as f64 / total as f64
                    ),
                    format!("{:.0}%", 100.0 * qs.none_of_these as f64 / total as f64),
                    format!("{:.0}%", 100.0 * qs.pruning as f64 / total as f64),
                ]);
            }
        }
        print_table(
            &format!(
                "Figure 4 ({}) — crowd statistics per threshold",
                domain.name
            ),
            &[
                "Θ",
                "#MSPs",
                "#valid",
                "#questions",
                "baseline%",
                "complete",
            ],
            &rows,
        );
        write_csv(
            &format!("fig4_crowd_stats_{}", domain.name.replace('-', "_")),
            &[
                "domain",
                "threshold",
                "msps",
                "valid_msps",
                "questions",
                "baseline_pct",
                "baseline_questions",
                "complete",
                "undecided",
            ],
            &csv_rows,
        );
    }

    print_table(
        "Section 6.3 summary at Θ=0.2 (paper: 340–1416 questions; 12% specialization answers, half of them none-of-these; 13% pruning)",
        &["domain", "DAG nodes", "questions", "#MSPs", "spec answers", "none-of-these", "pruning"],
        &summary_rows,
    );
    write_csv(
        "fig4_domain_summary",
        &[
            "domain",
            "dag_nodes",
            "questions",
            "msps",
            "spec_pct",
            "none_pct",
            "pruning_pct",
        ],
        &summary_rows,
    );
}
