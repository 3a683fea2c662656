//! Figures 4d–4e: pace of data collection for the travel and
//! self-treatment queries at Θ = 0.2 — the number of questions needed to
//! reach X% of (i) classified valid assignments, (ii) valid MSPs,
//! (iii) all MSPs.
//!
//! Paper shape: all three curves rise steeply near 100% ("towards the end
//! of the execution, classifying each remaining assignment requires more
//! crowd answers: these are typically isolated unclassified parts of the
//! DAG, which cannot be inferred from other assignments").

use bench::{bind_domain, print_table, questions_at_percentiles, run_domain_at, write_csv};
use oassis_core::DiscoveryKind;
use ontology::domains::{self_treatment, travel, DomainScale};

fn main() {
    let percents: Vec<usize> = (1..=10).map(|i| i * 10).collect();
    for (domain, habits, has_invalid) in [
        (travel(DomainScale::paper()), 12usize, true),
        (self_treatment(DomainScale::paper()), 6, false),
    ] {
        let bound = bind_domain(&domain);
        let mut cache = oassis_core::CrowdCache::new();
        let run = run_domain_at(
            &domain,
            &bound,
            &domain.ontology,
            &mut cache,
            0.2,
            248,
            habits,
            7,
            1,
            &telemetry::Telemetry::off(),
        );
        println!(
            "\n### {} at Θ=0.2: {} questions, {} MSPs ({} valid), {} valid assignments",
            domain.name, run.questions, run.msps, run.valid_msps, run.total_valid
        );

        // classified-valid curve: question count when X% of the valid
        // assignments became classified
        let final_total = run
            .outcome_events
            .iter()
            .filter_map(|e| match e.kind {
                DiscoveryKind::ValidClassified { total } => Some(total),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let classified_curve: Vec<Option<usize>> = percents
            .iter()
            .map(|&p| {
                let target = (p * final_total).div_ceil(100);
                run.outcome_events
                    .iter()
                    .find(|e| matches!(e.kind, DiscoveryKind::ValidClassified { total } if total >= target))
                    .map(|e| e.question)
            })
            .collect();
        let all_msps = questions_at_percentiles(&run.outcome_events, false, &percents);
        let valid_msps = questions_at_percentiles(&run.outcome_events, true, &percents);

        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, &p) in percents.iter().enumerate() {
            let mut row = vec![
                format!("{p}%"),
                classified_curve[i].map_or("–".into(), |q| q.to_string()),
                all_msps[i].map_or("–".into(), |q| q.to_string()),
            ];
            if has_invalid {
                row.insert(2, valid_msps[i].map_or("–".into(), |q| q.to_string()));
            }
            rows.push(row);
        }
        let headers: Vec<&str> = if has_invalid {
            vec![
                "% discovered",
                "classified assign.",
                "valid MSPs",
                "all MSPs",
            ]
        } else {
            vec!["% discovered", "classified assign.", "all MSPs"]
        };
        print_table(
            &format!(
                "Figure 4{} — pace of data collection ({})",
                if has_invalid { "d" } else { "e" },
                domain.name
            ),
            &headers,
            &rows,
        );
        write_csv(
            &format!("fig4_pace_{}", domain.name.replace('-', "_")),
            &headers
                .iter()
                .map(|h| h.replace(' ', "_"))
                .collect::<Vec<_>>(),
            &rows,
        );

        // qualitative check the paper makes: the tail is the expensive part
        if let (Some(Some(q50)), Some(Some(q100))) =
            (classified_curve.get(4), classified_curve.get(9))
        {
            println!(
                "  second half of the classification work costs {:.1}x the first half",
                (*q100 - *q50) as f64 / (*q50).max(1) as f64
            );
        }
    }
}
