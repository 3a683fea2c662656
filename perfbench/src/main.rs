//! The benchmark command. Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine|serve|recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`).
//! Exits non-zero when any op failed or any output check did not hold.

// audit: allow-file(D2, a benchmark measures wall-clock time by design)

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use perfbench::common::{Args, Budget, SERVE_REPEATS};
use perfbench::report::{collect, Gate, Metric, Report, END_TO_END, PER_LAYER};
use perfbench::stats::latency_summary;
use perfbench::{mine, recover, serve};
use std::time::Instant;

/// What a run measured: an untraced run's metrics, or a traced run's
/// per-layer values.
enum Measured {
    Run(Vec<Metric>),
    Layers(Vec<(&'static str, f64)>),
}

fn run(args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let mut gate = Gate::default();
    let mut lines = Vec::new();
    let budget = Budget::seconds(args.seconds);
    let measured = match args.workload.as_str() {
        "mine" => {
            let (first, got) = mine::timed_setup_once(args.seed);
            let (inputs, warm) = got?;
            let values = if args.trace {
                Measured::Layers(mine::traced(&inputs, budget, &mut gate, &mut lines))
            } else {
                let mut setups = vec![first];
                let timed = mine::run(&inputs, budget, &mut gate, |gate| {
                    setups.extend(mine::sample_setup(args.seed, &warm, gate));
                });
                let ms: Vec<f64> = timed.ops.iter().map(|o| o.ms).collect();
                lines.push(latency_summary("mine ops", &ms));
                lines.push(format!("mine: {} set-ups timed", setups.len()));
                Measured::Run(mine::end_to_end(&setups, &timed))
            };
            let mut head = mine::describe(&inputs);
            head.append(&mut lines);
            lines = head;
            values
        }
        "serve" => {
            let (inputs, mut served, setup_s) =
                serve::setup_repeated(args.seed, SERVE_REPEATS, 2, &mut gate)?;
            let values = if args.trace {
                Measured::Layers(serve::traced(
                    &inputs,
                    &mut served,
                    args.seconds,
                    &mut gate,
                    &mut lines,
                )?)
            } else {
                let plan = inputs.plan(2);
                let pass = serve::tcp_pass(&inputs, &mut served, budget, 'r', &plan, &mut gate);
                lines.push(format!("serve: {} session cycles", pass.cycles.len()));
                lines.push(latency_summary("serve requests", &pass.latencies(None)));
                Measured::Run(serve::end_to_end(&setup_s, &pass))
            };
            let mut head = serve::describe(&inputs, &served, 2);
            head.append(&mut lines);
            lines = head;
            drop(served);
            values
        }
        _ => {
            let (inputs, setup_s) = recover::setup_repeated(args.seed, SERVE_REPEATS, &mut gate)?;
            lines.extend(recover::describe(&inputs));
            if args.trace {
                Measured::Layers(recover::traced(&inputs, budget, &mut gate, &mut lines))
            } else {
                let timed = recover::run(&inputs, budget, &mut gate);
                lines.push(latency_summary("recover restarts", &timed.ms));
                Measured::Run(recover::end_to_end(&setup_s, &timed))
            }
        }
    };
    let (metrics, extra) = match measured {
        Measured::Layers(values) => {
            // a layer the workload never enters reports 0; a name outside
            // the list is a harness bug
            if let Some((name, _)) = values
                .iter()
                .find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
            {
                return Err(format!("unknown per-layer metric {name}"));
            }
            let filled: Vec<(&str, f64)> = PER_LAYER
                .iter()
                .map(|(name, _)| {
                    let v = values.iter().find(|(n, _)| n == name).map_or(0.0, |p| p.1);
                    (*name, v)
                })
                .collect();
            (collect(&PER_LAYER, &filled)?, Vec::new())
        }
        Measured::Run(all) => {
            let values: Vec<(&str, f64)> = all.iter().map(|m| (m.name, m.value)).collect();
            let gated = collect(&END_TO_END, &values)?;
            // measured and printed, but not in the JSON line
            let extra = all
                .into_iter()
                .filter(|m| !END_TO_END.iter().any(|(n, _)| *n == m.name))
                .collect();
            (gated, extra)
        }
    };
    lines.insert(
        0,
        format!(
            "perfbench workload={} seed={} seconds={} trace={} ({:.1} s wall)",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            start.elapsed().as_secs_f64()
        ),
    );
    Ok(Report {
        gate,
        metrics,
        extra,
        lines,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json_line());
            if !report.gate.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
