//! The SPROUT benchmark. One command runs one named workload, checks every
//! answer, and prints the result line; `--trace 1` gives the per-layer split
//! instead. See `README.md` in this directory.
//!
//! ```text
//! sprout-ledger --workload <paper-sf0.1|serve-sf0.01|unsafe-sf0.01>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```

mod calib;
mod engine;
mod http;
mod layers;
mod library;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["paper-sf0.1", "serve-sf0.01", "unsafe-sf0.01"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Writes the span dump and the full per-layer result under the build
/// directory of the checkout.
pub fn write_trace_files(args: &Args, spans: &[trace::Span], layers: &str, log: &mut Vec<String>) {
    let dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("ledger-trace");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let spans_path = dir.join(format!("{stem}-spans.json"));
    let layers_path = dir.join(format!("{stem}-layers.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&spans_path, trace::dump_json(spans)))
        .and_then(|()| std::fs::write(&layers_path, layers));
    log.push(match written {
        Ok(()) => format!(
            "  {} spans in {}; every per-layer metric in {}",
            spans.len(),
            spans_path.display(),
            layers_path.display()
        ),
        Err(e) => format!("  trace files not written to {}: {e}", dir.display()),
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sprout-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let mut log = Vec::new();
    let outcome = match args.workload.as_str() {
        "paper-sf0.1" => library::run(
            &library::LibraryWorkload {
                sf: 0.1,
                setups: 3,
                catalogs: 1,
                ops: library::paper_ops(),
                repeats: library::paper_repeats,
                known_failures: Vec::new(),
            },
            &args,
            &mut log,
        ),
        "unsafe-sf0.01" => library::run(
            &library::LibraryWorkload {
                sf: 0.01,
                setups: 5,
                catalogs: 5,
                ops: library::unsafe_ops(),
                repeats: |_| 1,
                known_failures: library::unsafe_known_failures(),
            },
            &args,
            &mut log,
        ),
        _ => serve::run(&args, &mut log),
    };
    eprintln!(
        "== {} seed {} ({}s, {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for line in &log {
        eprintln!("{line}");
    }
    if !args.trace {
        for m in &outcome.metrics {
            eprintln!("  {:<22} {:>12.6} {}", m.name, m.value, m.unit);
        }
    }
    for m in &outcome.mismatches {
        eprintln!("  ANSWER MISMATCH: {m}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
