//! Command-line entry point:
//!
//! ```text
//! seqwm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress on standard error and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). The full report, with per-input rows and the environment
//! stamp, goes to `.perfbench/report-<workload>-<seed>-<trace>.json`
//! under the working directory; a traced run also writes its spans
//! beside it. Exits 1 when a verdict misses its known answer and 2 on a
//! usage or set-up error.

use std::path::Path;
use std::process::ExitCode;

use seqwm_perfbench::common::{peak_rss_mb, Scratch};
use seqwm_perfbench::{opt_validate, psna_litmus, serve_mixed, Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn run(a: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let mut scratch =
        Scratch::new(out_dir).map_err(|e| format!("cannot create scratch directory: {e}"))?;
    match a.workload {
        Workload::OptValidate => opt_validate::run(a.seed, a.seconds, a.trace, &mut scratch),
        Workload::PsnaLitmus => psna_litmus::run(a.seed, a.seconds, a.trace),
        Workload::ServeMixed => serve_mixed::run(a.seed, a.seconds, a.trace, &mut scratch),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seqwm-perfbench: {e}");
            eprintln!(
                "usage: seqwm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(".perfbench");
    let mut outcome = match run(&args, out_dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("seqwm-perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    outcome.peak_rss_mb = peak_rss_mb();
    let stem = format!("{}-{}-{}", args.workload, args.seed, u8::from(args.trace));
    let report = outcome.report(args.workload, args.seed, args.seconds, args.trace);
    let mut written = std::fs::write(
        out_dir.join(format!("report-{stem}.json")),
        report.to_string(),
    );
    if let Some(spans) = &outcome.spans {
        written = written.and(std::fs::write(
            out_dir.join(format!("spans-{stem}.json")),
            spans.to_string(),
        ));
    }
    if let Err(e) = written {
        eprintln!("seqwm-perfbench: cannot write the report: {e}");
    }
    for m in outcome.mismatches.iter().take(20) {
        eprintln!("mismatch: {m}");
    }
    println!("{}", outcome.result_line(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
