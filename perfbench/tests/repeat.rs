//! Exact-repeat check: two traced runs of one workload with one seed
//! must report identical work counters, so a later work regression
//! shows as a count, independent of timing noise.
//!
//! Each run is its own process (the `explore::counters` statics are
//! process-global) at the smallest size, `--seconds 1`.

use std::path::{Path, PathBuf};
use std::process::Command;

use seqwm_json::Json;
use seqwm_perfbench::Workload;

/// Counters that must repeat exactly.
const EXACT: [&str; 6] = [
    "core.refine_fuel",
    "core.refine_enumerations",
    "promising.states",
    "promising.transitions",
    "promising.promise_steps",
    "opt.rewrites",
];

fn run(dir: &Path, workload: Workload) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_seqwm-perfbench"))
        .current_dir(dir)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = dir.join(format!(".perfbench/report-{}-3-1.json", workload.name()));
    let text = std::fs::read_to_string(&report).expect("report written");
    Json::parse(&text).expect("report parses")
}

fn value(report: &Json, section: &str, name: &str) -> f64 {
    match report
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(v)) => *v,
        other => panic!("{section}.{name}: {other:?}"),
    }
}

#[test]
fn work_counters_repeat_exactly() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repeat");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for w in Workload::ALL {
        let (a, b) = (run(&dir, w), run(&dir, w));
        for name in EXACT {
            assert_eq!(
                value(&a, "per_layer", name),
                value(&b, "per_layer", name),
                "{w}: {name} differs between runs"
            );
        }
        let decided = value(&a, "end_to_end", "decided_share");
        assert_eq!(decided, value(&b, "end_to_end", "decided_share"), "{w}");
        assert_eq!(decided, 1.0, "{w}: every verdict is decided within budget");
        assert_eq!(a.get("correct"), Some(&Json::Bool(true)), "{w}");
    }
}
