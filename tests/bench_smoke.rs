//! Smoke tests for the `seqwm-bench` subsystem and the `seqwm bench`
//! CLI: schema stability, run-to-run determinism of counters and
//! metadata, the `--compare` regression gate (both the library entry
//! point and the exit-code contract of the binary), and the parametric
//! scaling families.
//!
//! The perf counters sampled by the suite are process-global, so every
//! in-process `run_suite` call and every in-process exploration goes
//! through [`suite_lock`] — work running concurrently with a suite would
//! show up in its counter deltas.

use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

use promising_seq::bench::report::{compare, BenchReport, BenchResult, CompareConfig, SCHEMA};
use promising_seq::bench::suite::{list_suite, run_suite, SuiteConfig};
use promising_seq::bench::Timing;
use promising_seq::litmus::scaling::mp_chain;
use promising_seq::promising::search::engine_config;

fn suite_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .expect("bench suite lock poisoned")
}

/// A scratch directory unique to this test process, cleaned up by the
/// caller.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("seqwm-bench-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A hand-built report with two benches at the given medians — lets the
/// gate tests run without measuring anything.
fn synthetic_report(medians_ns: &[(&str, &str, u64)]) -> BenchReport {
    let mut report = BenchReport::new();
    for &(group, name, median_ns) in medians_ns {
        report.results.push(BenchResult {
            group: group.into(),
            name: name.into(),
            iters: 3,
            warmup: 1,
            timing: Timing {
                median_ns,
                mad_ns: median_ns / 100,
                mean_ns: median_ns,
                min_ns: median_ns,
                max_ns: median_ns,
                rejected: 0,
            },
            samples_ns: vec![median_ns; 3],
            counters: vec![("states".into(), 10)],
            meta: vec![("workers".into(), 1)],
        });
    }
    report
}

#[test]
fn quick_suite_report_is_schema_versioned_and_roundtrips() {
    let _guard = suite_lock();
    let report = run_suite(&SuiteConfig {
        quick: true,
        filter: Some("optimize/".into()),
        iters: 2,
        warmup: 0,
        ..SuiteConfig::default()
    });
    assert_eq!(report.schema, SCHEMA);
    assert_eq!(
        report.schema, "seqwm-bench/1",
        "schema identifier is pinned"
    );
    assert_eq!(report.env.debug_assertions, cfg!(debug_assertions));
    assert!(!report.results.is_empty());
    for r in &report.results {
        assert_eq!(r.group, "optimize");
        assert_eq!(r.samples_ns.len(), 2);
        assert_eq!(r.timing, Timing::of(&r.samples_ns));
    }
    let parsed = BenchReport::from_json(&report.to_json()).expect("report round-trips");
    assert_eq!(parsed, report);
}

#[test]
fn suite_counters_and_meta_are_deterministic_across_runs() {
    let _guard = suite_lock();
    let cfg = SuiteConfig {
        quick: true,
        filter: Some("refine/".into()),
        iters: 1,
        warmup: 0,
        ..SuiteConfig::default()
    };
    let first = run_suite(&cfg);
    let second = run_suite(&cfg);
    let ids = |r: &BenchReport| r.results.iter().map(BenchResult::id).collect::<Vec<_>>();
    assert_eq!(ids(&first), ids(&second), "bench set must be stable");
    assert!(!first.results.is_empty());
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a.counters, b.counters, "{}: counters drifted", a.id());
        assert_eq!(a.meta, b.meta, "{}: metadata drifted", a.id());
        assert!(
            a.counters
                .iter()
                .any(|(k, v)| k == "refine_fuel_spent" && *v > 0),
            "{}: refinement ran but spent no fuel: {:?}",
            a.id(),
            a.counters
        );
    }
}

#[test]
fn compare_passes_identical_reports_and_fails_slowed_ones() {
    let base = synthetic_report(&[
        ("explore", "sb-rlx", 4_000_000),
        ("optimize", "pipeline-loopy-20", 50_000_000),
    ]);
    let cfg = CompareConfig::default();

    let same = compare(&base, &base, &cfg);
    assert!(same.passed());
    assert!(same.regressions.is_empty() && same.missing.is_empty() && same.added.is_empty());

    // Slow every bench 10× — far past the 25% threshold and the
    // absolute floor.
    let mut slowed = base.clone();
    for r in &mut slowed.results {
        r.timing.median_ns *= 10;
    }
    let regressed = compare(&base, &slowed, &cfg);
    assert!(!regressed.passed());
    assert_eq!(regressed.regressions.len(), 2);
    assert!(regressed.regressions.iter().all(|d| d.pct > 800.0));

    // A microsecond-scale bench doubling stays under the absolute
    // floor: percentage alone must not fail the gate.
    let tiny_base = synthetic_report(&[("explore", "tiny", 1_000)]);
    let tiny_cur = synthetic_report(&[("explore", "tiny", 2_000)]);
    assert!(compare(&tiny_base, &tiny_cur, &cfg).passed());
}

#[test]
fn cli_bench_gate_exit_codes_and_written_report() {
    let dir = scratch_dir("cli");
    let fast = synthetic_report(&[("explore", "sb-rlx", 1_000_000)]);
    let mut slow = fast.clone();
    slow.results[0].timing.median_ns = 10_000_000;
    let fast_path = dir.join("fast.json");
    let slow_path = dir.join("slow.json");
    std::fs::write(&fast_path, fast.to_json()).expect("write baseline");
    std::fs::write(&slow_path, slow.to_json()).expect("write current");

    // Identical reports: the gate passes with exit 0.
    let ok = Command::new(env!("CARGO_BIN_EXE_seqwm"))
        .args(["bench", "--compare"])
        .arg(&fast_path)
        .arg("--current")
        .arg(&fast_path)
        .output()
        .expect("run seqwm bench --compare");
    assert!(ok.status.success(), "identical compare failed: {ok:?}");

    // A 10× slowdown past threshold and floor: exit code 9 (Bench).
    let bad = Command::new(env!("CARGO_BIN_EXE_seqwm"))
        .args(["bench", "--compare"])
        .arg(&fast_path)
        .arg("--current")
        .arg(&slow_path)
        .args(["--min-delta-us", "10"])
        .output()
        .expect("run seqwm bench --compare (regressed)");
    assert_eq!(
        bad.status.code(),
        Some(9),
        "regression must exit 9: {bad:?}"
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("REGRESSED"),
        "no REGRESSED line in {stdout}"
    );

    // An unreadable report is also the Bench error class.
    let junk_path = dir.join("junk.json");
    std::fs::write(&junk_path, "{\"schema\":\"other/9\"}").expect("write junk");
    let junk = Command::new(env!("CARGO_BIN_EXE_seqwm"))
        .args(["bench", "--compare"])
        .arg(&junk_path)
        .arg("--current")
        .arg(&fast_path)
        .output()
        .expect("run seqwm bench --compare (junk baseline)");
    assert_eq!(
        junk.status.code(),
        Some(9),
        "bad schema must exit 9: {junk:?}"
    );

    // End to end: run a tiny filtered suite through the binary and
    // parse the file it writes.
    let run = Command::new(env!("CARGO_BIN_EXE_seqwm"))
        .args([
            "bench",
            "--quick",
            "--filter",
            "optimize/pipeline-loopy",
            "--iters",
            "1",
            "--warmup",
            "0",
            "--name",
            "smoke",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("run seqwm bench");
    assert!(run.status.success(), "bench run failed: {run:?}");
    let written = std::fs::read_to_string(dir.join("BENCH_smoke.json")).expect("report written");
    let parsed = BenchReport::from_json(&written).expect("written report parses");
    assert_eq!(parsed.schema, SCHEMA);
    assert!(parsed
        .results
        .iter()
        .all(|r| r.id().contains("pipeline-loopy")));
    assert!(!parsed.results.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scaling_families_grow_with_n_and_appear_in_the_suite() {
    // The suite registers the parametric families at multiple worker
    // counts (list only — running the full suite here would be slow).
    let ids = list_suite(&SuiteConfig::default());
    for id in [
        "scaling/mp-chain-3/w1",
        "scaling/mp-chain-3/w8",
        "scaling/mp-chain-4/w2",
        "scaling/sb-ring-3",
        "scaling/sb-ring-3/spill",
        "scaling/na-disjoint-3/full",
        "scaling/na-disjoint-3/reduced",
    ] {
        assert!(ids.iter().any(|i| i == id), "{id} missing from {ids:?}");
    }

    // And the families really scale: state counts grow with N. The
    // explorations bump the process-global counters, so they hold the
    // suite lock like a suite run.
    let _guard = suite_lock();
    let small = mp_chain(2);
    let big = mp_chain(3);
    let e_small = small.explore(&engine_config(&small.config()));
    let e_big = big.explore(&engine_config(&big.config()));
    assert!(
        e_big.stats.states > e_small.stats.states,
        "mp-chain states must grow with N ({} vs {})",
        e_small.stats.states,
        e_big.stats.states
    );
}
