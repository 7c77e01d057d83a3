//! Metric tables, the result line, and the per-run report file.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::process::Command;

use seqwm_explore::fp64;
use seqwm_json::Json;

use crate::common::{fastest, median, samples, tail, Tail};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The validated optimizer over a generated batch.
    OptValidate,
    /// PS^na exploration of the concurrent litmus corpus.
    PsnaLitmus,
    /// A closed loop of clients against the verification daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OptValidate,
        Workload::PsnaLitmus,
        Workload::ServeMixed,
    ];

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OptValidate => "opt-validate",
            Workload::PsnaLitmus => "psna-litmus",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("warm_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("decided_share", "ratio"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. Every
/// workload prints every one; a metric the workload cannot observe from
/// outside (its layer is not reached, or hides it) reads 0 and is listed
/// under `not_observed` in the report file.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("core.refine_ms", "ms"),
    ("core.refine_fuel", "count"),
    ("core.refine_enumerations", "count"),
    ("core.fuel_per_ms", "1/ms"),
    ("core.self_ms", "ms"),
    ("promising.explore_ms", "ms"),
    ("promising.states", "count"),
    ("promising.transitions", "count"),
    ("promising.promise_steps", "count"),
    ("promising.us_per_state", "us"),
    ("promising.promise_case_ms", "ms"),
    ("promising.promise_free_ms", "ms"),
    ("promising.self_ms", "ms"),
    ("explore.dedup_hits", "count"),
    ("explore.dedup_hit_rate", "ratio"),
    ("explore.sleep_skips", "count"),
    ("explore.ample_commits", "count"),
    ("explore.truncated", "count"),
    ("opt.pass_ms", "ms"),
    ("opt.rewrites", "count"),
    ("opt.obligations_seq", "count"),
    ("opt.obligations_psna", "count"),
    ("opt.validate_psna_ms", "ms"),
    ("opt.memo_hit_share", "ratio"),
    ("opt.warm_validate_ms", "ms"),
    ("opt.self_ms", "ms"),
    ("models.checker_states", "count"),
    ("models.gated_share", "ratio"),
    ("models.chosen.sc", "count"),
    ("models.chosen.scf", "count"),
    ("models.chosen.ra", "count"),
    ("models.chosen.pf", "count"),
    ("models.chosen.psna", "count"),
    ("serve.refine_p50_ms", "ms"),
    ("serve.explore_p50_ms", "ms"),
    ("serve.optimize_p50_ms", "ms"),
    ("serve.cached_p50_ms", "ms"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.refused", "count"),
    ("serve.bytes_per_req", "bytes"),
    ("serve.self_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.attributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// What one timed pass measured, before it is turned into metrics.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the pass in seconds.
    pub run_s: f64,
    /// Per-verdict latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Verdicts attempted.
    pub attempted: u64,
    /// Verdicts decided within the work budget.
    pub decided: u64,
    /// Wrong verdicts, errored calls, refused requests and deadline
    /// stops.
    pub errors: u64,
    /// Every stop reason seen, with its count.
    pub stops: BTreeMap<String, u64>,
}

impl Pass {
    /// Records one verdict's stop reason.
    pub fn stop(&mut self, reason: impl Into<String>) {
        *self.stops.entry(reason.into()).or_insert(0) += 1;
    }
}

/// The result of one benchmark process.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The timed pass.
    pub pass: Pass,
    /// Every set-up's duration in seconds; `setup_s` is the fastest.
    pub setup_s: Vec<f64>,
    /// Wall time of the warm replay in seconds.
    pub warm_s: f64,
    /// Known-answer gate failures (empty when every verdict matched).
    pub mismatches: Vec<String>,
    /// Per-layer metrics (`--trace 1` only); missing names read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-input rows: name, ms, work, verdict.
    pub rows: Vec<Json>,
    /// Workload-specific notes for the report file.
    pub notes: Vec<(String, Json)>,
    /// The spans of a traced run.
    pub spans: Option<Json>,
    /// Peak resident memory in MiB, read when the workload finished.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// The latency tail actually reported.
    pub fn latency_tail(&self) -> Tail {
        tail(&self.pass.latencies_ms)
    }

    /// The end-to-end metric values, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let p = &self.pass;
        let attempted = p.attempted.max(1) as f64;
        vec![
            fastest(&self.setup_s),
            p.run_s,
            self.warm_s,
            median(&p.latencies_ms),
            self.latency_tail().value,
            p.decided as f64 / attempted,
            (p.attempted.saturating_sub(p.errors)) as f64 / attempted,
            self.peak_rss_mb,
        ]
    }

    fn end_to_end_json(&self) -> Vec<(String, Json)> {
        END_TO_END
            .iter()
            .zip(self.end_to_end())
            .map(|(&(name, unit), v)| (name.to_string(), metric(v, unit)))
            .collect()
    }

    fn per_layer_json(&self) -> Vec<(String, Json)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric(v, unit))
            })
            .collect()
    }

    /// Whether the known-answer gate passed and nothing errored.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.pass.errors == 0
    }

    /// The last line of standard output.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            self.per_layer_json()
        } else {
            self.end_to_end_json()
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.pass.attempted)),
            ("failed", Json::num(self.pass.errors)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The full report: environment stamp, every metric, stop reasons,
    /// notes, and per-input rows.
    pub fn report(&self, workload: Workload, seed: u64, seconds: u64, trace: bool) -> Json {
        let t = self.latency_tail();
        let mut fields = vec![
            ("schema", Json::str("seqwm-perfbench/1")),
            ("workload", Json::str(workload.name())),
            ("seed", Json::num(seed)),
            ("seconds", Json::num(seconds)),
            ("trace", Json::Bool(trace)),
            ("env", environment()),
            ("correct", Json::Bool(self.correct())),
            (
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|m| Json::str(m.clone()))
                        .collect(),
                ),
            ),
            ("end_to_end", Json::Obj(self.end_to_end_json())),
            ("setup_samples_s", samples(&self.setup_s)),
            (
                "latency_tail",
                Json::obj(vec![
                    ("percentile", Json::Num(t.percentile)),
                    ("samples", Json::num(t.samples as u64)),
                    ("value_ms", Json::Num(t.value)),
                ]),
            ),
            (
                "stops",
                Json::Obj(
                    self.pass
                        .stops
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
        ];
        if trace {
            let not_observed = PER_LAYER
                .iter()
                .filter(|(name, _)| !self.layers.contains_key(name))
                .map(|(name, _)| Json::str(*name))
                .collect();
            fields.push(("per_layer", Json::Obj(self.per_layer_json())));
            fields.push(("not_observed", Json::Arr(not_observed)));
        }
        let mut doc: Vec<(String, Json)> = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        doc.extend(self.notes.iter().cloned());
        doc.push(("rows".to_string(), Json::Arr(self.rows.clone())));
        Json::Obj(doc)
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The environment a report was measured in: core count, CPU model,
/// compiler, source revision, and whether this is an optimized build.
pub fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only a checkout's own `.git` counts: git would otherwise report
    // the revision of whatever repository encloses the directory.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| format!("source-fp:{:016x}", source_fingerprint(Path::new("."))));
    Json::obj(vec![
        ("nproc", Json::num(nproc)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(rustc)),
        ("commit", Json::str(commit)),
        ("release_build", Json::Bool(!cfg!(debug_assertions))),
    ])
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

/// Fingerprint of the workspace sources (`Cargo.lock` plus every `.rs`
/// file under `crates/` and `perfbench/src/`), standing in for a commit
/// id when the checkout is not a git repository.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    let mut acc = String::new();
    if let Ok(lock) = std::fs::read_to_string(root.join("Cargo.lock")) {
        acc.push_str(&format!("{:016x}", fp64(&lock)));
    }
    for f in files {
        if let Ok(text) = std::fs::read_to_string(&f) {
            acc.push_str(&format!("{}={:016x};", f.display(), fp64(&text)));
        }
    }
    fp64(&acc)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the `BENCHMARK.json` manifest must
    /// name the same metrics with the same units.
    #[test]
    fn tables_match_the_manifest() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|a| a.as_arr(key).ok())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str(k).ok()).expect(k);
                    (s("name").to_string(), s("unit").to_string())
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|a| a.as_arr("workloads").ok())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str("name").ok())
                    .expect("name")
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
