#!/usr/bin/env bash
# The offline CI gate: everything here must pass without network access
# (the workspace, including the `seqwm-bench` harness, has no registry
# dependencies).
#
#   scripts/ci.sh          # full gate: build, test, bench, clippy, fmt
#   scripts/ci.sh quick    # build + test only

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --features fault-injection (fault-tolerance differential)"
cargo test -q --features fault-injection --test fault_injection
cargo test -q --features fault-injection --test fuzz_smoke
cargo test -q -p seqwm-explore --features fault-injection

echo "==> out-of-core spill (sb-ring-4: spilled run must match in-RAM bit-for-bit)"
# The spilled run pushes every eligible visited shard to disk
# (--spill-budget-mb 0) and must report the exact same states, dedup
# hits, transitions, and behavior set as the in-RAM run — spilling is a
# representation change, never a semantic one. The disk-fault rerun
# (torn writes, read errors, ENOSPC at fixed seeds) lives in the
# spill_differential suite below and is gated on zero crashes and
# unchanged verdicts.
spill_tmp="$(mktemp -d)"
for i in 0 1 2 3; do
    next=$(( (i + 1) % 4 ))
    printf 'store[rlx](sr4_x%d, 1); a := load[rlx](sr4_x%d); return a;' "$i" "$next" \
        > "$spill_tmp/t$i.lit"
done
run_sb4() {
    # Everything but the timing line and the spill counters is
    # schedule-independent and must be byte-identical.
    target/release/seqwm explore "$spill_tmp"/t0.lit "$spill_tmp"/t1.lit \
        "$spill_tmp"/t2.lit "$spill_tmp"/t3.lit --max-states 8000 --stats "$@" \
        | grep -v '^workers:' | grep -v '^spill:'
}
run_sb4 > "$spill_tmp/base.out"
run_sb4 --spill-dir "$spill_tmp/shards" --spill-budget-mb 0 > "$spill_tmp/spill.out"
if ! diff -u "$spill_tmp/base.out" "$spill_tmp/spill.out"; then
    echo "spilled sb-ring-4 run diverged from the in-RAM run"
    exit 1
fi
rm -rf "$spill_tmp"
cargo test -q --features fault-injection --test spill_differential

echo "==> por-soundness (reduction on/off behavior equality + planted-bug detection)"
# The battery runs every ReductionRules toggle (sleep/ample/na-write/
# shared-read/atomic-write) individually and together, raw engine and
# canonical PS^na adapter, at fixed budgets — all behavior sets must
# equal the unreduced/legacy baselines. The planted-bug leg proves the
# methodology detects an unsound independence rule.
cargo test -q --test por_soundness
cargo test -q --features fault-injection --test validation_catches_bugs planted_por_bug

echo "==> model-differential (cross-backend behavior equality under LDRF gates)"
# Release profile: the corpus leg runs unreduced LDRF scans plus a full
# PS^na enumeration per gated case, which is 5x slower in debug. The
# fault-injection variant adds the planted-unsound backend leg: a
# deliberately behavior-dropping backend must diverge from every sound
# one, proving the differential methodology has teeth.
cargo test -q --release --test model_differential
cargo test -q --release --features fault-injection --test model_differential

echo "==> refine-differential (simple refinement: product walk vs enumeration oracle)"
# Every verdict of the memoized product walk behind `refines_simple` is
# compared with the enumerate-then-compare oracle on the transformation
# corpus (every written-set quantification, three step budgets) and on
# generated programs paired with each pass's output; every product
# counterexample is re-checked against the enumerated behavior sets.
# Release profile: a debug build checks only a prefix of the generated
# inputs.
cargo test -q --release --test refine_differential

echo "==> optimizer conformance battery (validated passes + planted refutations)"
# Every pass over the litmus corpus and generated programs, each rewrite
# pushed through its translation-validation obligation, plus end-to-end
# memo-cache determinism (cached and fresh verdicts must agree). The
# fault-injection variant adds the planted-unsound leg: one deliberately
# broken sibling per new pass family, every one of which the validator
# must refute. Release profile: the PS^na differential obligations run
# a bounded exploration per changed stage.
cargo test -q --release --test opt_validation
cargo test -q --release --features fault-injection --test opt_validation
cargo test -q --release --features chaos --test opt_validation cache_chaos
cargo test -q --release -p seqwm-opt --features fault-injection
cargo test -q --release -p seqwm-opt --test pass_props

echo "==> seqwm fuzz (fixed-seed differential campaign over the real passes)"
# Time-boxed by deterministic budgets (SEQ fuel + engine deadline), not
# wall-clock: pathological cases quarantine as incidents, which exit 0.
# Only a genuine oracle violation (exit 8) fails the gate.
fuzz_corpus="$(mktemp -d)"
bench_out="$(mktemp -d)"
trap 'rm -rf "$fuzz_corpus" "$bench_out"' EXIT
target/release/seqwm fuzz --cases 100 --seed 11 --workers 2 \
    --corpus "$fuzz_corpus" --seq-fuel 10000 --deadline-ms 500

echo "==> seqwm serve (end-to-end smoke + daemon probe, hard 300s box)"
# The serve_smoke suite spawns the real daemon over TCP: round trip,
# persistent-cache hit, budget errors, SIGKILL + checkpoint resume, and
# the exit-code contract (2 usage / 10 serve). The explicit timeout is
# the backstop against a wedged daemon holding CI hostage — the tests
# themselves finish in seconds.
timeout 300 cargo test -q --test serve_smoke

# Liveness probe against a fresh daemon: proves the release binary's
# serve path works outside the test harness (bind, stats round trip,
# clean shutdown), again time-boxed.
serve_state="$(mktemp -d)"
target/release/seqwm serve --port 0 --state-dir "$serve_state" \
    > "$serve_state/stdout" &
serve_pid=$!
for _ in $(seq 1 50); do
    serve_addr="$(sed -n 's/^seqwm-serve listening on //p' "$serve_state/stdout")"
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
[ -n "$serve_addr" ] || { echo "daemon never reported an address"; exit 1; }
timeout 30 target/release/seqwm serve --probe "$serve_addr"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -rf "$serve_state"

echo "==> seqwm serve-chaos (hostile clients, overload, drain, corrupt state)"
# The chaos suite drives a fixed-seed fault proxy (torn frames,
# disconnects, stalls, garbage) and FileChaos corruption at the real
# daemon, plus the slow-loris / oversized-frame / overload / drain
# legs. Deterministic seeds: a failure replays identically anywhere.
timeout 300 cargo test -q --features chaos --test serve_chaos

# Short soak, same fixed seed, gated on exactly one thing: the daemon
# never crashes while concurrent clients misbehave.
timeout 120 cargo test -q --features chaos --test serve_chaos -- --ignored

echo "==> seqwm bench (quick suite + regression gate vs committed baseline)"
# The threshold is deliberately generous: CI machines are noisy, and a
# genuine hot-path regression shows up as a multiple, not a percentage.
# The 2ms absolute floor keeps the microsecond-scale optimizer benches
# out of the noise entirely. Exit 9 = regression, fails the gate.
target/release/seqwm bench --quick --name ci --out "$bench_out" \
    --compare benchmarks/BENCH_baseline.json --threshold 300 --min-delta-us 2000

if [ "${1:-full}" != "quick" ]; then
    echo "==> cargo clippy --all-targets -- -D warnings"
    cargo clippy --all-targets -- -D warnings

    echo "==> cargo clippy --all-targets --features fault-injection -- -D warnings"
    cargo clippy --all-targets --features fault-injection -- -D warnings

    echo "==> cargo clippy --all-targets --features chaos -- -D warnings"
    cargo clippy --all-targets --features chaos -- -D warnings

    echo "==> cargo fmt --check"
    cargo fmt --check
fi

echo "==> CI gate passed"
