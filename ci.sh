#!/usr/bin/env bash
# Tier-1 gate + one ignored figure-driver smoke. Mirrors what a CI job
# would run; keep it green before merging.
#
#   ./ci.sh          # build + full default test suite + ignored smoke
#   SKIP_IGNORED=1 ./ci.sh   # tier-1 only
set -euo pipefail
cd "$(dirname "$0")"

# ---- Static analysis (DESIGN.md §10): fail fast, before anything
# else builds.
echo "== static analysis: fmt --check =="
cargo fmt --check

echo "== static analysis: clippy -D warnings =="
# Clippy carries the determinism rules R1-R5, R9, R11 and R12
# (clippy.toml plus the crate-root opt-ins); the expect fixtures in
# crates/sim/src/clippy_fixtures.rs fail this stage if a clippy.toml
# entry stops matching. --workspace is what reaches the member crates'
# test targets, where those fixtures live. Curated allow-list lives in
# [workspace.lints] in Cargo.toml. R6, R8 and R12's name half are tests
# (tests/lint_rules.rs, tests/no_tick_alloc.rs) inside `cargo test -q`.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== chaos suite (10 min cap) =="
# Deterministic fault injection: zero-fault transparency vs the goldens,
# byte-identical faulted runs across reruns, the seeded wedge fixture,
# a stall burst longer than the watchdog window, and graceful QoS
# degradation under FRPU noise.
timeout 600 cargo test -q --release --test chaos

echo "== watchdog smoke: a wedged run must fail fast with a diagnostic =="
# Not a `timeout`-cap kill: the liveness watchdog itself converts the
# injected wedge into exit code 3 plus a structured JSONL diagnostic.
set +e
wd_out=$(cargo run --release -p gat-bench --bin runsim -- \
    --cpus "" --game DOOM3 --frames 50 --instr 0 --warmup 0 \
    --faults wedge=100000 --watchdog 50000 2>&1)
wd_code=$?
set -e
if [[ $wd_code -ne 3 ]]; then
    echo "watchdog smoke: expected exit code 3, got $wd_code" >&2
    echo "$wd_out" | tail -5 >&2
    exit 1
fi
if ! grep -q '"type":"watchdog_dump"' <<<"$wd_out"; then
    echo "watchdog smoke: no structured diagnostic in output" >&2
    echo "$wd_out" | tail -5 >&2
    exit 1
fi
echo "watchdog smoke: wedge caught with exit 3 + watchdog_dump diagnostic"

echo "== gat-serve fixture batch: typed outcomes + cache round trip =="
# The batch engine must turn every failure class in the fixture batch
# into a typed outcome and still exit 0, and a rerun against the same
# cache must be served entirely from it, byte-identically (DESIGN.md
# §12).
rm -rf /tmp/gat_serve_ci
mkdir -p /tmp/gat_serve_ci
timeout 600 cargo run --release -q -p gat-bench --bin gat-serve -- \
    --jobs crates/bench/fixtures/batch_smoke.jsonl \
    --out /tmp/gat_serve_ci/cold.jsonl --cache /tmp/gat_serve_ci/cache \
    --dump-dir /tmp/gat_serve_ci/dumps --shards 2
for want in \
    '"id":"healthy","outcome":"ok"' \
    '"id":"wedge","outcome":"wedged"' \
    '"id":"overbudget","outcome":"budget_exceeded","attempts":1,"budget":"cycles"' \
    '"id":"toobig","outcome":"budget_exceeded","attempts":0,"budget":"mem"' \
    '"id":"panic","outcome":"panicked"' \
    '"id":"stubborn","outcome":"wedged","attempts":3' \
    '"type":"job_spec_error"'; do
    if ! grep -qF "$want" /tmp/gat_serve_ci/cold.jsonl; then
        echo "gat-serve smoke: missing $want in the batch output" >&2
        exit 1
    fi
done
timeout 600 cargo run --release -q -p gat-bench --bin gat-serve -- \
    --jobs crates/bench/fixtures/batch_smoke.jsonl \
    --out /tmp/gat_serve_ci/warm.jsonl --cache /tmp/gat_serve_ci/cache \
    --dump-dir /tmp/gat_serve_ci/dumps --shards 2
if ! grep -qF '"cache_hits":6,"cache_stores":0' /tmp/gat_serve_ci/warm.jsonl; then
    echo "gat-serve smoke: warm rerun was not served entirely from cache" >&2
    grep '"type":"batch_summary"' /tmp/gat_serve_ci/warm.jsonl >&2 || true
    exit 1
fi
# Everything but the per-run summary counters must be byte-identical.
diff <(grep -v '"type":"batch_summary"' /tmp/gat_serve_ci/cold.jsonl) \
     <(grep -v '"type":"batch_summary"' /tmp/gat_serve_ci/warm.jsonl)
echo "gat-serve smoke: 6 typed outcomes + 1 spec error, warm run 100% cached"

echo "== one config path: runsim --json == the gat-serve payload =="
# runsim resolves its flags through the same JobSpec as a spec line
# (DESIGN.md §12), so the fixture's healthy job run both ways must write
# the same result lines.
grep -F '"id":"healthy"' crates/bench/fixtures/batch_smoke.jsonl \
    >/tmp/gat_serve_ci/healthy.jsonl
timeout 600 cargo run --release -q -p gat-bench --bin gat-serve -- \
    --jobs /tmp/gat_serve_ci/healthy.jsonl --out /tmp/gat_serve_ci/healthy_out.jsonl
timeout 600 cargo run --release -q -p gat-bench --bin runsim -- \
    --game DOOM3 --cpus 470 --instr 20000 --frames 1 --warmup 10000 \
    --json /tmp/gat_serve_ci/healthy_runsim.jsonl >/dev/null
diff <(grep -v '"type":"job_outcome"\|"type":"batch_summary"' \
        /tmp/gat_serve_ci/healthy_out.jsonl) \
     /tmp/gat_serve_ci/healthy_runsim.jsonl
echo "one config path: runsim and gat-serve wrote identical result lines"

echo "== CLI smoke: timeline, calibrate, ablate, figures (10-15 min cap each) =="
# The other simulation CLIs resolve through JobSpec like runsim, and
# timeline advances through the same checked step as try_run (DESIGN.md
# §9, §12). Each must run end to end and write every row it owes.
timeout 600 cargo run --release -q -p gat-bench --bin timeline -- \
    7 --scale 1024 --frames 3 --json /tmp/gat_ci_timeline.jsonl >/dev/null
tl_frames=$(grep -cF '"type":"frame_boundary"' /tmp/gat_ci_timeline.jsonl || true)
if [[ $tl_frames -ne 3 ]] ||
    ! tail -n 1 /tmp/gat_ci_timeline.jsonl | grep -qF '"type":"registry_snapshot"'; then
    echo "CLI smoke: timeline wrote $tl_frames/3 frame_boundary lines" \
        "or no final registry_snapshot" >&2
    exit 1
fi
# One row per Table II game (14 titles) under the header.
cal_rows=$(timeout 600 cargo run --release -q -p gat-bench --bin calibrate -- \
    games --scale 1024 | tail -n +2 | wc -l)
if [[ $cal_rows -ne 14 ]]; then
    echo "CLI smoke: calibrate games printed $cal_rows/14 game rows" >&2
    exit 1
fi
timeout 600 cargo run --release -q -p gat-bench --bin ablate -- \
    7 --scale 1024 --json /tmp/gat_ci_ablate.jsonl >/dev/null
ab_rows=$(grep -c '^{"type":"ablation_variant"' /tmp/gat_ci_ablate.jsonl || true)
if [[ $ab_rows -ne 11 ]]; then
    echo "CLI smoke: ablate wrote $ab_rows/11 ablation_variant lines" >&2
    exit 1
fi
# figures folds its tables from one gat-serve batch: one figure is one
# table line, and a job that wedges makes the whole run exit 3. The
# batch cannot stop early, so every wedged job first runs out its
# watchdog (two 50M-cycle windows): the second run takes minutes.
timeout 600 cargo run --release -q -p gat-bench --bin figures -- \
    fig3 --scale 1024 --instr 20000 --frames 1 --warmup 10000 \
    --json /tmp/gat_ci_fig3.jsonl >/dev/null
fig_tables=$(grep -c '^{"type":"table"' /tmp/gat_ci_fig3.jsonl || true)
if [[ $fig_tables -ne 1 ]]; then
    echo "CLI smoke: figures fig3 wrote $fig_tables/1 table lines" >&2
    exit 1
fi
set +e
fig_out=$(timeout 900 cargo run --release -q -p gat-bench --bin figures -- \
    fig3 --scale 1024 --instr 20000 --frames 1 --warmup 10000 \
    --json /tmp/gat_ci_fig3_wedge.jsonl --faults wedge=20000 2>&1)
fig_code=$?
set -e
if [[ $fig_code -ne 3 ]]; then
    echo "CLI smoke: figures with a wedged GPU exited $fig_code, not 3" >&2
    echo "$fig_out" | tail -3 >&2
    exit 1
fi
echo "CLI smoke: timeline 3 frames, calibrate 14 games, ablate 11 variants," \
    "figures 1 table and exit 3 on a wedge"

echo "== paranoia invariant sweep (10 min cap) =="
# Run the golden snapshot under GAT_PARANOIA=1: every tick re-checks the
# MSHR/ATU/queue/epoch invariants and the bytes must not change.
timeout 600 env GAT_PARANOIA=1 cargo test -q --release --test golden_snapshot

echo "== SMS paranoia sweep: SMS-0.9 and SMS-0 bytes unchanged (10 min cap each) =="
# No golden runs SMS, so its kept stage-1 batches are checked here: under
# GAT_PARANOIA=1 every tick re-forms them and asserts they match the
# cache, and the result lines must equal an unchecked run's.
for sched in sms09 sms0; do
    for paranoia in 0 1; do
        timeout 600 env GAT_PARANOIA=$paranoia cargo run --release -q -p gat-bench --bin runsim -- \
            --game 3DMark06HDR2 --cpus 401,462,470,471 --sched $sched --scale 1024 \
            --instr 10000 --frames 1 --warmup 100000 \
            --json /tmp/gat_ci_${sched}_paranoia$paranoia.jsonl >/dev/null 2>&1
    done
    cmp /tmp/gat_ci_${sched}_paranoia0.jsonl /tmp/gat_ci_${sched}_paranoia1.jsonl
done
echo "SMS paranoia sweep: sms09 and sms0 identical with and without GAT_PARANOIA"

echo "== benchmark byte identity (10 min cap) =="
# One short pass of the repository benchmark at its default seed. Each
# workload's result digest must match the digest the benchmark pins, and
# every job must succeed, so a change that claims to be speed-only
# cannot move a simulated byte (benchmark/README.md).
set +e
bench_out=$(timeout 600 cargo run --release -q --offline \
    --manifest-path benchmark/Cargo.toml -- run --seconds 1)
bench_code=$?
set -e
echo "$bench_out" | grep -F '"type":"bench_run"' || true
bench_matches=$(grep -cF '"digest_check":"match"' <<<"$bench_out" || true)
bench_results=$(grep -c '"correct":' <<<"$bench_out" || true)
bench_correct=$(grep -cF '"correct":true' <<<"$bench_out" || true)
if [[ $bench_code -ne 0 || $bench_matches -ne 4 || $bench_results -ne 4 ||
      $bench_correct -ne 4 ]]; then
    echo "benchmark byte identity: exit $bench_code, $bench_matches/4 digests match," \
        "$bench_correct/$bench_results results correct" >&2
    exit 1
fi
echo "benchmark byte identity: 4/4 digests match, every result correct"

echo "== benchmark tests (10 min cap) =="
# The benchmark's own suite: its metric catalog against BENCHMARK.json,
# the stability of its result digests, and its traced replica against
# the production tick loop.
timeout 600 cargo test --release -q --offline --manifest-path benchmark/Cargo.toml

echo "== sleeping cores vs the every-cycle replica: trace throttle + schedulers (10 min cap each) =="
# Production lets cores sleep behind stalled accesses; the traced
# replica ticks every core on every cycle. Over the two saturated
# workloads, every production run must reproduce the replica's
# fingerprint (benchmark/README.md, DESIGN.md §8).
for w in throttle schedulers; do
    set +e
    trace_out=$(timeout 600 cargo run --release -q --offline \
        --manifest-path benchmark/Cargo.toml -- trace --workload $w)
    trace_code=$?
    set -e
    if [[ $trace_code -ne 0 ]] || ! grep -qF '"correct":true' <<<"$trace_out"; then
        echo "trace $w: exit $trace_code, result line not correct" >&2
        grep -F '"correct":' <<<"$trace_out" >&2 || true
        exit 1
    fi
done
echo "trace: throttle and schedulers match the every-cycle replica"

echo "== hotbench perf gate (10 min cap) =="
# cycles/s of the fig1+2 driver at hotbench's compiled-in config must
# stay within 35% of the anchor in BENCH_hotpath.json; a regression
# exits 3, and an anchor recorded at another config exits 2. The gate
# only reads the tracked anchor: re-baselining on every green run would
# let sub-band regressions compound, so anchors are recorded
# deliberately (DESIGN.md §11).
timeout 600 cargo run --release -q -p gat-bench --bin hotbench

if [[ -z "${SKIP_IGNORED:-}" ]]; then
    # One representative heavyweight driver (18 smoke simulations), capped
    # so a wedged scheduler fails fast instead of hanging the pipeline.
    echo "== ignored figure smoke (fig9_10_11_driver_full_shape, 20 min cap) =="
    timeout 1200 cargo test -q --test figures_smoke \
        fig9_10_11_driver_full_shape -- --ignored
fi

echo "ci.sh: all green"
