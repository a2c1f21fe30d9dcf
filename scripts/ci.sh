#!/usr/bin/env bash
# The full CI gate, runnable locally. Everything must pass offline —
# the workspace has no crates.io dependencies by policy (DESIGN.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Failover/restart focus cells: the pinned render-rank-kill seeds and the
# checkpoint kill+resume differential run as targeted jobs. A blanket
# QUAKEVIZ_FAULTS plan cannot script render/output deaths (the env
# sanitizer drops them so timing-sensitive suites stay meaningful), so CI
# pins these schedules explicitly here.
run_fault_focus() {
    case "$1" in
        render-kill-404)
            cargo test -q --release --test fault_injection pinned_seed_render_kill_404 ;;
        render-kill-505)
            cargo test -q --release --test fault_injection pinned_seed_render_kill_505 ;;
        checkpoint-restart)
            cargo test -q --release --test checkpoint_restart ;;
        elastic-skew)
            cargo test -q --release --test elastic skewed_load ;;
        elastic-controller-kill)
            cargo test -q --release --test elastic controller_kill ;;
        elastic-resume)
            cargo test -q --release --test elastic resume_across ;;
        cache-coherence)
            cargo test -q --release --test cache_coherence ;;
        cache-properties)
            cargo test -q --release --test properties -- \
                block_cache_lru_matches_shadow_model \
                stripe_to_ost_mapping_is_exact_and_round_robin_balanced \
                frame_key_fuzz_never_serves_stale_and_always_hits_identical ;;
        rejoin-render)
            cargo test -q --release --test fault_injection -- \
                render_rank_rejoin_and_rekill_keep_frames_bit_identical \
                input_rank_rejoin_keeps_frames_bit_identical \
                slow_ranks_below_heartbeat_deadline_never_false_positive ;;
        rejoin-elastic)
            cargo test -q --release --test elastic -- \
                windowed_rejoin_readmits_through_the_tick \
                rejoin_across_checkpoint_resume_splices_bit_identical ;;
        rejoin-spare)
            cargo test -q --release --test elastic spare_pool_join ;;
        chaos-soak)
            cargo test -q --release --test chaos_soak ;;
        *)
            echo "unknown QUAKEVIZ_FAULT_FOCUS cell: $1" >&2
            exit 2 ;;
    esac
}
if [[ -n "${QUAKEVIZ_FAULT_FOCUS:-}" ]]; then
    echo "==> fault focus cell ${QUAKEVIZ_FAULT_FOCUS}"
    run_fault_focus "${QUAKEVIZ_FAULT_FOCUS}"
    echo "CI OK (focus cell ${QUAKEVIZ_FAULT_FOCUS})"
    exit 0
fi

# Bench smoke: regenerate the quick-mode BENCH_*.json baselines, schema-
# validate them, and diff against the committed files with a generous 3x
# tolerance (shared CI runners are noisy; the gate exists to catch
# order-of-magnitude regressions and schema drift, not percent-level
# jitter). Fresh files land in out/bench-smoke so the committed baselines
# stay untouched; regenerate those deliberately with
# `cargo run --release -p quakeviz-bench --bin bench-baseline -- --quick`.
run_bench_smoke() {
    cargo build --release -q -p quakeviz-bench
    target/release/bench-baseline --quick --out out/bench-smoke
    target/release/bench-baseline --validate \
        out/bench-smoke/BENCH_pipeline.json \
        out/bench-smoke/BENCH_render.json \
        out/bench-smoke/BENCH_io.json \
        out/bench-smoke/BENCH_wire.json
    for area in pipeline render io wire; do
        echo "==> bench compare (${area})"
        target/release/pipeline-report --compare \
            "BENCH_${area}.json" "out/bench-smoke/BENCH_${area}.json" --tolerance 3.0
    done
}
if [[ -n "${QUAKEVIZ_BENCH_SMOKE:-}" ]]; then
    echo "==> bench smoke cell"
    run_bench_smoke
    echo "CI OK (bench smoke)"
    exit 0
fi

# Benchmark self-checks: perfbench/ is a Cargo package of its own (its
# own [workspace], path deps on crates/*), so `cargo test --workspace`
# never builds it. Its unit tests (steady-window arithmetic, oracle and
# thumbnail checks, seed determinism, result-line shape) and the
# BENCHMARK.json contract test run here.
run_perfbench_checks() {
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    python3 perfbench/test_contract.py
}
if [[ -n "${QUAKEVIZ_PERFBENCH_CHECKS:-}" ]]; then
    echo "==> perfbench self-checks cell"
    run_perfbench_checks
    echo "CI OK (perfbench self-checks)"
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy (skipped: not installed)"
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

# Release-mode test pass over the trace matrix: the deterministic harness
# (prefetch equivalence, property tests, overlap invariants) must hold
# both with spans off and with the detailed QUAKEVIZ_TRACE auto spans on.
# An externally pinned QUAKEVIZ_TRACE (the CI job matrix) runs just that
# cell; locally both cells run.
if [[ -n "${QUAKEVIZ_TRACE+x}" ]]; then
    echo "==> cargo test --release (QUAKEVIZ_TRACE=${QUAKEVIZ_TRACE} QUAKEVIZ_FAULTS=${QUAKEVIZ_FAULTS:-} QUAKEVIZ_CODEC=${QUAKEVIZ_CODEC:-} QUAKEVIZ_CACHE=${QUAKEVIZ_CACHE:-})"
    cargo test --workspace -q --release
else
    for trace in 0 1; do
        echo "==> cargo test --release (QUAKEVIZ_TRACE=${trace})"
        QUAKEVIZ_TRACE="${trace}" cargo test --workspace -q --release
    done
fi

# Fault matrix: the whole release suite must also pass under a
# deterministic environment-injected fault plan (read faults only —
# message loss and rank death need per-test deadlines and topologies, and
# are exercised by tests/fault_injection.rs). Every differential oracle in
# the suite still demands bit-identical frames, so this proves the
# retry/recovery machinery is invisible when it wins. An externally
# pinned QUAKEVIZ_FAULTS (the CI job matrix) is covered by the release
# pass above; locally all three seeds run.
if [[ -z "${QUAKEVIZ_FAULTS:-}" && -z "${QUAKEVIZ_TRACE+x}" ]]; then
    for spec in \
        "seed=101,read_transient=0.02,read_slow=0.03,slow_factor=2" \
        "seed=202,read_corrupt=0.02,read_transient=0.02" \
        "seed=303,read_transient=0.03,read_corrupt=0.01,read_slow=0.02,slow_factor=2"; do
        echo "==> cargo test --release (QUAKEVIZ_FAULTS=${spec})"
        QUAKEVIZ_FAULTS="${spec}" QUAKEVIZ_TRACE=0 cargo test --workspace -q --release
    done
    # Codec matrix: the whole release suite must also pass with a wire
    # codec (and temporal deltas) injected through QUAKEVIZ_CODEC. Every
    # differential oracle still demands bit-identical frames, so these
    # cells prove the codec layer is invisible to everything above it.
    # Tests that pin .wire_spec() explicitly (the raw baselines of the
    # delta/codec oracles) are unaffected by the env. An externally
    # pinned QUAKEVIZ_CODEC (the CI job matrix) is covered by the
    # release pass above; locally all cells run.
    for codec in \
        "raw,delta,keyframe=3" \
        "rle" \
        "rle,delta,keyframe=3" \
        "shuffle" \
        "shuffle,delta,keyframe=4"; do
        echo "==> cargo test --release (QUAKEVIZ_CODEC=${codec})"
        QUAKEVIZ_CODEC="${codec}" QUAKEVIZ_TRACE=0 cargo test --workspace -q --release
    done
    # Cache cell: the whole release suite must also pass with a blanket
    # per-run cache tier armed through QUAKEVIZ_CACHE. Every run gets a
    # fresh tier (no warmth crosses runs without an explicit
    # .cache_tier), so every differential oracle still demands frames
    # bit-identical to its cache-off twin — the cell proves the tier is
    # invisible above the reader. Warm-replay coherence is exercised by
    # the cache-coherence focus cell, which shares tiers explicitly.
    echo "==> cargo test --release (QUAKEVIZ_CACHE=1)"
    QUAKEVIZ_CACHE=1 QUAKEVIZ_TRACE=0 cargo test --workspace -q --release
    # the focus cells CI runs as dedicated jobs, replayed here for parity
    for cell in render-kill-404 render-kill-505 checkpoint-restart \
        elastic-skew elastic-controller-kill elastic-resume \
        rejoin-render rejoin-elastic rejoin-spare chaos-soak \
        cache-coherence cache-properties; do
        echo "==> fault focus cell ${cell}"
        run_fault_focus "${cell}"
    done
    echo "==> bench smoke"
    run_bench_smoke
    echo "==> perfbench self-checks"
    run_perfbench_checks
fi

echo "CI OK"
