#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest, then smoke runs of the
# quickstart example (registry + pipeline on both backends), small scenario
# sweeps (slot scheduler + determinism cross-check, including the
# intra-slot 'parallel' backend), the streaming traffic engine
# (pusch_serve on four whole-slot threads, and --list), the fading channel
# profiles and HARQ loop (TDL serve + bench_scenario_mix), the sharded serving
# engine (placement + overload policies, CLI validation, bench_capacity), a
# markdown link check over README + docs/, a bench_all --quick pass
# whose JSON reports are
# validated and diffed against the committed baseline
# (bench/baselines/quick.json, deterministic metrics only), a 3 s run of
# each gated perfbench workload against its own oracles, a
# PP_COUNT_ALLOCS build of the serving benches that gates the
# zero-steady-state-allocation workspace contract, and an ASan+UBSan build
# of the receive-chain, serving-engine, Q15 kernel and simulator suites.
# Suitable as a CI entry point; exits non-zero on any failure.
#
# CHECK_TSAN=1 additionally builds the concurrency tests (slot scheduler,
# sweep engine, traffic source, shared lazy tables, parallel + fixed
# backends, the sharded-sim differential/fuzz suites, and the HARQ-loop /
# cross-backend scenario-parity suites) under ThreadSanitizer in a
# separate build tree and runs them.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# The main build is warning-free under -Wall -Wextra; -Werror keeps it so.
cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -j "$JOBS"

echo "--- the normal transform calls no libm function ---"
# Every noise and fading draw goes through src/common/rng.cpp; its object
# must import none of log, exp, sin, cos or pow (docs/DETERMINISM.md
# section 1), so the draws are the same bits on any libm.
rng_obj="$BUILD_DIR/CMakeFiles/puschpool.dir/src/common/rng.cpp.o"
if nm -u "$rng_obj" | grep -E ' (log|exp|sin|cos|sincos|pow)[fl]?(@.*)?$'; then
  echo "$rng_obj imports a libm function"
  exit 1
fi
echo "rng.cpp.o imports no log/exp/sin/cos/pow"
# The QAM slicer rounds without libm (docs/DETERMINISM.md section 7), so
# the decisions are the same bits on any libm.
qam_obj="$BUILD_DIR/CMakeFiles/puschpool.dir/src/phy/qam.cpp.o"
if nm -u "$qam_obj" | grep -E ' l?l?round[fl]?(@.*)?$'; then
  echo "$qam_obj imports a libm rounding function"
  exit 1
fi
echo "qam.cpp.o imports no lround/round"

echo "--- markdown link check: README.md + docs/ ---"
# Every relative [text](path) link must resolve against the linking file's
# own directory - GitHub's rendering rule (anchors and external
# http(s)/mailto links are skipped).
link_errors=0
for md in README.md docs/*.md; do
  dir="$(dirname "$md")"
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [[ -z "$target" ]] && continue
    if [[ ! -e "$dir/$target" ]]; then
      echo "broken link in $md: $link"
      link_errors=$((link_errors + 1))
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done
if [[ "$link_errors" -gt 0 ]]; then
  echo "markdown link check failed: $link_errors broken link(s)"
  exit 1
fi
echo "all markdown links resolve"

echo "--- smoke: examples/quickstart ---"
"$BUILD_DIR"/examples/quickstart

echo "--- smoke: 2-worker scenario sweep (small grid, all four backends) ---"
"$BUILD_DIR"/examples/pusch_sweep --workers 2 --fft 16,64 --snr 10,20,30
"$BUILD_DIR"/examples/pusch_sweep --workers 2 --backend sim --fft 64 --snr 20
"$BUILD_DIR"/examples/pusch_sweep --workers 1 --backend parallel --intra 2 \
    --fft 16,64 --snr 10,20,30
"$BUILD_DIR"/examples/pusch_sweep --workers 1 --backend fixed --intra 2 \
    --fft 16,64 --snr 10,20,30
"$BUILD_DIR"/bench/bench_throughput_sweep --slots 1 --snr-points 2
"$BUILD_DIR"/bench/bench_parallel_scaling --workers 1,2 --fft 256 --ffts 8 \
    --rows 256 --batches 128
"$BUILD_DIR"/bench/bench_fixed_host --fft 256 --symb 4

echo "--- smoke: streaming traffic engine (pusch_serve + --list) ---"
# Streaming on four whole-slot threads on the host models, the sim
# backend's deterministic deadline accounting, and the registry catalog
# listing.
"$BUILD_DIR"/examples/pusch_serve --slots 16 --workers 4
"$BUILD_DIR"/examples/pusch_serve --backend sim --slots 6 --clock-ghz 0.02
# Two concurrent simulated machines: every --workers count prints the same
# deterministic surface (docs/DETERMINISM.md section 5).
"$BUILD_DIR"/examples/pusch_serve --backend sim --workers 2 --slots 6 \
    --clock-ghz 0.02
"$BUILD_DIR"/examples/pusch_serve --list > /dev/null
"$BUILD_DIR"/examples/pusch_sweep --list > /dev/null
"$BUILD_DIR"/examples/pusch_uplink_e2e --list > /dev/null

echo "--- smoke: cross-backend e2e slot with batched Cholesky ---"
# The slot on all four backends, two data symbols per Cholesky launch:
# exits 0 only if the payloads match across backends and BER is 0.
"$BUILD_DIR"/examples/pusch_uplink_e2e --backend all --chol-batch 2 \
    --arch mempool > /dev/null

echo "--- smoke: fading channel profiles + HARQ retransmission loop ---"
# TDL fading with Doppler and the closed HARQ loop on the streaming
# engine, on two and on four serving threads (each attempt is folded by the
# thread that decoded it), plus the scenario-mix bench's own
# worker-invariance re-check.
"$BUILD_DIR"/examples/pusch_serve --slots 16 --workers 2 --channel tdl-a \
    --doppler 16 --max-harq 3 --harq-ber 0.005
"$BUILD_DIR"/examples/pusch_serve --slots 16 --workers 4 --channel tdl-a \
    --doppler 16 --max-harq 3 --harq-ber 0.005
"$BUILD_DIR"/examples/pusch_sweep --workers 2 --channel tdl-c --doppler 8 \
    --fft 64 --snr 20,30
"$BUILD_DIR"/bench/bench_scenario_mix --slots 24 > /dev/null

echo "--- smoke: sharded serving engine + capacity search ---"
# Sharded serve with load-aware placement and the degrade controller, a
# bounded-queue drop run, and a short capacity search.
"$BUILD_DIR"/examples/pusch_serve --slots 24 --cells 4 --shards 2 \
    --placement load-aware --overload degrade --load 1.5 --workers 2
"$BUILD_DIR"/examples/pusch_serve --slots 24 --cells 4 --shards 2 \
    --overload queue --queue-limit 2 --clock-ghz 0.0001
"$BUILD_DIR"/bench/bench_capacity --slots 96 --iters 8 > /dev/null
# Unknown flags, and unknown names for the serving flags, must exit 2 with
# the accepted list (the --list convention), not abort, silently fall back
# or run on defaults; so must a zero shard, server or cell count and an
# unknown backend.  pusch_sweep reads none of the serving flags, so it
# rejects them as unknown; the serving benches reject unknown flags too,
# and those that read --servers or --shards reject 0 servers or shards.
# --sim-shards and --pipelined are removed flags.
expect_exit2() {
  local bin="$1" bad="$2"
  if "$BUILD_DIR"/$bin --slots 1 $bad > /dev/null 2>&1; then
    echo "$bin accepted invalid flag: $bad"
    exit 1
  else
    status=$?
    if [[ "$status" -ne 2 ]]; then
      echo "$bin exited $status (want 2) for: $bad"
      exit 1
    fi
  fi
}
for cli in pusch_serve pusch_sweep; do
  for bad in "--placement random" "--overload shed" "--shards 0" \
             "--servers 0" "--cells 0" "--channel rician" "--bogus-flag 7" \
             "--worker 4" "--sim-shards 2" "--pipelined" \
             "--backend bogus"; do
    expect_exit2 examples/$cli "$bad"
  done
done
for bench in bench_serve_latency bench_scenario_mix bench_capacity \
             bench_throughput_sweep; do
  for bad in "--bogus-flag 7" "--worker 4" "--servers 0" "--cells 0" \
             "--shards 0" "--backend bogus"; do
    expect_exit2 bench/$bench "$bad"
  done
done
# A zero slot count exits 2 too.  expect_exit2 prepends --slots 1 and the
# first match wins, so these tools are called directly.
for bin in examples/pusch_serve examples/pusch_sweep bench/bench_serve_latency \
           bench/bench_scenario_mix bench/bench_capacity \
           bench/bench_throughput_sweep; do
  status=0
  "$BUILD_DIR"/$bin --slots 0 > /dev/null 2>&1 || status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "$bin exited $status (want 2) for: --slots 0"
    exit 1
  fi
done
# A value flag given last, with no value after it, exits 2 rather than
# running on the flag's default.
status=0
"$BUILD_DIR"/examples/pusch_serve --workers 2 --slots > /dev/null 2>&1 \
    || status=$?
if [[ "$status" -ne 2 ]]; then
  echo "pusch_serve exited $status (want 2) for a trailing --slots"
  exit 1
fi
# A --snr range that holds no point exits 2 instead of sweeping 0 slots.
expect_exit2 examples/pusch_sweep "--snr 30:10:5"
# kernel_explorer reads none of the serving flags: a mistyped --seed, a
# made-up flag, a --params key the kernel does not take and a malformed
# --params value exit 2 before any kernel runs.
for bad in "--params m=16,k=4,p=4 --sed 3" \
           "--params m=16,k=4,p=4 --bogus-flag 7" \
           "--params bogus=3" "--params m=1o"; do
  status=0
  "$BUILD_DIR"/examples/kernel_explorer --arch minipool --kernel mmm \
      $bad > /dev/null 2>&1 || status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "kernel_explorer exited $status (want 2) for: $bad"
    exit 1
  fi
done
# quickstart and the two host-timing benches read no --slots, so they are
# called directly: a made-up flag exits 2 before any work.
for bin in examples/quickstart bench/bench_parallel_scaling \
           bench/bench_fixed_host; do
  status=0
  "$BUILD_DIR"/$bin --bogus 3 > /dev/null 2>&1 || status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "$bin exited $status (want 2) for: --bogus 3"
    exit 1
  fi
done
# --help prints the accepted flags and exits 0 on every CLI that rejects
# unknown flags; each entry names one flag its list must hold.
for entry in "examples/pusch_serve --backend" "examples/pusch_sweep --backend" \
             "examples/pusch_uplink_e2e --backend" \
             "bench/bench_serve_latency --backend" \
             "bench/bench_scenario_mix --backend" \
             "bench/bench_capacity --backend" \
             "bench/bench_throughput_sweep --backend" \
             "examples/kernel_explorer --kernel" \
             "bench/bench_parallel_scaling --workers" \
             "bench/bench_fixed_host --workers"; do
  bin="${entry% *}"
  flag="${entry#* }"
  help_out="$("$BUILD_DIR"/$bin --help)" || {
    echo "$bin --help exited non-zero"
    exit 1
  }
  if ! grep -q "^accepted flags:.* $flag .*--help\$" <<< "$help_out"; then
    echo "$bin --help did not print its accepted flags"
    exit 1
  fi
done
# quickstart takes no flag, so its list holds --help alone.
help_out="$("$BUILD_DIR"/examples/quickstart --help)" || {
  echo "examples/quickstart --help exited non-zero"
  exit 1
}
if [[ "$help_out" != "accepted flags: --help" ]]; then
  echo "examples/quickstart --help did not print its accepted flags"
  exit 1
fi
# pusch_uplink_e2e rejects --slots as an unknown flag, so it is called
# directly: an unsupported QAM order, a Cholesky batch that does not
# divide the slot's 4 data symbols, a UE count that is not a number or
# lies outside 1..8, more than 4 UEs on any backend set that runs sim
# (the default both, sim and all), and a seed that is not a number.
for bad in "--qam 32" "--chol-batch 3" "--ue abc" "--ue 0" "--ue 9" \
           "--ue 5" "--ue 8 --backend sim" "--ue 5 --backend all" \
           "--seed x"; do
  status=0
  "$BUILD_DIR"/examples/pusch_uplink_e2e $bad > /dev/null 2>&1 || status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "pusch_uplink_e2e exited $status (want 2) for: $bad"
    exit 1
  fi
done
# The host backends run 5 UEs: the slot completes (exit 0, or 1 when its
# BER is not 0 - the Q15 accuracy floor at 5 UEs).
status=0
"$BUILD_DIR"/examples/pusch_uplink_e2e --ue 5 --backend fixed > /dev/null \
    2>&1 || status=$?
if [[ "$status" -gt 1 ]]; then
  echo "pusch_uplink_e2e --ue 5 --backend fixed exited $status (want 0 or 1)"
  exit 1
fi

echo "--- bench_all --quick: machine-readable reports + baseline diff ---"
# Every bench's --json output and the merged summary must parse as real
# JSON, and the deterministic metrics must match the committed baseline
# (bench_compare.py only gates deterministic metrics, so this is
# host-independent; regenerate the baseline when a PR intentionally moves
# cycle counts - docs/BENCHMARKS.md).
scripts/bench_all.sh --quick --build-dir "$BUILD_DIR"
if command -v python3 >/dev/null 2>&1; then
  for f in "$BUILD_DIR"/bench-reports/BENCH_*.json; do
    python3 -m json.tool "$f" > /dev/null || {
      echo "invalid JSON report: $f"
      exit 1
    }
  done
  echo "all emitted reports parse as JSON"
  python3 scripts/bench_compare.py bench/baselines/quick.json \
      "$BUILD_DIR/bench-reports/BENCH_summary.json"
else
  echo "python3 not found - skipped JSON validation + baseline diff"
fi

echo "--- smoke: the perfbench workloads against their own oracles ---"
# Each gated workload (BENCHMARK.json) for 3 s: perfbench/run.py builds the
# benchmark in its own tree and exits non-zero if any output differs from
# its oracle; the last line it prints must also report no failed operation.
if command -v python3 >/dev/null 2>&1; then
  for workload in serve-mix sim-usecase; do
    result="$(CARGO_TARGET_DIR="$BUILD_DIR-perfbench" python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)" || {
      echo "perfbench $workload exited non-zero"
      exit 1
    }
    python3 -c 'import json, sys
r = json.loads(sys.argv[2])
sys.exit("perfbench %s: %s failed" % (sys.argv[1], r["failed"])
         if r["failed"] else 0)' \
        "$workload" "$result"
    echo "perfbench $workload: 0 failed"
  done
else
  echo "python3 not found - skipped the perfbench oracle smoke"
fi

echo "--- zero-steady-state-allocation gate (PP_COUNT_ALLOCS build) ---"
# Separate build tree with the counting operator new: the serving benches'
# steady-state sections exit non-zero if any slot after warm-up touches the
# heap (the workspace contract, docs/DETERMINISM.md section 10).
ALLOC_DIR="${BUILD_DIR}-allocs"
cmake -B "$ALLOC_DIR" -S . -DPP_COUNT_ALLOCS=ON -DBUILD_TESTING=OFF
cmake --build "$ALLOC_DIR" -j "$JOBS" \
  --target bench_serve_latency bench_fixed_host
"$ALLOC_DIR"/bench/bench_serve_latency --slots 12 > /dev/null
"$ALLOC_DIR"/bench/bench_serve_latency --slots 12 --backend parallel \
    > /dev/null
"$ALLOC_DIR"/bench/bench_fixed_host --fft 256 --symb 4 > /dev/null
echo "steady-state serving loop allocates nothing after warm-up"

echo "--- ASan+UBSan build of the receive-chain, serving-engine, Q15 and simulator suites ---"
# Separate build tree with the address and undefined-behaviour sanitizers:
# the receive chain on every backend (phy, pipeline, workspace, parallel,
# fixed, sim chain), the random-number generator and its normal transform
# (bit casts, shifts and integer-double conversions), the channel profiles
# and traffic source, the serving
# engine (scheduler, admission, latency clock, placement, grid sweeps,
# HARQ, the HARQ fuzz and the cross-backend scenario parity; with
# _GLIBCXX_ASSERTIONS an unchecked group or shard index aborts here even
# where a Release build reads past the end unnoticed), plus the
# fixed-point and kernel tests (the Q15 layer's saturation corners are
# exactly where signed-overflow UB would hide), and the simulator suites
# (core, fuzz, edge cases, barriers, runtime, kernel configurations,
# fast-path differential: the event ring's reused buckets, the far-event
# queue and the per-job machine lifetimes of the streamed roll-up).  ctest
# runs every test of the built targets; the other targets only leave
# *_NOT_BUILT placeholders.  On a 4-vCPU x86-64 host this step adds about
# 6 minutes, nearly all of it the build; the four serving-engine unit
# suites (admission, latency, placement, HARQ fuzz) take about 1 minute of
# that.
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
cmake --build "$ASAN_DIR" -j "$JOBS" \
  --target test_phy test_rng test_pipeline test_workspace \
           test_backend_parallel test_backend_fixed test_sim_chain \
           test_scheduler test_sweep \
           test_admission test_latency test_placement test_harq \
           test_harq_fuzz test_scenario_parity test_fixed_point test_fft \
           test_mmm test_cholesky test_che_ne test_gram \
           test_channel_profiles test_traffic test_sim_core test_sim_fuzz \
           test_sim_edge test_sim_barrier test_runtime test_kernel_configs \
           test_sim_differential
ctest --test-dir "$ASAN_DIR" --output-on-failure --no-tests=error \
  -j "$JOBS" -E '_NOT_BUILT$'

if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
  echo "--- opt-in: ThreadSanitizer build of the concurrency tests ---"
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target test_sweep test_thread_safety test_rng test_backend_parallel \
             test_backend_fixed test_scheduler test_traffic test_admission \
             test_placement test_sim_differential test_sim_fuzz test_harq \
             test_harq_fuzz test_scenario_parity test_workspace
  ctest --test-dir "$TSAN_DIR" --output-on-failure --no-tests=error \
    -j "$JOBS" \
    -R 'Sweep|ThreadSafety|Rng|ThreadPool|ParallelBackend|FixedBackend|FixedQ15|Scheduler|Traffic|Admission|Placement|SimDifferential|SimFuzz|Harq|ScenarioParity|Workspace'
fi

echo "check.sh: all green"
