#!/usr/bin/env bash
# Captures BENCH_*.json from a release build, with provenance enforcement.
#
#   tools/run_bench.sh                      write BENCH_kernels.json
#   tools/run_bench.sh --suite NAME         pick the suite: kernels
#                                           (micro_substrate, default) or
#                                           serve (serve_engine ->
#                                           BENCH_serve.json)
#   tools/run_bench.sh --out FILE.json      alternate output path
#   tools/run_bench.sh --filter REGEX       restrict benchmark selection
#   tools/run_bench.sh --compare            regression gate: capture and
#                                           diff against the committed
#                                           baseline via bench_diff.py
#                                           (fails >5% median regression;
#                                           never rewrites the baseline)
#   tools/run_bench.sh --threshold FRAC     --compare failure threshold
#   tools/run_bench.sh --reps N             benchmark repetitions (default
#                                           5; bench_diff reads the median
#                                           aggregate, so more reps trade
#                                           wall time for gate stability)
#   tools/run_bench.sh --ab GIT-REF         paired A/B against GIT-REF:
#                                           builds the ref's suite in a
#                                           git worktree under
#                                           build-release/ab/, then runs
#                                           the two binaries in
#                                           alternating order, --reps
#                                           rounds (one repetition each),
#                                           and prints per-benchmark
#                                           medians and deltas; writes no
#                                           baseline
#
# Configures and builds the `release` CMake preset, runs the suite's
# binary with --benchmark_out, and commits the JSON to the requested path
# ONLY if the binary's self-reported `geonas_build_type` context field
# says Release. Each capture also stamps the host shape (cpu count,
# kernel threads, native-arch tuning — bench/bench_host_context.hpp);
# `--compare` therefore refuses to gate against a baseline captured on a
# different host (bench_diff.py --allow-host-mismatch to eyeball). That field is stamped by the suite's custom main() from
# CMAKE_BUILD_TYPE; the upstream `library_build_type` field describes how
# the *system benchmark library* was compiled and says nothing about
# this repo's flags (committing a debug-flagged capture is exactly the
# provenance bug this script exists to prevent).
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

suite="kernels"
out=""
filter=""
compare=0
ab_ref=""
threshold="0.05"
reps=5
jobs="$(nproc 2>/dev/null || echo 2)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --suite) suite="$2"; shift ;;
    --out) out="$2"; shift ;;
    --filter) filter="$2"; shift ;;
    --compare) compare=1 ;;
    --threshold) threshold="$2"; shift ;;
    --reps) reps="$2"; shift ;;
    --jobs) jobs="$2"; shift ;;
    --ab) ab_ref="$2"; shift ;;
    -h|--help) sed -n '2,30p' "$0"; exit 0 ;;
    *) echo "run_bench: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

# Each suite is one provenance-stamped binary with its own committed
# baseline; --out still overrides the default path.
case "$suite" in
  kernels) target="micro_substrate"; default_out="BENCH_kernels.json" ;;
  serve)   target="serve_engine";    default_out="BENCH_serve.json" ;;
  *) echo "run_bench: unknown suite: $suite (kernels|serve)" >&2; exit 2 ;;
esac
out="${out:-$default_out}"

if [[ -n "$ab_ref" ]]; then
  if [[ $compare -eq 1 ]]; then
    echo "run_bench: --ab and --compare are separate modes" >&2
    exit 2
  fi
  ref_sha="$(git rev-parse --verify --quiet "$ab_ref^{commit}")" || {
    echo "run_bench: --ab: not a commit: $ab_ref" >&2
    exit 2
  }
fi

if [[ $compare -eq 1 && ! -f "$out" ]]; then
  echo "run_bench: --compare needs a committed baseline at $out" >&2
  exit 2
fi

case "$out" in
  BENCH_*|*/BENCH_*) ;;
  *) echo "run_bench: output should be named BENCH_*.json (got: $out)" >&2
     exit 2 ;;
esac

echo "==== configure+build [release] ===="
cmake --preset release >/dev/null
cmake --build --preset release -j "$jobs" --target "$target"

bench="build-release/bench/$target"

if [[ -n "$ab_ref" ]]; then
  # The reference lives in its own worktree (kept between runs, so a
  # repeated --ab only rebuilds what changed; remove it with
  # `git worktree remove --force build-release/ab/<sha>`).
  ref_tree="build-release/ab/$ref_sha"
  if [[ ! -d "$ref_tree" ]]; then
    echo "==== worktree $ab_ref ($ref_sha) ===="
    git worktree add --detach "$ref_tree" "$ref_sha" >/dev/null
  fi
  echo "==== configure+build [$ab_ref] ===="
  cmake -S "$ref_tree" -B "$ref_tree/build" -DCMAKE_BUILD_TYPE=Release \
    -DGEONAS_BUILD_TESTS=OFF -DGEONAS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$ref_tree/build" -j "$jobs" --target "$target"
  ref_bench="$ref_tree/build/bench/$target"

  runs="$(mktemp -d)"
  trap 'rm -rf "$runs"' EXIT
  args=(--benchmark_out_format=json --benchmark_repetitions=1)
  [[ -n "$filter" ]] && args+=(--benchmark_filter="$filter")
  # Alternate which side goes first, so drift over the run (thermal
  # state, neighbours on a shared host) lands on both sides equally.
  for ((round = 1; round <= reps; round++)); do
    echo "==== round $round/$reps ===="
    order=(ref cand)
    (( round % 2 == 0 )) && order=(cand ref)
    for side in "${order[@]}"; do
      bin="$bench"
      [[ $side == ref ]] && bin="$ref_bench"
      log="$runs/$side.$round.log"
      if ! "$bin" "${args[@]}" --benchmark_out="$runs/$side.$round.json" \
          >"$log" 2>&1; then
        cat "$log" >&2
        echo "run_bench: --ab: $side binary failed (round $round)" >&2
        exit 1
      fi
    done
  done
  python3 - "$runs" "$reps" "$ab_ref" <<'EOF'
import json, statistics, sys
from pathlib import Path

runs, reps, ref = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
times = {"ref": {}, "cand": {}}
for side in times:
    for rnd in range(1, reps + 1):
        doc = json.loads((runs / f"{side}.{rnd}.json").read_text())
        build = doc["context"].get("geonas_build_type", "missing")
        if build.lower() != "release":
            sys.exit(f"run_bench: --ab: {side} binary is a {build} build")
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            times[side].setdefault(b["name"], []).append(
                (b["real_time"], b["cpu_time"], b["time_unit"]))

names = [n for n in times["cand"] if n in times["ref"]]
width = max([len(n) for n in times["cand"]] + [9])
print(f"A/B over {reps} alternating rounds, median per side "
      f"(A = {ref}, B = working tree)")
print(f"{'benchmark'.ljust(width)}  {'A real':>12}  {'B real':>12}  "
      f"{'real':>7}  {'cpu':>7}  B faster")
for name in names:
    ref_t, cand_t = times["ref"][name], times["cand"][name]
    unit = cand_t[0][2]
    med = [[statistics.median(t[i] for t in side) for i in (0, 1)]
           for side in (ref_t, cand_t)]
    wins = sum(c[0] < r[0] for r, c in zip(ref_t, cand_t))
    print(f"{name.ljust(width)}  {med[0][0]:>10.0f}{unit:>2}  "
          f"{med[1][0]:>10.0f}{unit:>2}  {med[1][0] / med[0][0] - 1:>+7.1%}  "
          f"{med[1][1] / med[0][1] - 1:>+7.1%}  {wins}/{len(cand_t)}")
for name in times["cand"]:
    if name not in times["ref"]:
        print(f"{name.ljust(width)}  B only")
for name in times["ref"]:
    if name not in times["cand"]:
        print(f"{name.ljust(width)}  A only")
EOF
  exit 0
fi

tmp="$(mktemp --suffix=.json)"
trap 'rm -f "$tmp"' EXIT

echo "==== run $target ===="
# Median-of-N repetitions: single-pass captures swing by 10-20% on a
# shared 1-CPU box, which a 5% gate cannot survive. bench_diff prefers
# the per-run median aggregate these repetitions produce.
args=(--benchmark_out="$tmp" --benchmark_out_format=json
      --benchmark_repetitions="$reps")
[[ -n "$filter" ]] && args+=(--benchmark_filter="$filter")
"$bench" "${args[@]}"

build_type="$(python3 - "$tmp" <<'EOF'
import json, sys
ctx = json.load(open(sys.argv[1]))["context"]
print(ctx.get("geonas_build_type", "missing"))
EOF
)"
if [[ "${build_type,,}" != "release" ]]; then
  echo "run_bench: refusing to write $out — geonas_build_type is" \
       "'$build_type', not Release (is the binary from an instrumented" \
       "or debug tree?)" >&2
  exit 1
fi

if [[ $compare -eq 1 ]]; then
  # Gate mode: the committed baseline stays untouched; the fresh capture
  # only exists to be diffed. A regression exits nonzero via set -e.
  python3 tools/bench_diff.py --threshold "$threshold" "$out" "$tmp"
  echo "compare ok: capture within $threshold of $out" \
       "(geonas_build_type: $build_type)"
  exit 0
fi

mv "$tmp" "$out"
trap - EXIT
echo "wrote $out (geonas_build_type: $build_type)"
