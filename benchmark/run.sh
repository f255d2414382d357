#!/usr/bin/env bash
# Builds teal_bench into build-benchmark/ and runs the repo benchmark.
#
# One run (the form BENCHMARK.json's command takes; run from the repo root):
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The last line of stdout is the run's JSON result; build output goes to
# stderr. A traced run writes its spans to build-benchmark/spans/.
#
# The suite — every workload untraced on three seeds, then traced, one JSON
# record per run in build-benchmark/records.jsonl:
#   bash benchmark/run.sh [--sets N] [--smoke] [--seed N]
# --sets 2 runs two sets, interleaved run by run in alternating order, and
# exits nonzero when the median of an end-to-end metric differs between sets
# by more than its bound in BENCHMARK.json or a reference digest differs.
# --smoke uses 2 s windows.
#
#   bash benchmark/run.sh --selftest   checks the percentile and lateness math
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target teal_bench --parallel 4 >&2

if [[ -z "${TEAL_BENCH_GIT_SHA:-}" && -e "$root/.git" ]]; then
  TEAL_BENCH_GIT_SHA="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
fi
export TEAL_BENCH_GIT_SHA="${TEAL_BENCH_GIT_SHA:-unknown}"

case " $* " in
  *" --workload "* | *" --selftest "*) exec "$build/teal_bench" --spans-dir "$build/spans" "$@" ;;
esac
exec python3 "$here/suite.py" --binary "$build/teal_bench" --spec "$root/BENCHMARK.json" \
  --out "$build" "$@"
