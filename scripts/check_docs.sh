#!/usr/bin/env bash
# check_docs.sh — fail CI when the docs drift from the build.
#
# Every `bench_<name>` target mentioned in EXPERIMENTS.md, DESIGN.md or
# README.md must actually exist. Bench targets are generated by the
# CMakeLists.txt glob over bench/*.cpp (one `bench_<stem>` per file), so a
# target exists iff its source file does.
#
# Also guards the reference that motivated EXPERIMENTS.md in the first
# place: bench/common.h documents its time-anchoring policy there, so the
# file must exist and contain the serving ledger section bench_serve_scaling
# inserts into.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

for doc in EXPERIMENTS.md DESIGN.md README.md; do
  if [ ! -f "$doc" ]; then
    echo "ERROR: $doc is missing"
    fail=1
    continue
  fi
  # Every bench_<name> token must correspond to bench/<name>.cpp.
  # (bench_out is the CSV output directory, not a target.)
  for target in $(grep -oE 'bench_[a-z0-9_]+' "$doc" | sort -u); do
    [ "$target" = "bench_out" ] && continue
    src="bench/${target#bench_}.cpp"
    if [ ! -f "$src" ]; then
      echo "ERROR: $doc mentions target '$target' but $src does not exist"
      fail=1
    fi
  done
  # Same for example_<name> tokens -> examples/<name>.cpp.
  for target in $(grep -oE 'example_[a-z0-9_]+' "$doc" | sort -u); do
    src="examples/${target#example_}.cpp"
    if [ ! -f "$src" ]; then
      echo "ERROR: $doc mentions target '$target' but $src does not exist"
      fail=1
    fi
  done
done

if [ -f EXPERIMENTS.md ] && ! grep -q 'Serving throughput ledger' EXPERIMENTS.md; then
  echo "ERROR: EXPERIMENTS.md lost the 'Serving throughput ledger' section" \
       "that bench_serve_scaling inserts into"
  fail=1
fi

if [ -f EXPERIMENTS.md ] && ! grep -q 'Precision/SIMD ledger' EXPERIMENTS.md; then
  echo "ERROR: EXPERIMENTS.md lost the 'Precision/SIMD ledger' section" \
       "that bench_precision_simd inserts into"
  fail=1
fi

if [ -f EXPERIMENTS.md ] && ! grep -q 'Blocked layout ledger' EXPERIMENTS.md; then
  echo "ERROR: EXPERIMENTS.md lost the 'Blocked layout ledger' section" \
       "that bench_precision_simd inserts blocked-kernel runs into"
  fail=1
fi

if [ -f EXPERIMENTS.md ] && \
   ! grep -q 'bench_precision_simd inserts blocked-layout runs below this line' EXPERIMENTS.md; then
  echo "ERROR: EXPERIMENTS.md lost the blocked-layout ledger marker" \
       "'<!-- bench_precision_simd inserts blocked-layout runs below this line -->'"
  fail=1
fi

if [ -f EXPERIMENTS.md ] && ! grep -q 'Training scaling ledger' EXPERIMENTS.md; then
  echo "ERROR: EXPERIMENTS.md lost the 'Training scaling ledger' section" \
       "that bench_train_scaling inserts into"
  fail=1
fi

if [ -f EXPERIMENTS.md ] && ! grep -q 'Fleet serving ledger' EXPERIMENTS.md; then
  echo "ERROR: EXPERIMENTS.md lost the 'Fleet serving ledger' section" \
       "that bench_fleet_serving inserts into"
  fail=1
fi

if [ -f EXPERIMENTS.md ] && ! grep -q 'Scenario matrix ledger' EXPERIMENTS.md; then
  echo "ERROR: EXPERIMENTS.md lost the 'Scenario matrix ledger' section" \
       "that bench_scenario_matrix inserts into"
  fail=1
fi

# Ledger coupling, both directions: every bench binary that writes runs into
# EXPERIMENTS.md must have a ledger marker there (so a new ledger bench like
# shard_scaling cannot land without its ledger section), and every ledger
# marker must correspond to an existing bench source (so a deleted bench
# cannot leave a dangling ledger).
if [ -f EXPERIMENTS.md ]; then
  for src in bench/*.cpp; do
    name=$(basename "$src" .cpp)
    [ "$name" = "common" ] && continue
    # A ledger bench is one that writes runs into EXPERIMENTS.md — either
    # through the shared writer bench::record or by opening the file
    # directly.
    if grep -q 'bench::record(' "$src" || \
       { grep -q 'EXPERIMENTS\.md' "$src" && grep -q 'ofstream' "$src"; }; then
      if ! grep -q "<!-- bench_${name} inserts runs below this line -->" EXPERIMENTS.md; then
        echo "ERROR: bench_${name} writes runs into EXPERIMENTS.md but the ledger" \
             "marker '<!-- bench_${name} ... runs below this line -->' is missing"
        fail=1
      fi
    fi
  done
  for target in $(grep -oE '<!-- bench_[a-z0-9_]+ inserts runs below this line -->' EXPERIMENTS.md \
                    | grep -oE 'bench_[a-z0-9_]+' | sort -u); do
    src="bench/${target#bench_}.cpp"
    if [ ! -f "$src" ]; then
      echo "ERROR: EXPERIMENTS.md has a ledger marker for '$target' but $src does not exist"
      fail=1
    fi
  done
fi

# The bf16 weight-storage precision was deleted (f32 is the only narrowed
# path); no code, test or current doc may bring the name back. Past runs in
# EXPERIMENTS.md keep their bf16 columns as history.
if grep -rniI 'bf16' src bench tests tools examples README.md DESIGN.md; then
  echo "ERROR: the lines above name bf16, a precision this repo no longer has"
  fail=1
fi

if ! grep -q 'EXPERIMENTS.md' bench/common.h; then
  echo "WARNING: bench/common.h no longer references EXPERIMENTS.md"
fi

if [ "$fail" -ne 0 ]; then
  echo "docs check failed"
  exit 1
fi
echo "docs check passed"
