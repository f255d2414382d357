#!/usr/bin/env python3
"""Runs every benchmark workload untraced, then traced, and compares sets.

Called by run.sh, which builds teal_bench first:
  bash benchmark/run.sh [--sets N] [--smoke] [--seed N]

A set runs every workload untraced on RUNS_PER_SET consecutive seeds and
traced once. The sets are interleaved run by run, in alternating order, so a
host whose speed drifts over minutes slows every set alike. Each run's JSON
result, its reference digest and its '#' description lines become one record
in OUT/records.jsonl. With two or more sets, every set is compared with the
first: an end-to-end metric whose median over the set's untraced runs of a
workload differs by more than its bound in BENCHMARK.json, a reference digest
that differs between sets for the same workload and seed, a run that is not
correct, or a traced run that is not sound (SOUND, and the twin split within
10% of the forward it splits) makes the suite exit 1.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS_PER_SET = 3
# Per-layer values a sound traced run stays within: the decomposed solve
# accounts for the scheme's own solve, the generator kept its schedule, and
# the network layer lost nothing.
SOUND = {"core.stage_coverage": (0.9, 1.1), "gen.late_p99_ms": (0.0, 1.0),
         "net.dropped_responses": (0.0, 0.0), "net.protocol_errors": (0.0, 0.0)}


def run_one(binary, out, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spans-dir", out + "/spans"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} trace={trace}: teal_bench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    notes = [l for l in lines if l.startswith("#")]
    digest = next(l.split("fnv1a=")[1].split()[0] for l in notes if l.startswith("# references"))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "digest": digest, "wall_s": round(wall, 3), "notes": notes}
    record.update(json.loads(lines[-1]))
    return record


def compare(records, spec, sets, names):
    """Messages for every disagreement between a later set and the first."""
    problems = []
    digests = {}
    for r in records:
        first = digests.setdefault((r["workload"], r["seed"]), r["digest"])
        if r["digest"] != first:
            problems.append(f"{r['workload']} seed {r['seed']}: digest {r['digest']} != {first}")
    for w in names:
        medians = [{m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in records
                                                 if r["workload"] == w and r["trace"] == 0
                                                 and r["set"] == s)
                    for m in spec["end_to_end"]} for s in range(sets)]
        for s in range(1, sets):
            for m in spec["end_to_end"]:
                a, b = medians[0][m["name"]], medians[s][m["name"]]
                diff = abs(b - a) / abs(a) if a else float("inf")
                flag = "ok" if diff <= m["bound"] else "DISAGREES"
                print(f"  set {s} vs 0  {w:<14} {m['name']:<17} {a:>12.5g} {b:>12.5g}  "
                      f"{100 * diff:6.2f}% (bound {100 * m['bound']:g}%) {flag}")
                if flag != "ok":
                    problems.append(f"{w} {m['name']}: median {a} vs {b}")
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--binary", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true", help="2 s windows")
    a = p.parse_args()
    with open(a.spec) as f:
        spec = json.load(f)
    seconds = 2 if a.smoke else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    # (workload, seed, trace, set) in run order.
    plan = []
    for i in range(RUNS_PER_SET):
        order = 1 if i % 2 == 0 else -1
        plan += [(w, a.seed + i, 0, s) for w in names[::order] for s in range(a.sets)[::order]]
    plan += [(w, a.seed, 1, s) for w in names for s in range(a.sets)]

    records = []
    with open(a.out + "/records.jsonl", "w") as log:
        for w, seed, trace, s in plan:
            r = run_one(a.binary, a.out, w, seed, seconds, trace)
            r["set"] = s
            records.append(r)
            log.write(json.dumps(r) + "\n")
            log.flush()
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"set {s} {w:<14} seed={seed} trace={trace} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"wall={r['wall_s']}s  {shown}", flush=True)

    problems = [f"{r['workload']} seed {r['seed']} trace={r['trace']} set {r['set']}: not correct"
                for r in records if not r["correct"]]
    problems += [f"{r['workload']} set {r['set']}: {k} = {r['metrics'][k]['value']:.4g} "
                 f"outside [{lo:g}, {hi:g}]"
                 for r in records if r["trace"] == 1
                 for k, (lo, hi) in SOUND.items() if not lo <= r["metrics"][k]["value"] <= hi]
    for r in records:
        for note in r["notes"]:
            if note.startswith("# twin split") and not 0.9 <= float(note.split("=")[-1]) <= 1.1:
                problems.append(f"{r['workload']} set {r['set']}: {note[2:]} outside [0.9, 1.1]")
            if note.startswith("# twin logits") and not note.endswith("yes"):
                problems.append(f"{r['workload']} set {r['set']}: {note[2:]}")
    if a.sets > 1:
        problems += compare(records, spec, a.sets, names)
    for msg in problems:
        print("FAIL", msg)
    print(f"{len(records)} runs, {len(problems)} problems; records in {a.out}/records.jsonl")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
