#!/usr/bin/env python3
"""The wavesim benchmark.

    python3 wavebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the worker (`wavebench/`, a Cargo
package of its own) from source, then starts one worker process per sample
for about `--seconds`, so every sample's CPU time and peak memory are its
own. Each worker checks its outputs, and the first sample of a run also
runs the checks that cost a second run of the workload (`--full-check`); a
sample whose check fails, or whose worker fails, counts as failed. The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end metrics of BENCHMARK.json, medians over the
samples; with `--trace 1` they are its per-layer metrics, medians over
traced samples. The line before it stamps the result with the CPU count,
shard and thread counts, build profile and git commit.

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), and so do
the worker's scratch files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# Sample i of a run draws its inputs from seed `seed + i * SAMPLE_SEED_STEP`,
# so a run's median spans several input draws and the run-to-run spread
# does not hang on one draw. Sample 0 runs `seed` itself: at the pinned
# seed it is the sample checked against the pinned fingerprints.
SAMPLE_SEED_STEP = 1_000_003
# Fewest samples a run takes, however long they last.
MIN_SAMPLES = {0: 2, 1: 1}
# No new sample starts after this many seconds, so a run ends well within
# 180 seconds even when one sample takes long.
BUDGET_S = 120.0


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def git_commit():
    """The checkout's commit, or "unknown" when the checkout is not a git
    repository. git may not search above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def self_test(spec, doc):
    """BENCHMARK.json and layers.json must name the same workloads and
    metrics, and the worker must emit exactly those metrics."""
    errors = []
    names = {w["name"] for w in spec["workloads"]}
    if names != set(doc["workloads"]):
        errors.append(f"layers.json workloads {sorted(doc['workloads'])} != {sorted(names)}")
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if set(metrics) != set(doc["metrics"]):
        errors.append(f"layers.json metrics differ: {sorted(set(metrics) ^ set(doc['metrics']))}")
    for name, entry in doc["metrics"].items():
        for move in entry["moves"]:
            if move["metric"] not in {m["name"] for m in spec["end_to_end"]} or move["workload"] not in names:
                errors.append(f"{name}: moves names an unknown metric or workload: {move}")
    return errors


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark worker failed")


def run_sample(exe, args, index, workdir, stop_at):
    """One worker process. Returns its parsed report, or None if it failed."""
    seed = args.seed + index * SAMPLE_SEED_STEP
    cmd = [str(exe), args.workload, "--seed", str(seed), "--trace", str(args.trace),
           "--full-check", str(int(index == 0)), "--workdir", str(workdir)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, stop_at - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("sample: worker timed out", file=sys.stderr)
        return None
    if p.returncode != 0:
        print(f"sample: worker exited {p.returncode}: {p.stderr.strip()[-400:]}", file=sys.stderr)
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("sample: worker printed no report", file=sys.stderr)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        doc = json.loads((BENCH / "layers.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    errors = self_test(spec, doc)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = ROOT / env["CARGO_TARGET_DIR"]
    build(env)
    exe = target / "release" / "wavebench"
    workdir = target / "wavebench-work"
    workdir.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    stop_at = start + BUDGET_S
    attempted = failed = 0
    reports = []
    durations = []
    while time.monotonic() < stop_at:
        # Past the fewest samples, start none that would likely end after
        # --seconds, so a run lasts about --seconds whatever a sample costs.
        if (attempted >= MIN_SAMPLES[args.trace]
                and time.monotonic() - start + statistics.median(durations) > args.seconds):
            break
        t0 = time.monotonic()
        r = run_sample(exe, args, attempted, workdir, stop_at + 30)
        durations.append(time.monotonic() - t0)
        attempted += 1
        if r is None:
            failed += 1
            continue
        reports.append(r)
        bad = [c for c in r["checks"] if not c["ok"]]
        for c in bad:
            print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
        failed += bool(bad)
        print(f"sample {attempted}: wall {r['wall_s']:.4f} s, cpu {r['cpu_s']:.2f} s, "
              f"rss {r['peak_rss_mb']:.1f} MiB, {len(r['checks'])} checks"
              + (", failed" if bad else ""), file=sys.stderr)
    if not reports:
        fail("no sample produced a report")

    med = lambda key: statistics.median(r[key] for r in reports)
    if args.trace == 0:
        values = {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "setup_s": statistics.median(s for r in reports for s in r["setup_s"]),
        }
        listed = spec["end_to_end"]
    else:
        values = {k: statistics.median(r["layers"][k] for r in reports) for k in reports[0]["layers"]}
        listed = spec["per_layer"]
    if set(values) != {m["name"] for m in listed}:
        errors.append(f"emitted metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in listed})}")
    for e in errors:
        print(f"self-test failed: {e}", file=sys.stderr)

    first = reports[0]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "cpus": first["cpus"],
        "shards": first["shards"],
        "threads": first["threads"],
        "profile": "release",
        "commit": git_commit(),
        "samples": len(reports),
    }
    print("stamp " + json.dumps(stamp))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed if m["name"] in values}
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
