#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` binary (the
package in this directory, against the repository's crates) with cargo,
into `$CARGO_TARGET_DIR` or `target/perfbench`, then runs the workload in
its own process:

* `--trace 0`: one untraced run; the metrics are the end-to-end metrics
  of BENCHMARK.json.
* `--trace 1`: an untraced run, then a traced run at the same seed. The
  metrics are the per-layer metrics of BENCHMARK.json, taken from the
  traced run; a layer the workload does not exercise reads 0. The exact
  counts of the two runs (and of any earlier run of the same build at the
  same seed) must be identical, and the traced run's overhead (its
  end-to-end metrics minus the untraced run's) is printed. The traced
  run's spans are written as JSONL into the work dir.

Every metric is printed by name with its unit, then the host record, and
the last stdout line is one JSON object: correct, attempted, failed,
metrics. A failed build or a crashed workload exits 1 without it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def run_child(binary, args, work, traced):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    return json.loads(lines[-1])


def source_digest():
    """A digest of the sources the binary is built from: the checkout is
    not a git repository, so this stands in for the commit."""
    h = hashlib.sha256()
    for base in ("crates", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".pl", ".toml", ".lock"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    for name in ("Cargo.toml", "Cargo.lock"):
        h.update((ROOT / name).read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def count_gate(work, args, digest, counts_now, counts_other):
    """Exact counts must repeat between runs of one build at one seed."""
    errors = []
    if counts_other is not None and counts_other != counts_now:
        errors.append(f"exact counts differ between the untraced and the traced run: "
                      f"{counts_other} vs {counts_now}")
    record = work / f"counts-{args.workload}-{args.seed}-{digest}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != counts_now:
            errors.append(f"exact counts differ from an earlier run at seed {args.seed}: "
                          f"{earlier} vs {counts_now}")
    else:
        record.write_text(json.dumps(counts_now, sort_keys=True))
    return errors


def show(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if not (ROOT / "crates").is_dir():
        fail("the repository's crates are missing; nothing to build")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / "target" / "perfbench")
    target = target if target.is_absolute() else Path.cwd() / target
    binary = build(target)
    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    digest = source_digest()

    base = run_child(binary, args, work, traced=False)
    errors = list(base["errors"])
    if args.trace:
        traced = run_child(binary, args, work, traced=True)
        errors += traced["errors"]
        errors += count_gate(work, args, digest, traced["counts"], base["counts"])
        layer = traced["per_layer"]
        metrics = {}
        for m in spec["per_layer"]:
            value = layer.get(m["name"], {"value": 0})["value"]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        show(f"{args.workload}: per-layer metrics (traced run)", metrics)
        show(f"{args.workload}: tracing overhead (traced minus untraced end-to-end)", {
            name: {"value": traced["end_to_end"][name]["value"] - m["value"], "unit": m["unit"]}
            for name, m in base["end_to_end"].items()})
        result = traced
    else:
        errors += count_gate(work, args, digest, base["counts"], None)
        metrics = {m["name"]: base["end_to_end"][m["name"]] for m in spec["end_to_end"]}
        result = base
    show(f"{args.workload}: end-to-end metrics (untraced run)", base["end_to_end"])
    print(f"  samples: {base['attempted']} attempted, {base['failed']} failed")
    print("exact counts: " + json.dumps(result["counts"], sort_keys=True))
    print("host: " + json.dumps({
        "available_parallelism": result["available_parallelism"],
        "threads": result["threads"],
        "clients": result["clients"],
        "seed": args.seed,
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": digest,
    }))
    for e in errors:
        print(f"CHECK FAILED: {e}")
    failed = base["failed"] + (result["failed"] if args.trace else 0)
    attempted = base["attempted"] + (result["attempted"] if args.trace else 0)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
