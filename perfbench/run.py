#!/usr/bin/env python3
"""Builds perfbench from the repository's sources and runs one workload.

    python3 perfbench/run.py --workload serve-write --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
configured once and rebuilt incrementally. The binary's informational lines
are passed through; the last line printed is the result object, whose
metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). A per-layer metric the workload does not
exercise (for example a WAL counter on a workload without a WAL) reads 0
and is listed on the "not exercised" line.

--smoke runs every workload at a tiny size, untraced and traced, and fails
unless each prints every named metric with its unit and passes its checks.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "ccidx"))):
        die("the ccidx sources (CMakeLists.txt, src/ccidx) are not next to perfbench/")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            die("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the sources the binary is built from (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(binary, workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs one workload; returns the binary's RESULT object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    result = None
    for line in p.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif echo:
            print(line)
    if p.returncode != 0 or result is None:
        sys.stderr.write(p.stderr[-4000:])
        die(f"{workload} exited with {p.returncode} and no result")
    return result


def contract_line(spec, result, trace):
    """The result object: exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                die(f"end-to-end metric {m['name']} missing from the run")
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        if not math.isfinite(got["value"]):
            die(f"metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}, absent


def smoke(binary, spec):
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run_binary(binary, w["name"], 7, 1, trace, tiny=True, echo=False)
            line, absent = contract_line(spec, result, trace)
            bad = []
            if not line["correct"] or line["failed"] != 0:
                bad.append("answer checks failed: " + "; ".join(result.get("problems", [])))
            if not trace and any(v["value"] <= 0 for v in line["metrics"].values()):
                bad.append("an end-to-end metric is not positive")
            print(f"smoke {w['name']:12s} trace={int(trace)} metrics={len(line['metrics'])} "
                  f"not-exercised={len(absent)} attempted={line['attempted']} "
                  f"{'FAIL ' + ', '.join(bad) if bad else 'ok'}")
            ok = ok and not bad
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    binary = build()
    spec = load_spec()
    if args.smoke:
        sys.exit(0 if smoke(binary, spec) else 1)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    result = run_binary(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    line, absent = contract_line(spec, result, bool(args.trace))
    meta = dict(result.get("meta", {}))
    meta["git_sha"] = git_sha()
    meta["source_digest"] = source_digest()
    print("meta " + json.dumps(meta, sort_keys=True))
    if absent:
        print("not exercised by " + args.workload + ": " + " ".join(absent))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
