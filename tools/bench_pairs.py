#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against a change.

    python3 tools/bench_pairs.py --base HEAD~1 --workloads evaluate,train \
        --pairs 10 --seed 1001 --out BENCH_x.json

Run from the repository root; the change is the working tree.  The base
commit is unpacked with ``git archive`` into a temporary directory, which
is removed at the end.  For each workload and each pair, both trees run
the same unchanged ``python3 perfbench/run.py --workload W --seed S
--seconds T``, T the ``run_seconds`` of BENCHMARK.json, on a fresh seed
(S = --seed, then one more per pair), and the side that runs first
alternates from pair to pair.

The record holds the host, every sample, each side's median and
quartiles, and for each end-to-end metric of BENCHMARK.json the pairs in
which the change did better (ties count for neither side), the gap
between the medians (positive when the change is better), the base's
spread between its quartiles and the failed operations.  A gain is
claimed only when the change is better in at least nine tenths of the
pairs and the gap exceeds the base's spread; ``claim_met`` records that
test for each metric.  ``regression`` gives each bounded metric's verdict
against its bound, a fraction of the base's median: ``none`` when the
change's median is no worse than the base's by more than the bound,
``worse`` when it is, and ``unresolved`` when the base's spread alone is
wider than the bound, unless every change run beats every base run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack(rev: str, dest: Path) -> str:
    """The files of commit ``rev`` in ``dest``; the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                       check=True, stdout=f)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its metrics and failed operations, or
    the error of a run that ended without a result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
                "wall_s": wall}
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "wall_s": wall}


def quartiles(xs: list) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, metric: dict) -> dict:
    """Each side's quartiles of ``metric`` over the pairs both sides
    finished, and the paired comparison."""
    name, lower = metric["name"], metric["better"] == "lower"
    done = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs
            if "metrics" in b and "metrics" in c]
    if len(done) < 2:
        return {"pairs": len(done)}
    base, change = zip(*done)
    qb, qc = quartiles(list(base)), quartiles(list(change))
    better = sum(c < b if lower else c > b for b, c in done)
    gap = (qb["median"] - qc["median"]) * (1 if lower else -1)
    out = {"better": metric["better"], "bound": metric.get("bound"),
           "pairs": len(done), "base": qb, "change": qc,
           "change_better_pairs": better, "median_gap": gap,
           "base_iqr": qb["iqr"],
           "claim_met": better >= 0.9 * len(done) and gap > qb["iqr"]}
    if out["bound"] is not None:
        allowed = out["bound"] * abs(qb["median"])
        beats_all = (max(change) < min(base) if lower
                     else min(change) > max(base))
        out["regression"] = (
            "unresolved" if qb["iqr"] > allowed and not beats_all
            else "worse" if -gap > allowed else "none")
    return out


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "load_1m": os.getloadavg()[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base commit")
    ap.add_argument("--workloads", default="train,anonymize,evaluate")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; each pair takes the next")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {"base": tmp / "base", "change": ROOT}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               check=True, capture_output=True,
                               text=True).stdout.strip()
        record = {"command": ["python3", "perfbench/run.py", "--workload", "W",
                              "--seed", "S", "--seconds", str(seconds)],
                  "base": unpack(args.base, trees["base"]),
                  "change": head + (" with uncommitted changes" if dirty
                                    else ""),
                  "host": host(), "workloads": {}}
        for workload in args.workloads.split(","):
            pairs, samples = [], []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                runs = {side: run_once(trees[side], workload, seed, seconds)
                        for side in order}
                pairs.append((runs["base"], runs["change"]))
                samples.append({"seed": seed, "first": order[0], **runs})
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{s} {runs[s].get('metrics', runs[s])}"
                                  for s in ("base", "change")),
                      file=sys.stderr, flush=True)
            record["workloads"][workload] = {
                "samples": samples,
                "failed_operations": {
                    side: sum(r.get("failed", 0) for r in runs)
                    for side, runs in zip(("base", "change"), zip(*pairs))},
                "failed_runs": {
                    side: sum("error" in r for r in runs)
                    for side, runs in zip(("base", "change"), zip(*pairs))},
                "summary": {m["name"]: summarize(pairs, m)
                            for m in spec["end_to_end"]}}
        record["host"]["load_1m_end"] = os.getloadavg()[0]
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
