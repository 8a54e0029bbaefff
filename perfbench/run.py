#!/usr/bin/env python3
"""Desk-pipeline benchmark for anonflow.

    python3 perfbench/run.py --workload {train,anonymize,evaluate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every command goes through
``anonflow.cli.main`` in this one process, on the acceptance-fixture desk
world (64 speakers x 12 utterances, V = 628).  ``--trace 0`` sets up
up to three times, then repeats the workload's timed pass until
``--seconds`` have passed (at least twice) and reports medians.  ``--trace 1`` sets up
once under tracing, runs one untraced and one traced pass, and reports
per-layer numbers.  The last stdout line is the JSON result; a record with
the host, every sample and every failed check goes to
``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORLD = {"D": 16, "F": 24, "v_common": 80, "n_speakers": 64,
         "utts_per_speaker": 12, "noise_sigma": 0.1,
         "duration_range": [6.0, 12.0], "pii_frac": 0.4}
BACKBONE = {"hidden": [128, 128], "batch": 256}     # K = V + 64 by default
ANONYMIZER = {"batch": 128, "n_embeddings": 10_000}  # (16,8,4,2,4,8,16)
# set-up only needs usable checkpoints; the train workload times real steps
SETUP_STEPS = {"backbone": 30, "anonymizer": 100}
TRAIN_STEPS = {"backbone": 50, "anonymizer": 350}
STRATEGY, W = "fixed:0.5", 0.5
# set-up repeats up to SETUP_REPS times while the set-ups so far took less
# than SETUP_SECONDS: train and anonymize set up two or three times, evaluate
# (about 10 s) once, so that every run stays under a minute
SETUP_REPS, SETUP_SECONDS = 3, 5.0
# the determinism check needs a second pass to compare with the first
MIN_PASSES = 2


class CommandFailed(RuntimeError):
    pass


def config(steps: dict) -> dict:
    return {"world": WORLD,
            "backbone": {**BACKBONE, "steps": steps["backbone"]},
            "anonymizer": {**ANONYMIZER, "steps": steps["anonymizer"]}}


class Bench:
    """Runs CLI commands in-process and counts operations and failures."""

    def __init__(self, cli_main, seed: int):
        self.cli_main = cli_main
        # one seed per command, all derived from the workload seed
        self.seeds = [str(int(s)) for s in
                      np.random.SeedSequence(seed).generate_state(11)]
        self.attempted = 0
        self.failures: list = []

    def cli(self, *argv) -> float:
        argv = [str(a) for a in argv]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.cli_main(argv)
        except Exception as e:   # a traceback is a failed command, not a crash
            rc = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        if rc != 0:
            self.failures.append(f"{argv[0]} failed ({rc})")
            raise CommandFailed(f"{' '.join(argv)}: {rc}")
        return wall

    def check(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


# ---------------------------------------------------------------------------
# set-up and timed passes

def setup(b: Bench, d: Path, workload: str) -> dict:
    """World (and, past train, short-trained checkpoints and inputs)."""
    d.mkdir(parents=True)
    cfg = d / "setup.json"
    cfg.write_text(json.dumps(config(SETUP_STEPS)))
    s = b.seeds
    dirs = {"world": d / "world"}
    b.cli("gen-world", "--config", cfg, "--seed", s[0], "--out", dirs["world"])
    if workload == "train":
        return dirs
    dirs.update(bb=d / "bb", an=d / "an")
    b.cli("train-backbone", "--config", cfg, "--seed", s[1],
          "--data", dirs["world"], "--out", dirs["bb"])
    b.cli("train-anonymizer", "--config", cfg, "--seed", s[2],
          "--data", dirs["world"], "--out", dirs["an"])
    if workload == "anonymize":
        return dirs
    dirs.update(anon=d / "anon", red=d / "red")
    run_anonymize(b, dirs, dirs)
    # all-pairs list: every speaker enrolled against every utterance
    speakers = [sp["id"] for sp in
                checks.read_jsonl(dirs["world"] / "speakers.jsonl")]
    utts = [(u["id"], u["speaker_id"])
            for u in checks.read_jsonl(dirs["world"] / "utterances.jsonl")]
    with open(d / "allpairs.tsv", "w") as f:
        for sid in speakers:
            for uid, owner in utts:
                f.write(f"{sid}\t{uid}\t{int(owner == sid)}\n")
    return dirs


def run_train(b: Bench, st: dict, d: Path):
    d.mkdir(parents=True)
    cfg = d / "train.json"
    cfg.write_text(json.dumps(config(TRAIN_STEPS)))
    dirs = {"bb": d / "bb", "an": d / "an"}
    walls = {
        "train_backbone": b.cli("train-backbone", "--config", cfg, "--seed",
                                b.seeds[3], "--data", st["world"],
                                "--out", dirs["bb"]),
        "train_anonymizer": b.cli("train-anonymizer", "--config", cfg, "--seed",
                                  b.seeds[4], "--data", st["world"],
                                  "--out", dirs["an"]),
    }
    return walls, dirs


def run_anonymize(b: Bench, st: dict, out: dict):
    walls = {
        "anonymize": b.cli("anonymize", "--data", st["world"],
                           "--backbone", st["bb"] / "backbone",
                           "--anonymizer", st["an"] / "anonymizer",
                           "--strategy", STRATEGY, "--seed", b.seeds[5],
                           "--out", out["anon"]),
        "seca": b.cli("seca", "--data", out["anon"],
                      "--backbone", st["bb"] / "backbone",
                      "--mapping", out["anon"] / "mapping.tsv",
                      "--seed", b.seeds[6], "--out", out["red"]),
    }
    return walls, out


def run_evaluate(b: Bench, st: dict, d: Path):
    dirs = {k: d / k for k in ("ignorant", "lazy", "content", "allpairs")}
    allpairs = st["world"].parent / "allpairs.tsv"   # written by set-up
    base = ("evaluate", "--data", st["world"])
    walls = {
        "evaluate_ignorant": b.cli(
            *base, "--anon", st["anon"], "--mapping", st["anon"] / "mapping.tsv",
            "--attacker", "ignorant", "--seed", b.seeds[7],
            "--out", dirs["ignorant"]),
        "evaluate_lazy": b.cli(
            *base, "--anon", st["anon"], "--attacker", "lazy",
            "--anonymizer", st["an"] / "anonymizer", "--strategy", STRATEGY,
            "--seed", b.seeds[8], "--out", dirs["lazy"]),
        "evaluate_content": b.cli(
            *base, "--anon", st["red"], "--mode", "content",
            "--seed", b.seeds[9], "--out", dirs["content"]),
        "evaluate_allpairs": b.cli(
            *base, "--anon", st["anon"], "--trials", allpairs,
            "--attacker", "ignorant", "--seed", b.seeds[10],
            "--out", dirs["allpairs"]),
    }
    return walls, dirs


def run_pass(b: Bench, workload: str, st: dict, d: Path):
    if workload == "train":
        return run_train(b, st, d)
    if workload == "anonymize":
        return run_anonymize(b, st, {"anon": d / "anon", "red": d / "red"})
    return run_evaluate(b, st, d)


# ---------------------------------------------------------------------------
# output checks

class World:
    """What the checks need to know about the generated world."""

    def __init__(self, world: Path):
        self.utts = checks.read_jsonl(world / "utterances.jsonl")
        # the checks need frame shapes only; drop the frames' Python floats
        for u in self.utts:
            u["frame_shape"] = checks.frame_shape(u)
            del u["frames"], u["f0_hz"]
        self.n_speakers = len((world / "speakers.jsonl").read_text().splitlines())
        self.n_utts = len(self.utts)
        self.n_frames = sum(u["frame_shape"][0] for u in self.utts)
        self.n_pii = sum(bool(u["entity_spans"]) for u in self.utts)
        self.V = json.loads((world / "world.json").read_text())["V"]


def check_setup(b: Bench, world: World, workload: str, st: dict) -> None:
    b.check(None if (world.n_speakers, world.n_utts)
            == (WORLD["n_speakers"], WORLD["n_speakers"] * WORLD["utts_per_speaker"])
            else f"gen-world: {world.n_speakers} speakers, {world.n_utts} utterances")
    if workload == "evaluate":
        b.check(checks.check_anonymize(world.utts, st["anon"], world.n_speakers, W))
        b.check(checks.check_seca(st["anon"], st["red"]))


def check_pass(b: Bench, world: World, workload: str, dirs: dict) -> None:
    if workload == "train":
        from anonflow.anonymizer import load_anonymizer
        from anonflow.backbone import load_backbone
        b.check(checks.check_loss_trace(dirs["bb"] / "trace.jsonl"))
        # content_dim is 16; the first layer sees frame, content and pitch
        h = BACKBONE["hidden"]
        b.check(checks.check_tensors(
            "backbone", load_backbone(dirs["bb"] / "backbone").tensors(),
            {"backbone/codebook": (world.V + 64, 16),
             "backbone/lay1.W": (h[0], WORLD["F"] + 17),
             "backbone/lay2.W": (h[1], h[0])}))
        b.check(checks.check_tensors(
            "anonymizer", load_anonymizer(dirs["an"] / "anonymizer").tensors(),
            {"anonymizer/time_proj.W": (16, 16), "anonymizer/lin3.W": (2, 4)}))
    elif workload == "anonymize":
        b.check(checks.check_anonymize(world.utts, dirs["anon"],
                                       world.n_speakers, W))
        b.check(checks.check_seca(dirs["anon"], dirs["red"]))
    else:
        acoustic = 4 * world.n_utts
        b.check(checks.check_eer(dirs["ignorant"], "a_eer", acoustic))
        b.check(checks.check_utility(dirs["ignorant"]))
        b.check(checks.check_eer(dirs["lazy"], "a_eer", acoustic))
        b.check(checks.check_eer(dirs["content"], "c_eer", 4 * world.n_pii))
        b.check(checks.check_eer(dirs["allpairs"], "a_eer",
                                 world.n_speakers * world.n_utts))


def per_command_metrics(workload: str, walls: dict, world: World) -> dict:
    """The issue-named rates of each command, from median command walls."""
    med = {k: statistics.median(v) for k, v in walls.items()}
    if workload == "train":
        return {
            "train_backbone.steps_per_s":
                (TRAIN_STEPS["backbone"] / med["train_backbone"], "steps/s"),
            "train_anonymizer.steps_per_s":
                (TRAIN_STEPS["anonymizer"] / med["train_anonymizer"], "steps/s")}
    if workload == "anonymize":
        return {"anonymize.frames_per_s": (world.n_frames / med["anonymize"], "frames/s"),
                "seca.utts_per_s": (world.n_utts / med["seca"], "utts/s")}
    return {
        "evaluate_ignorant.trials_per_s":
            (4 * world.n_utts / med["evaluate_ignorant"], "trials/s"),
        "evaluate_lazy.enroll_utts_per_s":
            (world.n_utts / med["evaluate_lazy"], "utts/s"),
        "evaluate_allpairs.trials_per_s":
            (world.n_speakers * world.n_utts / med["evaluate_allpairs"], "trials/s"),
        "evaluate.pass_s": (pass_seconds(walls), "s")}


def pass_seconds(walls: dict) -> float:
    """One pass: the sum over its commands of each command's median wall
    time."""
    return sum(statistics.median(v) for v in walls.values())


# ---------------------------------------------------------------------------
# host record

def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "load_1m": [os.getloadavg()[0]]}


def _blas_threads():
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


# ---------------------------------------------------------------------------

def untraced_run(b: Bench, workload: str, seconds: float, work: Path) -> dict:
    setup_s, setups = [], []
    while not setups or (len(setups) < SETUP_REPS
                         and sum(setup_s) < SETUP_SECONDS):
        t0 = time.perf_counter()
        setups.append(setup(b, work / f"setup-{len(setups)}", workload))
        setup_s.append(time.perf_counter() - t0)
    walls: dict = {}
    outputs = []
    t_start = time.perf_counter()
    while len(outputs) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        gc.collect()   # every pass starts from a collected heap
        w, dirs = run_pass(b, workload, setups[0], work / f"pass-{len(outputs)}")
        for name, v in w.items():
            walls.setdefault(name, []).append(v)
        outputs.append(dirs)
    # read before any check, so that it is the program's peak, not the checker's
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    world = check_all(b, workload, setups, outputs)
    return {"metrics": {"setup_s": (statistics.median(setup_s), "s"),
                        "pass_s": (pass_seconds(walls), "s"),
                        "peak_rss_mb": (peak_mb, "MB")},
            "named": per_command_metrics(workload, walls, world),
            "passes": len(outputs), "samples": {"setup_s": setup_s, **walls}}


def check_all(b: Bench, workload: str, setups: list, outputs: list) -> World:
    """Every output check on every set-up and pass; repeats must match the
    first set-up or pass exactly."""
    world = World(setups[0]["world"])
    for i, st in enumerate(setups):
        check_setup(b, world if i == 0 else World(st["world"]), workload, st)
        if i:
            b.check(checks.check_same_manifests(setups[0], st))
    for i, dirs in enumerate(outputs):
        check_pass(b, world, workload, dirs)
        if i:
            b.check(checks.check_same_manifests(outputs[0], dirs))
    return world


def traced_run(b: Bench, workload: str, work: Path) -> dict:
    tracer = spans.Tracer()
    with spans.traced(tracer):
        with tracer.run("setup") as setup_root:
            st = setup(b, work / "setup-0", workload)
    gc.collect()
    walls_u, dirs_u = run_pass(b, workload, st, work / "pass-0")
    gc.collect()
    with spans.traced(tracer):
        with tracer.run("pass") as pass_root:
            walls_t, dirs_t = run_pass(b, workload, st, work / "pass-1")
    b.check(None if not spans.leftover_wrappers() else "tracing wrappers left")
    # the traced pass must write what the untraced one wrote
    check_all(b, workload, [st], [dirs_u, dirs_t])

    sp = tracer.spans
    selfs = spans.self_times(sp)
    metrics = spans.layer_metrics(sp, selfs, spans.subtree(sp, pass_root))
    setup_m = spans.layer_metrics(sp, selfs, spans.subtree(sp, setup_root))
    metrics.update({k: v for k, v in setup_m.items()
                    if k.startswith(spans.SETUP_LAYERS)})
    # each command's self times must add up to its traced wall time
    worst = max(abs(sum(selfs[j] for j in spans.subtree(sp, i))
                    - (sp[i].end - sp[i].start))
                for i, s in enumerate(sp) if s.parent == pass_root)
    b.check(None if worst < 1e-6 else f"self times miss wall time by {worst}s")
    traced_s, untraced_s = sum(walls_t.values()), sum(walls_u.values())
    metrics.update({"trace.traced_pass_s": traced_s,
                    "trace.untraced_pass_s": untraced_s,
                    "trace.overhead_s": traced_s - untraced_s,
                    "trace.spans": len(sp)})
    units = {m["name"]: m["unit"] for m in spans.per_layer_spec()}
    return {"metrics": {k: (v, units[k]) for k, v in metrics.items()},
            "named": {}, "passes": 2,
            "samples": {"untraced": walls_u, "traced": walls_t}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train", "anonymize", "evaluate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "anonflow" / "cli.py").is_file():
        print(f"perfbench: no anonflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from anonflow import cli

    host = host_record()
    b = Bench(cli.main, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            res = traced_run(b, args.workload, work)
        else:
            res = untraced_run(b, args.workload, args.seconds, work)
    except CommandFailed as e:
        print(f"perfbench: command failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["load_1m"].append(os.getloadavg()[0])

    failed = len(b.failures)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "attempted": b.attempted, "failed": failed,
              "failures": b.failures, "passes": res["passes"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, v, u in _rows(res["metrics"])},
              "named_metrics": {k: {"value": v, "unit": u}
                                for k, v, u in _rows(res["named"])},
              "samples": res["samples"]}
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for reason in b.failures:
        print(f"FAILED  {reason}")
    for k, v, u in _rows(res["named"]) + _rows(res["metrics"]):
        print(f"{k:44s} {v:14.6g} {u}")
    print(f"{'ops_attempted':44s} {b.attempted:14d} count")
    print(f"{'ops_failed':44s} {failed:14d} count")
    print(json.dumps({"correct": failed == 0, "attempted": b.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def _rows(metrics: dict) -> list:
    return [(k, v, u) for k, (v, u) in metrics.items()]


if __name__ == "__main__":
    sys.exit(main())
