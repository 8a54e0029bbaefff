#!/usr/bin/env python3
"""The ``tracemalloc`` peak of each desk CLI command, in one process.

    python3 tools/command_peaks.py --seed 1

Run from the repository root.  The commands are those of the benchmark's
set-up, on its config (``perfbench/run.py`` ``config(SETUP_STEPS)``, read
from that file): gen-world, train-backbone, train-anonymizer, anonymize
with its strategy, seca with the anonymize mapping, and an ignorant
evaluate of the anonymized world.  Each runs through ``anonflow.cli.main``
with tracing started just before it and stopped just after, so its peak
counts the memory that command allocated; command i gets seed --seed + i.
The peaks print as one JSON object, in MB, by command; a command that
fails ends the run with its exit code.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_config() -> tuple:
    """The benchmark's set-up config and anonymize strategy, from
    ``perfbench/run.py``."""
    sys.path.insert(0, str(ROOT / "perfbench"))   # run.py imports its siblings
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.config(run.SETUP_STEPS), run.STRATEGY


def command_peaks(work: Path, config: dict, strategy: str, seed: int) -> dict:
    """Run the commands in ``work`` on ``config``; each one's traced peak
    in MB, by command."""
    from anonflow import cli

    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    d = {k: work / k for k in ("world", "bb", "an", "anon", "red", "eval")}
    data = ("--data", d["world"])
    commands = {
        "gen-world": ("gen-world", "--config", cfg, "--out", d["world"]),
        "train-backbone": ("train-backbone", "--config", cfg, *data,
                           "--out", d["bb"]),
        "train-anonymizer": ("train-anonymizer", "--config", cfg, *data,
                             "--out", d["an"]),
        "anonymize": ("anonymize", *data, "--backbone", d["bb"] / "backbone",
                      "--anonymizer", d["an"] / "anonymizer",
                      "--strategy", strategy, "--out", d["anon"]),
        "seca": ("seca", "--data", d["anon"], "--backbone", d["bb"] / "backbone",
                 "--mapping", d["anon"] / "mapping.tsv", "--out", d["red"]),
        "evaluate": ("evaluate", *data, "--anon", d["anon"],
                     "--mapping", d["anon"] / "mapping.tsv",
                     "--attacker", "ignorant", "--out", d["eval"]),
    }
    peaks = {}
    for i, (name, argv) in enumerate(commands.items()):
        tracemalloc.start()
        try:
            rc = cli.main([str(a) for a in argv] + ["--seed", str(seed + i)])
            peaks[name] = round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 2)
        finally:
            tracemalloc.stop()
        if rc != 0:
            raise SystemExit(rc)
    return peaks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    config, strategy = bench_config()
    with tempfile.TemporaryDirectory(prefix="command_peaks-") as work:
        peaks = command_peaks(Path(work), config, strategy, args.seed)
    print(json.dumps(peaks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
