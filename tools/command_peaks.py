#!/usr/bin/env python3
"""The ``tracemalloc`` peak of each desk CLI command, in one process.

    python3 tools/command_peaks.py --seed 1

Run from the repository root.  The commands are those of the benchmark's
set-up, on its config (``perfbench/run.py`` ``config(SETUP_STEPS)``, read
from that file): gen-world, train-backbone, train-anonymizer, anonymize
with its strategy, seca with the anonymize mapping, and an ignorant
evaluate of the anonymized world.  Each runs through ``anonflow.cli.main``
with tracing started just before it and stopped just after, so its peak
counts the memory that command allocated; a garbage collection before
each start keeps the previous commands' collector timing out of the
peak.  Command i gets seed --seed + i.
The peaks print as one JSON object, in MB, by command.  A second JSON
object gives, by command, the modules that command imported first: each
package that was not in ``sys.modules`` before it and is after, without
its submodules, so that a lazy import shows beside the peak it lifts.  A
command that fails ends the run with its exit code.
"""

from __future__ import annotations

import argparse
import gc
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


def first_imports(before) -> list:
    """The modules in ``sys.modules`` that are not in ``before``, sorted,
    without those whose parent package is among them."""
    new = sys.modules.keys() - before
    return sorted(m for m in new if m.rpartition(".")[0] not in new)


def command_peaks(work: Path, config: dict, strategy: str, seed: int) -> tuple:
    """Run the commands in ``work`` on ``config``; each one's traced peak
    in MB, and the modules it imported first, by command."""
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
    peaks, imports = {}, {}
    for i, (name, argv) in enumerate(commands.items()):
        before = set(sys.modules)
        gc.collect()
        tracemalloc.start()
        try:
            rc = cli.main([str(a) for a in argv] + ["--seed", str(seed + i)])
            peaks[name] = round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 2)
        finally:
            tracemalloc.stop()
        imports[name] = first_imports(before)
        if rc != 0:
            raise SystemExit(rc)
    return peaks, imports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    config, strategy = bench_config()
    with tempfile.TemporaryDirectory(prefix="command_peaks-") as work:
        peaks, imports = command_peaks(Path(work), config, strategy, args.seed)
    print(json.dumps(peaks))
    print(json.dumps(imports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
