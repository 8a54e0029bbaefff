#!/usr/bin/env python3
"""One call timed in one process on a base commit and on the working tree.

    python3 tools/ab_inprocess.py --base HEAD --repeats 30 \
        --setup 'd = work / "w"; anonflow.cli.main(["gen-world", "--out", str(d)])' \
        --stmt 'anonflow.worldgen.load_dataset(d)'

Run from the repository root.  The base commit is unpacked with ``git
archive`` into a temporary directory, which is removed at the end.  The
``anonflow`` package of each tree is imported afresh into this process,
so both sides share the interpreter, numpy and the heap, and whole
processes' spread between runs drops out.  ``--setup`` runs once, with
the working tree's package as ``anonflow`` and ``work`` a temporary
directory.  ``--stmt`` then runs once on each side untimed, and
``--repeats`` times timed, with that side's package as ``anonflow``; the
side that runs first alternates from repeat to repeat.  One JSON line
goes to stdout: each side's median in ms, the median of the paired
differences change - base, that median over the base's median, and
every sample.  The numbers are evidence beside ``tools/bench_pairs.py``,
not a replacement for it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, unpack


def import_tree(src: Path):
    """The ``anonflow`` package of the directory ``src``, every module of
    it imported afresh; ``sys.modules`` and ``sys.path`` are left as they
    were."""
    def ours():
        return [k for k in sys.modules
                if k == "anonflow" or k.startswith("anonflow.")]
    saved = {k: sys.modules.pop(k) for k in ours()}
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("anonflow")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"anonflow.{info.name}")
        return package
    finally:
        sys.path.remove(str(src))
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def compare(srcs: dict, setup: str, stmt: str, repeats: int) -> dict:
    """Time ``stmt`` on the packages of ``srcs["base"]`` and
    ``srcs["change"]``, as the module docstring says."""
    packages = {side: import_tree(src) for side, src in srcs.items()}
    code = compile(stmt, "<stmt>", "exec")
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as work:
        shared = {"anonflow": packages["change"], "work": Path(work)}
        exec(setup, shared)
        spaces = {side: {**shared, "anonflow": package}
                  for side, package in packages.items()}
        for ns in spaces.values():
            exec(code, ns)
        ms = {"base": [], "change": []}
        for i in range(repeats):
            for side in ("base", "change") if i % 2 == 0 else ("change",
                                                                "base"):
                t0 = time.perf_counter()
                exec(code, spaces[side])
                ms[side].append(1e3 * (time.perf_counter() - t0))
    base = statistics.median(ms["base"])
    paired = statistics.median(c - b for b, c in zip(ms["base"],
                                                     ms["change"]))
    return {"repeats": repeats, "base_ms": base,
            "change_ms": statistics.median(ms["change"]),
            "paired_change_minus_base_ms": paired,
            "paired_over_base": paired / base, "samples_ms": ms}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base commit")
    ap.add_argument("--setup", default="")
    ap.add_argument("--stmt", required=True)
    ap.add_argument("--repeats", type=int, default=30)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        base = Path(tmp) / "base"
        sha = unpack(args.base, base)
        result = compare({"base": base / "src", "change": ROOT / "src"},
                         args.setup, args.stmt, args.repeats)
    print(json.dumps({"base": sha, "stmt": args.stmt, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
