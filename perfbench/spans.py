"""In-memory span tracing of anonflow's layers, driven from outside the package.

``traced(tracer)`` rebinds every traced callable at each place anonflow holds
it: the defining module, every module that imported it by name, the class
for methods, and the class property for ``WorldParams.c_pinv``.  Each call
then records one span (name, start, end, parent span, run id) plus the
layer's counts.  Spans stay in memory; ``layer_metrics`` folds them into
``<module>.<callable>.<stat>`` numbers once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _lead(a) -> int:
    """Leading-dimension items of an array-like; a 1-D vector is one row."""
    return 1 if np.ndim(a) <= 1 else int(np.shape(a)[0])


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:   # a missing file is the traced call's error to raise
        return 0


_DATASET_FILES = ("world.json", "speakers.jsonl", "utterances.jsonl",
                  "replacement_pool.jsonl")


def _dataset_bytes(d) -> int:
    return sum(_size(Path(d) / n) for n in _DATASET_FILES)


def _memo_miss(args, kwargs) -> dict:
    strategy = _arg(args, kwargs, 2, "strategy")
    sid = _arg(args, kwargs, 6, "speaker_id")
    memo = _arg(args, kwargs, 7, "memo")
    hit = (strategy.scope == "per_speaker" and memo is not None
           and sid is not None and sid in memo)
    return {"computed": 0 if hit else 1}


@dataclass(frozen=True)
class Layer:
    """One traced callable.

    target: attribute path inside ``anonflow`` ("vq.quantize",
    "nets.ConditionedField.forward", "worldgen.WorldParams.c_pinv").
    pre(args, kwargs) / post(args, kwargs, result) return extra counts;
    both run outside the span.  stats: the metrics reported for the layer
    besides ``errors``.
    """

    target: str
    stats: tuple
    name: str = ""
    pre: object = None
    post: object = None

    @property
    def span_name(self) -> str:
        return self.name or self.target


def _cli(sub: str) -> Layer:
    return Layer(f"cli.cmd_{sub.replace('-', '_')}", ("self_s",),
                 name=f"cli.{sub}")


LAYERS = (
    Layer("vq.quantize", ("calls", "rows", "self_s", "bytes"),
          pre=lambda a, k: {
              "rows": _lead(_arg(a, k, 0, "f_sem")),
              # the (B, K, E) float64 difference tensor quantize builds
              "bytes": 8 * _lead(_arg(a, k, 0, "f_sem"))
              * int(np.prod(_arg(a, k, 1, "codebook").entries.shape))}),
    Layer("vq.codebook_grad", ("self_s",)),
    Layer("nets.ConditionedField.forward", ("calls", "rows", "self_s"),
          pre=lambda a, k: {"rows": _lead(_arg(a, k, 1, "x"))}),
    Layer("nets.ConditionedField.backward", ("self_s",)),
    Layer("nets.UShapedField.forward", ("calls", "rows", "self_s"),
          pre=lambda a, k: {"rows": _lead(_arg(a, k, 1, "x"))}),
    Layer("nets.UShapedField.backward", ("self_s",)),
    Layer("nets.time_embed", ("calls", "self_s")),
    Layer("flowmath.integrate", ("calls", "rows", "self_s", "rows_per_call"),
          pre=lambda a, k: {"rows": _lead(_arg(a, k, 1, "x_init"))}),
    Layer("flowmath.cfm_loss", ("self_s",)),
    Layer("optim.AdamW.step", ("calls", "self_s")),
    Layer("checkpoint.save_checkpoint", ("bytes", "self_s"),
          post=lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))}),
    Layer("checkpoint.load_checkpoint", ("bytes", "self_s"),
          pre=lambda a, k: {"bytes": _size(_arg(a, k, 0, "path"))}),
    Layer("pitch.normalize_pitch", ("calls", "self_s")),
    Layer("worldgen.generate_world", ("self_s",)),
    Layer("worldgen.save_dataset", ("bytes", "self_s"),
          post=lambda a, k, r: {"bytes": _dataset_bytes(_arg(a, k, 1, "out_dir"))}),
    Layer("worldgen.load_dataset", ("bytes", "self_s"),
          pre=lambda a, k: {"bytes": _dataset_bytes(_arg(a, k, 0, "in_dir"))}),
    Layer("worldgen.oracle_extract_speaker", ("calls", "self_s")),
    Layer("worldgen.WorldParams.c_pinv", ("calls", "self_s")),
    Layer("worldgen.oracle_recover_tokens", ("calls", "rows", "self_s", "bytes"),
          pre=lambda a, k: {
              "rows": _lead(_arg(a, k, 0, "frames")),
              # the (T, V, F) float64 difference tensor
              "bytes": 8 * _lead(_arg(a, k, 0, "frames"))
              * int(np.prod(_arg(a, k, 3, "params").A.shape))}),
    Layer("backbone.reconstruct", ("calls", "rows", "self_s", "p50_ms", "p98_ms"),
          pre=lambda a, k: {"rows": len(_arg(a, k, 1, "frame_tokens"))}),
    Layer("anonymizer.anonymize_speaker", ("calls", "computed",
                                           "computed_per_call"),
          pre=_memo_miss),
    Layer("content.detect_pii", ("self_s",)),
    Layer("content.apply_edits", ("self_s",)),
    Layer("content.anonymize_content", ("self_s",)),
    Layer("content.match_replacement", ("calls", "unmatched")),
    Layer("evaluation.compute_eer", ("calls", "rows", "self_s"),
          pre=lambda a, k: {"rows": len(_arg(a, k, 0, "scores"))}),
    Layer("evaluation.score_trials", ("rows", "self_s"),
          pre=lambda a, k: {"rows": len(_arg(a, k, 0, "trials"))}),
    Layer("evaluation.run_attack", ("self_s",)),
    Layer("evaluation.utility_probes", ("self_s",)),
    Layer("evaluation.acoustic_embeddings", ("self_s",)),
    Layer("evaluation.build_trials", ("self_s",)),
    _cli("gen-world"),
    _cli("train-backbone"),
    _cli("train-anonymizer"),
    _cli("anonymize"),
    _cli("seca"),
    _cli("evaluate"),
    Layer("cli.write_manifest", ("bytes", "self_s"),
          post=lambda a, k, r: {"bytes": _size(
              Path(_arg(a, k, 0, "out_dir")) / "manifest.json")}),
)

# Layers that only set-up calls; their numbers come from the traced set-up.
SETUP_LAYERS = ("worldgen.generate_world", "pitch.normalize_pitch")

_STAT_UNITS = {"calls": ("count", "lower"), "rows": ("count", "higher"),
               "self_s": ("s", "lower"), "bytes": ("B", "lower"),
               "rows_per_call": ("rows/call", "higher"),
               "computed": ("count", "lower"),
               "computed_per_call": ("ratio", "lower"),
               "unmatched": ("count", "lower"),
               "p50_ms": ("ms", "lower"), "p98_ms": ("ms", "lower"),
               "errors": ("count", "lower")}

TRACE_METRICS = (("trace.traced_pass_s", "s", "lower"),
                 ("trace.untraced_pass_s", "s", "lower"),
                 ("trace.overhead_s", "s", "lower"),
                 ("trace.spans", "count", "lower"))


def per_layer_spec() -> list:
    """Every per-layer metric as BENCHMARK.json declares it."""
    out = []
    for layer in LAYERS:
        for stat in layer.stats + ("errors",):
            unit, better = _STAT_UNITS[stat]
            out.append({"name": f"{layer.span_name}.{stat}", "unit": unit,
                        "better": better})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in TRACE_METRICS]
    return out


# ---------------------------------------------------------------------------
# spans

@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root
    run_id: str
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one synchronous process in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.run_id = ""
        self._stack: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = self.clock()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def run(self, run_id: str):
        """A root span named ``run_id``; spans opened inside carry the id."""
        outer = self.run_id
        self.run_id = run_id
        idx = self._open(run_id)
        try:
            yield idx
        finally:
            self._close(idx)
            self.run_id = outer

    def call(self, layer: Layer, fn, args, kwargs):
        counts = layer.pre(args, kwargs) if layer.pre else {}
        idx = self._open(layer.span_name)
        span = self.spans[idx]
        span.counts = counts
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span.error = type(e).__name__
            raise
        finally:
            self._close(idx)
        if layer.post:
            counts.update(layer.post(args, kwargs, result))
        return result


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def subtree(spans, root: int) -> list:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def layer_metrics(spans, selfs, keep) -> dict:
    """Aggregate the spans whose index is in ``keep`` into per-layer stats."""
    by_name = {layer.span_name: layer for layer in LAYERS}
    acc = {name: {"calls": 0, "rows": 0, "self_s": 0.0, "bytes": 0,
                  "computed": 0, "unmatched": 0, "errors": 0, "durs": []}
           for name in by_name}
    for i in keep:
        s = spans[i]
        a = acc.get(s.name)
        if a is None:
            continue
        a["calls"] += 1
        a["self_s"] += selfs[i]
        a["durs"].append(s.end - s.start)
        for k in ("rows", "bytes", "computed"):
            a[k] += s.counts.get(k, 0)
        if s.error is not None:
            a["errors"] += 1
            a["unmatched"] += s.error == "UnmatchedEntityError"
    out = {}
    for name, layer in by_name.items():
        a = acc[name]
        calls = a["calls"]
        derived = {
            "rows_per_call": a["rows"] / calls if calls else 0.0,
            "computed_per_call": a["computed"] / calls if calls else 0.0,
            "p50_ms": 1e3 * float(np.percentile(a["durs"], 50)) if calls else 0.0,
            "p98_ms": 1e3 * float(np.percentile(a["durs"], 98)) if calls else 0.0,
        }
        for stat in layer.stats + ("errors",):
            out[f"{name}.{stat}"] = derived[stat] if stat in derived else a[stat]
    return out


# ---------------------------------------------------------------------------
# rebinding

def _modules() -> list:
    import anonflow
    names = ["anonflow"] + [f"anonflow.{m.name}"
                            for m in pkgutil.iter_modules(anonflow.__path__)]
    return [importlib.import_module(n) for n in names]


def _resolve(target: str):
    """(owner, attribute, original) for a target path below ``anonflow``."""
    mod_name, *path = target.split(".")
    owner = importlib.import_module(f"anonflow.{mod_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], vars(owner)[path[-1]]


def _holders(modules, obj) -> list:
    """(namespace owner, attribute) pairs whose value is ``obj``."""
    out = []
    for m in modules:
        for name, value in list(vars(m).items()):
            if value is obj:
                out.append((m, name))
            elif isinstance(value, type) and value.__module__ == m.__name__:
                out += [(value, k) for k, v in list(vars(value).items())
                        if v is obj]
    return out


def _strays(modules, originals: dict) -> list:
    """Places that still hold an original after rebinding: module globals,
    class attributes, containers at module level and function defaults."""
    def refs(value):
        if isinstance(value, dict):
            return list(value.values())
        if isinstance(value, (list, tuple, set, frozenset)):
            return list(value)
        if isinstance(value, type):
            return list(vars(value).values())
        if isinstance(value, types.FunctionType):
            return list(value.__defaults__ or ()) + list(
                (value.__kwdefaults__ or {}).values())
        return []

    found = []
    for m in modules:
        for name, value in list(vars(m).items()):
            if id(value) in originals or any(id(r) in originals
                                             for r in refs(value)):
                found.append(f"{m.__name__}.{name}")
    return found


def _is_wrapper(value) -> bool:
    if isinstance(value, property):
        value = value.fget
    return hasattr(value, "__perfbench_layer__")


def leftover_wrappers(modules=None) -> list:
    """Names of anonflow attributes still bound to a tracing wrapper."""
    modules = modules if modules is not None else _modules()
    found = []
    for m in modules:
        for name, value in list(vars(m).items()):
            if _is_wrapper(value):
                found.append(f"{m.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == m.__name__:
                found += [f"{m.__name__}.{value.__name__}.{k}"
                          for k, v in list(vars(value).items())
                          if _is_wrapper(v)]
    return found


def _wrap(tracer: Tracer, layer: Layer, fn):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs)
    traced_call.__perfbench_layer__ = layer.span_name
    return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Rebind every layer at every site that holds it; restore on exit.

    Raises RuntimeError if, after rebinding, any anonflow module or class
    still holds an original, or if, after restoring, any wrapper is left.
    """
    modules = _modules()
    rebound = []   # (owner, attribute, original value)
    try:
        for layer in LAYERS:
            owner, attr, orig = _resolve(layer.target)
            if isinstance(orig, property):
                new = property(_wrap(tracer, layer, orig.fget))
            else:
                new = _wrap(tracer, layer, orig)
            sites = _holders(modules, orig)
            if (owner, attr) not in sites:
                raise RuntimeError(f"{layer.target} not found at its definition")
            for site_owner, site_attr in sites:
                rebound.append((site_owner, site_attr, orig))
                setattr(site_owner, site_attr, new)
        missed = _strays(modules, {id(orig): orig for _, _, orig in rebound})
        if missed:
            raise RuntimeError(f"unwrapped references remain: {missed}")
        yield tracer
    finally:
        for owner, attr, orig in reversed(rebound):
            setattr(owner, attr, orig)
        left = leftover_wrappers(modules)
        if left:
            raise RuntimeError(f"tracing wrappers left behind: {left}")
