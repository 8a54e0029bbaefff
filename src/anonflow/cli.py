"""Command-line surface: world generation, training, anonymization,
content redaction, trial construction, evaluation, and report/radar output.

Every subcommand writes its artifacts under ``--out`` together with a
``manifest.json`` recording inputs, seeds, and content hashes so that a
rerun with identical inputs produces identical bytes.  Exit codes:
0 success, 2 configuration error, 3 numerical divergence, 4 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .anonymizer import (AnonymizerConfig, WeightStrategy, anonymize_dataset,
                         load_anonymizer, load_mapping, save_anonymizer,
                         save_mapping, train_anonymizer)
from .backbone import BackboneConfig, load_backbone, save_backbone, train_backbone
from .checkpoint import (AT_LEAST_1, TRAINING_RANGES, config_section,
                         replace_text)
from .content import (ReplacementPool, anonymize_content, build_gazetteer,
                      save_edit_reports, save_gazetteer)
from .errors import ConfigError, DataError, DivergenceError, InputError
from .evaluation import (build_trials, load_trials, run_attack, save_scores,
                         save_trials)
from .worldgen import (DATASET_FILES, WorldConfig, load_dataset, load_params,
                       sample_speaker_embeddings, save_dataset, sha256_file)


# ---------------------------------------------------------------------------
# radar normalization

@dataclass(frozen=True)
class RadarEntry:
    name: str
    v_min: float
    v_max: float
    direction: str   # "higher" | "lower"

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ConfigError(f"radar range for {self.name} needs v_min < v_max")
        if self.direction not in ("higher", "lower"):
            raise ConfigError(f"unknown radar direction {self.direction!r}")


RADAR_DEFAULTS = (
    RadarEntry("WER", 0.0, 50.0, "lower"),
    RadarEntry("UTMOS", 1.0, 4.5, "higher"),
    RadarEntry("SECS", 0.0, 0.7, "higher"),
    RadarEntry("WA", 0.0, 90.0, "higher"),
    RadarEntry("A-EER", 0.0, 75.0, "higher"),
    RadarEntry("C-EER", 0.0, 50.0, "higher"),
)


def radar_normalize(v_raw: float, entry: RadarEntry) -> float:
    """Map a raw metric onto [0,1] so larger is always better, clamped."""
    x = (v_raw - entry.v_min) / (entry.v_max - entry.v_min)
    if entry.direction == "lower":
        x = 1.0 - x
    return float(min(1.0, max(0.0, x)))


# ---------------------------------------------------------------------------
# manifest plumbing

def write_manifest(out_dir: Path, command: str, inputs: dict,
                   seeds: dict, outputs) -> None:
    """inputs: name -> existing path (hashed); outputs: paths inside out_dir.

    Each command calls this last, once its outputs are in place; the
    manifest replaces an old one only once it is written."""
    manifest = {
        "command": command,
        "version": __version__,
        "seeds": seeds,
        "inputs": {k: {"file": Path(p).name, "sha256": sha256_file(p)}
                   for k, p in inputs.items()},
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    replace_text(out_dir / "manifest.json",
                 json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _load_config(path, section: str, defaults: dict) -> dict:
    """The ``section`` object of a JSON config, checked against
    ``defaults`` by ``config_section``."""
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return config_section(doc, section, defaults, path, ConfigError)


# range rules of the command-line values: dest -> (test, what it asks)
ARG_RANGES = {"seed": TRAINING_RANGES["seed"], "steps": AT_LEAST_1,
              "p_asr": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")}


def check_args(args) -> None:
    """Raise ConfigError naming the flag of the first value out of range;
    the flags a command does not have are skipped."""
    for dest, (ok, rule) in ARG_RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be {rule}, "
                              f"got {value!r}")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_world(args) -> int:
    config = WorldConfig(**_load_config(args.config, "world",
                                        asdict(WorldConfig())))
    ds = config.generate(args.seed)
    out = _outdir(args)
    save_dataset(ds, out)
    write_manifest(out, "gen-world", {}, {"seed": args.seed},
                   [out / n for n in DATASET_FILES])
    return 0


def cmd_train_backbone(args) -> int:
    ds = load_dataset(args.data)
    cfg_dict = _load_config(args.config, "backbone", asdict(BackboneConfig()))
    cfg_dict.setdefault("codebook_size", ds.params.V + 64)
    config = BackboneConfig(**{**cfg_dict, "seed": args.seed})
    model, trace = train_backbone(ds, config, np.random.default_rng(args.seed))
    out = _outdir(args)
    save_backbone(model, out / "backbone")
    replace_text(out / "trace.jsonl", "".join(
        json.dumps(t) + "\n" for t in trace[:: max(1, len(trace) // 200)]))
    write_manifest(out, "train-backbone",
                   {"world": Path(args.data) / "world.json"},
                   {"seed": args.seed},
                   [out / "backbone.ckpt", out / "backbone.json"])
    return 0


def cmd_train_anonymizer(args) -> int:
    params = load_params(args.data)
    defaults = {**asdict(AnonymizerConfig()), "n_embeddings": 10_000}
    cfg_dict = _load_config(args.config, "anonymizer", defaults)
    n_embeddings = cfg_dict.pop("n_embeddings", defaults["n_embeddings"])
    if n_embeddings < 2:
        raise ConfigError(f"anonymizer.n_embeddings must be >= 2, "
                          f"got {n_embeddings!r}")
    cfg_dict.setdefault("level_dims", _level_dims_for(params.D))
    config = AnonymizerConfig(**{**cfg_dict, "seed": args.seed})
    rng = np.random.default_rng(args.seed)
    emb = sample_speaker_embeddings(params, n_embeddings, rng)
    model, _ = train_anonymizer(emb, config, rng)
    out = _outdir(args)
    save_anonymizer(model, out / "anonymizer")
    write_manifest(out, "train-anonymizer",
                   {"world": Path(args.data) / "world.json"},
                   {"seed": args.seed},
                   [out / "anonymizer.ckpt", out / "anonymizer.json"])
    return 0


def _level_dims_for(d: int) -> tuple:
    dims = [d]
    while dims[-1] > 2:
        dims.append(max(2, dims[-1] // 2))
    return tuple(dims + dims[-2::-1])


def cmd_anonymize(args) -> int:
    strategy = WeightStrategy.parse(args.strategy)
    ds = load_dataset(args.data)
    backbone = load_backbone(Path(args.backbone))
    anonymizer = load_anonymizer(Path(args.anonymizer))
    anon, mapping = anonymize_dataset(backbone, anonymizer, ds, strategy,
                                      args.steps,
                                      np.random.default_rng(args.seed))
    out = _outdir(args)
    save_dataset(anon, out)
    save_mapping(mapping, out / "mapping.tsv")
    write_manifest(out, "anonymize",
                   {"world": Path(args.data) / "world.json",
                    "backbone": Path(args.backbone).with_suffix(".ckpt"),
                    "anonymizer": Path(args.anonymizer).with_suffix(".ckpt")},
                   {"seed": args.seed, "strategy": args.strategy},
                   [out / "utterances.jsonl", out / "mapping.tsv"])
    return 0


def cmd_seca(args) -> int:
    ds = load_dataset(args.data)
    backbone = load_backbone(Path(args.backbone))
    gaz = build_gazetteer(ds)
    pool = ReplacementPool(ds.pool)
    mapping = load_mapping(args.mapping, ds) if args.mapping else None
    edited, reports = anonymize_content(
        backbone, ds, pool, gaz, args.steps, np.random.default_rng(args.seed),
        mapping=mapping, p_asr=args.p_asr)
    out = _outdir(args)
    save_dataset(edited, out)
    save_gazetteer(gaz, out / "gazetteer.jsonl")
    save_edit_reports(reports, out / "edits.jsonl")
    write_manifest(out, "seca",
                   {"world": Path(args.data) / "world.json",
                    "backbone": Path(args.backbone).with_suffix(".ckpt")},
                   {"seed": args.seed, "p_asr": args.p_asr},
                   [out / "utterances.jsonl", out / "edits.jsonl"])
    return 0


def cmd_build_trials(args) -> int:
    ds = load_dataset(args.data)
    trials = build_trials(ds, args.mode, np.random.default_rng(args.seed))
    out = _outdir(args)
    save_trials(trials, out / "trials.tsv")
    write_manifest(out, "build-trials",
                   {"world": Path(args.data) / "world.json"},
                   {"seed": args.seed, "mode": args.mode}, [out / "trials.tsv"])
    return 0


def cmd_evaluate(args) -> int:
    """Score one attacker; ``--strategy`` and ``--anonymizer`` are checked
    whenever they are given, though only the lazy attacker uses them."""
    attacker = {"ignorant": "ignorant", "lazy": "lazy_informed",
                "lazy_informed": "lazy_informed"}[args.attacker]
    strategy = (None if args.strategy is None
                else WeightStrategy.parse(args.strategy))
    if attacker == "lazy_informed" and (args.anonymizer is None
                                        or strategy is None):
        raise ConfigError("lazy attacker needs --anonymizer and --strategy")
    anonymizer = (None if args.anonymizer is None
                  else load_anonymizer(Path(args.anonymizer)))
    ds_orig = load_dataset(args.data)
    ds_anon = load_dataset(args.anon)
    mapping = load_mapping(args.mapping, ds_anon) if args.mapping else None
    trials = load_trials(args.trials) if args.trials else None
    report = run_attack(ds_orig, ds_anon, mapping, attacker, args.mode,
                        np.random.default_rng(args.seed), anonymizer=anonymizer,
                        strategy=strategy, steps=args.steps, trials=trials)
    out = _outdir(args)
    save_trials(report.trials, out / "trials.tsv")
    save_scores(report.trials, report.scores, out / "scores.tsv")
    doc = report.to_dict()
    doc["config"] = {"attacker": args.attacker, "mode": args.mode,
                     "seed": args.seed, "strategy": args.strategy}
    replace_text(out / "report.json",
                 json.dumps(doc, indent=1, sort_keys=True) + "\n")
    inputs = {"world": Path(args.data) / "world.json",
              "anon": Path(args.anon) / "utterances.jsonl"}
    if args.mapping:
        inputs["mapping"] = Path(args.mapping)
    write_manifest(out, "evaluate", inputs,
                   {"seed": args.seed, "attacker": args.attacker,
                    "mode": args.mode},
                   [out / "trials.tsv", out / "scores.tsv", out / "report.json"])
    return 0


def cmd_report(args) -> int:
    """Aggregate raw metric values into a radar CSV (metric, raw, normalized)."""
    try:
        metrics = json.loads(Path(args.metrics).read_text())
    except FileNotFoundError as e:
        raise DataError(f"metrics file not found: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"metrics file is not valid JSON: {e}") from e
    spec = {e.name: e for e in RADAR_DEFAULTS}
    out = _outdir(args)
    lines = ["metric,raw,normalized"]
    for name in sorted(metrics):
        if name not in spec:
            raise ConfigError(f"no radar range declared for metric {name!r}")
        v = float(metrics[name])
        lines.append(f"{name},{v:.9g},{radar_normalize(v, spec[name]):.4f}")
    replace_text(out / "radar.csv", "\n".join(lines) + "\n")
    write_manifest(out, "report", {"metrics": Path(args.metrics)}, {},
                   [out / "radar.csv"])
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="anonflow")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None)
        if data:
            p.add_argument("--data", required=True,
                           help="dataset directory from gen-world")

    p = sub.add_parser("gen-world", help="generate a synthetic speaker world")
    common(p, data=False)
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("train-backbone", help="train frame reconstruction")
    common(p)
    p.set_defaults(func=cmd_train_backbone)

    p = sub.add_parser("train-anonymizer", help="train the identity flow")
    common(p)
    p.set_defaults(func=cmd_train_anonymizer)

    p = sub.add_parser("anonymize", help="re-voice a dataset")
    common(p)
    p.add_argument("--backbone", required=True)
    p.add_argument("--anonymizer", required=True)
    p.add_argument("--strategy", default="fixed:0",
                   help="fixed:W | range:A:B | pool")
    p.add_argument("--steps", type=int, default=16)
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("seca", help="redact PII spans and regenerate them")
    common(p)
    p.add_argument("--backbone", required=True)
    p.add_argument("--mapping", default=None,
                   help="voice edits with the anonymized identities")
    p.add_argument("--p-asr", type=float, default=0.0, dest="p_asr")
    p.add_argument("--steps", type=int, default=16)
    p.set_defaults(func=cmd_seca)

    p = sub.add_parser("build-trials", help="write a verification trial list")
    common(p)
    p.add_argument("--mode", choices=("acoustic", "content"),
                   default="acoustic")
    p.set_defaults(func=cmd_build_trials)

    p = sub.add_parser("evaluate", help="run an attacker and report EER")
    common(p)
    p.add_argument("--anon", required=True, help="anonymized dataset dir")
    p.add_argument("--mapping", default=None)
    p.add_argument("--attacker", choices=("ignorant", "lazy", "lazy_informed"),
                   default="ignorant")
    p.add_argument("--mode", choices=("acoustic", "content"),
                   default="acoustic")
    p.add_argument("--anonymizer", default=None)
    p.add_argument("--strategy", default=None)
    p.add_argument("--trials", default=None)
    p.add_argument("--steps", type=int, default=16)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="radar-normalize a metrics table")
    p.add_argument("--metrics", required=True, help="JSON {metric: raw value}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return ap


try:        # glibc's malloc_trim; other C libraries have none
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None
# numpy's switch for asking the kernel for huge pages on large arrays
_SET_MADVISE_HUGEPAGE = getattr(getattr(getattr(np, "_core", None),
                                        "multiarray", None),
                                "_set_madvise_hugepage", None)


@contextlib.contextmanager
def steady_memory():
    """Run a command so that its resident size depends on its own
    allocations only.

    numpy asks for transparent huge pages on arrays of 4 MB and more, and
    whether the kernel grants them depends on the memory of the whole
    host; a granted page counts 2 MB resident however little of it is
    used.  The command runs without that request, which is restored after.
    Multi-MB temporaries can also land on the malloc heap, and how much of
    it a command leaves resident depends on what it allocated last; the
    pages of freed heap are given back to the OS when the command ends, so
    that when ``main`` runs several commands in one process each starts on
    the memory its live objects hold.
    """
    huge = _SET_MADVISE_HUGEPAGE(False) if _SET_MADVISE_HUGEPAGE else None
    try:
        yield
    finally:
        if huge is not None:
            _SET_MADVISE_HUGEPAGE(huge)
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def main(argv=None) -> int:
    """Check the arguments, then run one command under ``steady_memory``;
    its exit code.  numpy's floating-point warnings are off, so stderr
    holds the one error line only: the trainers and ``integrate`` check
    for non-finite values themselves and raise DivergenceError (exit 3)."""
    args = build_parser().parse_args(argv)
    try:
        check_args(args)
        with steady_memory(), np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DataError, InputError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
