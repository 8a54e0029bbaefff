"""``tools/command_peaks.py`` on a 2-speaker world."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "command_peaks.py"
_spec = importlib.util.spec_from_file_location("command_peaks", _PATH)
command_peaks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(command_peaks)


def test_each_command_reports_a_peak(tmp_path, monkeypatch):
    events = []

    def record(module, name):
        real = getattr(module, name)

        def call(*args):
            events.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, call)

    record(command_peaks.gc, "collect")
    record(command_peaks.tracemalloc, "start")
    config, strategy = command_peaks.bench_config()
    assert config["world"]["n_speakers"] == 64      # the benchmark's world
    config["world"].update(n_speakers=2, utts_per_speaker=2, v_common=16)
    config["backbone"].update(steps=2, hidden=[16, 16])
    config["anonymizer"].update(steps=2, n_embeddings=16, batch=8)
    peaks, imports = command_peaks.command_peaks(tmp_path, config, strategy,
                                                 seed=1)
    assert list(peaks) == ["gen-world", "train-backbone", "train-anonymizer",
                           "anonymize", "seca", "evaluate"]
    assert all(0 < mb < 50 for mb in peaks.values())
    assert list(imports) == list(peaks)
    # each command's tracing starts right after a collection
    starts = [i for i, e in enumerate(events) if e == "start"]
    assert len(starts) == len(peaks)
    assert all(i > 0 and events[i - 1] == "collect" for i in starts)
    for names in imports.values():
        assert names == sorted(names) and set(names) <= set(sys.modules)
    assert (tmp_path / "eval" / "report.json").is_file()


def test_first_imports_names_each_new_package_once():
    package = ("json", "json.decoder", "json.encoder", "json.scanner")
    assert all(m in sys.modules for m in package)
    # a new submodule of a package imported before is named in full
    before = set(sys.modules) - set(package) - {"importlib.util"}
    assert command_peaks.first_imports(before) == ["importlib.util", "json"]
    assert command_peaks.first_imports(set(sys.modules)) == []
