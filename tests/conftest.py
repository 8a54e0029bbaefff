import contextlib
from pathlib import Path

import pytest


@pytest.fixture
def torn_write_text(monkeypatch):
    """A context in which ``Path.write_text`` writes half its text, then
    raises OSError, as a full disk would."""
    real = Path.write_text

    def torn(self, text, *args, **kwargs):
        real(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as m:
            m.setattr(Path, "write_text", torn)
            yield
    return context
