import contextlib
from pathlib import Path

import pytest


@pytest.fixture
def torn_write_text(monkeypatch):
    """A context in which ``Path.write_text`` writes half its text, then
    raises OSError, as a full disk would.  Given a file name, only writes
    to that file, or to its ``replacing`` temporary file, are torn."""
    real = Path.write_text

    @contextlib.contextmanager
    def context(name=None):
        def torn(self, text, *args, **kwargs):
            if name is not None and self.name not in (name, f".{name}.tmp"):
                return real(self, text, *args, **kwargs)
            real(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(Path, "write_text", torn)
            yield
    return context
