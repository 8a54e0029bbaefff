import contextlib
import hashlib
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


@pytest.fixture
def sha256_passes(monkeypatch):
    """A context in which every sha256 taken records its digest; it yields
    ``passes(path)``, the number of those digests that equal the digest of
    the file's bytes, that is the number of passes over the whole file.
    Passes are told apart by content, so files with equal bytes share
    their count."""
    real = hashlib.sha256

    class Counted:
        def __init__(self, h, digests):
            self._h, self._digests = h, digests

        def update(self, data):
            self._h.update(data)

        def hexdigest(self):
            digest = self._h.hexdigest()
            self._digests.append(digest)
            return digest

    @contextlib.contextmanager
    def context():
        digests = []
        with monkeypatch.context() as m:
            m.setattr(hashlib, "sha256",
                      lambda *a, **k: Counted(real(*a, **k), digests))
            yield lambda path: digests.count(
                real(Path(path).read_bytes()).hexdigest())
    return context
