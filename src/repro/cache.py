"""Memo tiers for expensive, deterministic artefacts, keyed by content.

:data:`memo` holds partitions, relations, plans and priced cells for
the whole process (one plan serves every layer and model).
:func:`cached_assignment` keeps partition assignments on disk under
``REPRO_CACHE_DIR`` (default ``~/.cache/dgcl-repro``; ``0`` disables
it) for benchmark processes that would each redo seconds of
partitioning.  Keys cover the content of every input, never a display
name; the disk key adds the partitioner's version, and writes go
through :func:`atomic_write`.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.partition.metis import PARTITIONER_VERSION

__all__ = ["MemoStore", "memo", "atomic_write", "cache_dir",
           "cached_assignment"]


class MemoStore:
    """One in-memory memo for every kind of artefact.

    ``get(kind, key, compute)`` runs ``compute()`` on a miss; ``key``
    must cover every input ``compute`` reads.  Each lookup counts on
    :attr:`metrics` as ``cache.lookups{cache=kind,outcome=hit|miss}``.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, object] = {}
        self.metrics = MetricsRegistry()

    def get(self, kind: str, key: tuple, compute: Callable[[], object]):
        """The ``(kind, key)`` entry, computed and stored on a miss."""
        entry = (kind,) + key
        hit = entry in self._entries
        self.metrics.counter(
            "cache.lookups", cache=kind, outcome="hit" if hit else "miss"
        ).inc()
        if not hit:
            self._entries[entry] = compute()
        return self._entries[entry]

    def clear(self) -> None:
        """Drop every entry (the lookup counters are kept)."""
        self._entries.clear()


#: The process-wide store behind ``Workload`` and ``evaluate_scheme``.
memo = MemoStore()


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: through a temp file unique
    to this writer, renamed over ``path``, and removed on failure."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def cache_dir() -> Optional[Path]:
    """The cache directory, created on demand; None when disabled."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw == "0":
        return None
    path = Path(raw) if raw else Path.home() / ".cache" / "dgcl-repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path


def cached_assignment(
    key_parts: tuple, num_vertices: int, compute: Callable[[], np.ndarray]
) -> np.ndarray:
    """Fetch or compute a partition assignment keyed by ``key_parts``.

    An unreadable entry, or one that is no valid assignment (wrong
    shape, a non-integer dtype or a negative id), is recomputed and
    overwritten.
    """
    directory = cache_dir()
    if directory is None:
        return compute()
    digest = hashlib.sha256(
        repr((PARTITIONER_VERSION, key_parts)).encode()
    ).hexdigest()[:24]
    path = directory / f"assignment-{digest}.npy"
    if path.exists():
        try:
            assignment = np.load(path)
            if (assignment.shape == (num_vertices,)
                    and np.issubdtype(assignment.dtype, np.integer)
                    and not (assignment < 0).any()):
                return assignment
        except (OSError, ValueError):
            pass  # corrupt cache entry: recompute below
    assignment = compute()
    buffer = io.BytesIO()
    np.save(buffer, assignment)
    try:
        atomic_write(path, buffer.getvalue())
    except OSError:
        pass
    return assignment
