"""Small on-disk cache for expensive, deterministic artefacts.

Partitioning a million-edge twin takes seconds of pure-Python work and
is fully determined by (dataset, seed, topology shape).  The benchmark
harness runs dozens of processes that would each redo it, so
assignments are memoised under ``REPRO_CACHE_DIR`` (default:
``~/.cache/dgcl-repro``).  Set ``REPRO_CACHE_DIR=0`` to disable.
The key carries the partitioner's version, so a changed partitioner
never reads stale assignments; writes go through :func:`atomic_write`.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.partition.metis import PARTITIONER_VERSION

__all__ = ["atomic_write", "cache_dir", "cached_assignment"]


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
    """Fetch or compute a partition assignment keyed by ``key_parts``."""
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
            if assignment.shape == (num_vertices,):
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
