"""Torn-write-proof persistence: fsync'd same-directory atomic writes.

Every persistence path in the repo (checkpoint archives and sidecars,
partial-ensemble state, memoized artifacts, tuning cache, resilience
event log) must survive two failure modes that plain
``open().write()`` does not:

* **torn writes** -- a crash (or SIGKILL) mid-write leaves a truncated
  file; ``os.rename`` from another filesystem (``tempfile`` defaults to
  ``/tmp``) degrades to a copy and can tear the same way;
* **ENOSPC** -- a full disk fails the write halfway; the *previous*
  version of the file must survive untouched.

:func:`atomic_write_bytes` provides the full discipline: the temp file
is created *in the destination directory* (same filesystem, so
``os.replace`` is a true atomic rename), its contents are flushed and
``fsync``'d before the rename (so the rename can never publish a name
pointing at unwritten blocks), and the directory entry itself is
``fsync``'d after the rename (so the publish survives a power cut).  On
any failure the temp file is removed and the previous destination bytes
are left untouched.

:func:`write_npz` / :func:`read_npz` are the one archive format (mesh and
ensemble checkpoints, artifact-store entries): a plain ``.npz`` whose
first member, ``__meta__``, holds the sorted-key JSON metadata as uint8.

Fault injection: callers pass a ``fault_prefix`` naming their subsystem
(``"cache"``, ``"checkpoint"``, ``"artifact"``, ``"eventlog"``); the
writer then honours the ``<prefix>.enospc`` site (raise
``OSError(ENOSPC)`` with the old file intact) and the
``<prefix>.torn_write`` site (publish deliberately truncated bytes,
simulating the torn outcome the atomic discipline exists to prevent --
so reader-side recovery can be tested).
"""

from __future__ import annotations

import errno
import hashlib
import io
import itertools
import json
import os
import pathlib
import threading
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.resilience.faults import FaultSpec, fault_point

#: Disambiguates temp names when several threads of one process write
#: the same destination concurrently (e.g. racing artifact-store puts):
#: a pid-only suffix would make them scribble on each other's temp file.
_TMP_COUNTER = itertools.count()

#: npz member name reserved for the JSON metadata record.
META_MEMBER = "__meta__"


def fsync_directory(directory: Union[str, pathlib.Path]) -> None:
    """Flush a directory entry to disk (best effort on exotic filesystems)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # platform without directory fds (or no permission)
        return
    try:
        os.fsync(fd)
    except OSError:  # some filesystems reject directory fsync; not fatal
        pass
    finally:
        os.close(fd)


def _torn_bytes(data: bytes, spec: FaultSpec) -> bytes:
    """The truncated payload a torn write would have left behind."""
    frac = float(spec.payload.get("keep_fraction", 0.5))
    frac = min(max(frac, 0.0), 1.0)
    return data[: int(len(data) * frac)]


def atomic_write_bytes(
    path: Union[str, pathlib.Path],
    data: bytes,
    fault_prefix: Optional[str] = None,
) -> pathlib.Path:
    """Atomically publish ``data`` at ``path`` with full fsync discipline.

    Either the destination holds the complete new bytes or it is left
    exactly as it was -- a crash, kill or ENOSPC mid-write can never
    tear it.  Returns the destination path.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fault_prefix is not None:
        spec = fault_point(f"{fault_prefix}.enospc")
        if spec is not None:
            raise OSError(
                errno.ENOSPC, "No space left on device (injected fault)",
                str(path),
            )
        spec = fault_point(f"{fault_prefix}.torn_write")
        if spec is not None:
            data = _torn_bytes(data, spec)
    tmp = path.parent / (
        f".tmp-{path.name}.{os.getpid()}"
        f".{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)
    return path


def atomic_write_text(
    path: Union[str, pathlib.Path],
    text: str,
    fault_prefix: Optional[str] = None,
) -> pathlib.Path:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"), fault_prefix)


def write_npz(
    path: Union[str, pathlib.Path],
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any],
    fault_prefix: Optional[str] = None,
) -> Tuple[str, int]:
    """Atomically publish ``arrays`` plus the JSON record ``meta``.

    Returns ``(sha256, nbytes)`` of the *intended* archive bytes.
    """
    if META_MEMBER in arrays:
        raise ValueError(f"array name {META_MEMBER!r} is reserved")
    record = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **{META_MEMBER: record}, **arrays)
    data = buf.getvalue()
    atomic_write_bytes(path, data, fault_prefix)
    return hashlib.sha256(data).hexdigest(), len(data)


def read_npz(path: Union[str, pathlib.Path]) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Eagerly load a :func:`write_npz` archive as ``(arrays, meta)``.

    Raises ``ValueError`` when ``__meta__`` is absent or not a JSON object.
    """
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    raw = arrays.pop(META_MEMBER, None)
    if raw is None:
        raise ValueError(f"{path}: archive has no {META_MEMBER!r} member")
    try:
        meta = json.loads(raw.tobytes().decode())
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: undecodable {META_MEMBER!r} member") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: {META_MEMBER!r} member is not an object")
    return arrays, meta
