"""The conformance namespaces the xp-first kernels are checked in.

Production runs every ``*_xp`` kernel with NumPy.  The tests also run
them in a strict array-API namespace -- the real ``array-api-strict``
package when it is installed, else :mod:`tests.backend.strict_shim` --
which rejects any silent NumPy round trip of its arrays, so a kernel
that passes there uses only the array-API surface.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def strict_namespace() -> Any:
    """The strict namespace: the real package if importable, else the shim."""
    try:
        import array_api_strict  # type: ignore[import-not-found]

        return array_api_strict
    except ImportError:
        from tests.backend import strict_shim

        return strict_shim


def to_numpy(arr: Any) -> np.ndarray:
    """Export an array of either namespace to NumPy (the exit boundary)."""
    if isinstance(arr, np.ndarray):
        return arr
    from tests.backend.strict_shim import Array as _ShimArray
    from tests.backend.strict_shim import _strict_export

    if isinstance(arr, _ShimArray):
        return _strict_export(arr)
    # the real array_api_strict: unwrap its NumPy payload
    unwrap = getattr(arr, "_array", None)
    if unwrap is not None:
        return np.asarray(unwrap)
    return np.asarray(arr)
