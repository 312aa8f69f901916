"""The conformance namespaces: the boundary and the shim's strictness.

Two contracts of :mod:`tests.backend.namespaces`:

* ``asarray`` in, :func:`to_numpy` out is a lossless round trip in every
  namespace;
* the strict namespace actually *is* strict -- any silent NumPy
  round-trip of one of its arrays raises, which is what gives the
  cross-namespace differential tests their power.
"""

import numpy as np
import pytest

from tests.backend.namespaces import strict_namespace, to_numpy


class TestBoundary:
    def test_asarray_to_numpy_round_trip(self, xp):
        host = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        arr = xp.asarray(host)
        back = to_numpy(arr)
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, host)

    def test_to_numpy_passes_ndarray_through(self):
        host = np.arange(5.0)
        assert to_numpy(host) is host


class TestStrictness:
    """The teeth that make the strict namespace a real second namespace."""

    @pytest.fixture()
    def strict(self):
        return strict_namespace()

    def test_no_silent_numpy_conversion(self, strict):
        arr = strict.asarray(np.arange(4.0))
        with pytest.raises(TypeError):
            np.asarray(arr)

    def test_numpy_ufuncs_rejected(self, strict):
        arr = strict.asarray(np.arange(4.0))
        with pytest.raises(TypeError):
            np.exp(arr)

    def test_raw_ndarray_operands_rejected(self, strict):
        arr = strict.asarray(np.arange(4.0))
        with pytest.raises(TypeError):
            arr + np.arange(4.0)

    def test_integer_array_indexing_rejected(self, strict):
        arr = strict.asarray(np.arange(12.0).reshape(3, 4))
        rows = strict.asarray(np.array([0, 2]))
        cols = strict.asarray(np.array([1, 3]))
        with pytest.raises((TypeError, IndexError)):
            arr[rows, cols]

    def test_sanctioned_boundary_still_works(self, strict):
        """asarray in, to_numpy out -- the only two legal crossings."""
        host = np.random.default_rng(0).standard_normal((4, 4))
        out = to_numpy(strict.exp(strict.asarray(host)))
        np.testing.assert_allclose(out, np.exp(host), atol=1e-15)
