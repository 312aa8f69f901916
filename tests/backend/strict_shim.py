"""A strict array-API namespace shim (the ``array_api_strict`` fallback).

When the real ``array-api-strict`` package is not installed, this module
is what :func:`tests.backend.namespaces.strict_namespace` hands out.  Like the real package it wraps NumPy in
an opaque :class:`Array` that exposes *only* the array-API surface and
refuses implicit NumPy interop:

* ``np.asarray(shim_array)`` (and every implicit ``__array__`` round
  trip) raises ``TypeError`` -- a converted kernel that silently falls
  back to a ``np.*`` call on the strict path fails loudly instead of
  silently executing on the NumPy fast path.
* Raw ``np.ndarray`` operands in arithmetic, indexing or namespace
  functions raise ``TypeError``; :func:`asarray` is the single
  sanctioned entry point.
* Integer-array (fancy) indexing is rejected, mirroring the standard's
  indexing rules; use :func:`take` / ``roll`` / slicing formulations.

The shim intentionally *computes* with NumPy under the hood (so do
``array-api-strict`` and the CPU paths of CuPy/JAX test doubles); its
job is to police the API surface, not to reimplement arithmetic.  All
functions operate on :class:`Array` instances and return them.
"""

from __future__ import annotations

import numpy as _np

__array_api_version__ = "2023.12"

# ------------------------------------------------------------------ #
# dtypes and constants (array-API names)
# ------------------------------------------------------------------ #
int8 = _np.int8
int16 = _np.int16
int32 = _np.int32
int64 = _np.int64
uint8 = _np.uint8
uint16 = _np.uint16
uint32 = _np.uint32
uint64 = _np.uint64
float32 = _np.float32
float64 = _np.float64
complex64 = _np.complex64
complex128 = _np.complex128
bool = _np.bool_  # noqa: A001 -- the standard names the dtype ``bool``

pi = _np.pi
e = _np.e
inf = _np.inf
nan = _np.nan
newaxis = None

_SCALARS = (__builtins__["bool"] if isinstance(__builtins__, dict)
            else __builtins__.bool, int, float, complex)


class Array:
    """Opaque strict array: array-API surface only, no NumPy interop."""

    __slots__ = ("_a",)

    #: refuse to let NumPy ufuncs absorb shim arrays silently
    __array_ufunc__ = None

    def __init__(self, data: _np.ndarray) -> None:
        object.__setattr__(self, "_a", data)

    # -- interop policing ------------------------------------------- #
    def __array__(self, dtype=None, copy=None):  # pragma: no cover - msg only
        raise TypeError(
            "implicit conversion of a strict Array to a NumPy array is not "
            "allowed; use to_numpy(...) at the kernel boundary"
        )

    def __array_namespace__(self, api_version=None):
        import sys

        return sys.modules[__name__]

    # -- introspection ---------------------------------------------- #
    @property
    def shape(self):
        return self._a.shape

    @property
    def dtype(self):
        return self._a.dtype

    @property
    def ndim(self):
        return self._a.ndim

    @property
    def size(self):
        return self._a.size

    @property
    def device(self):
        return "cpu"

    def to_device(self, device, /):
        """Array-API device transfer; the shim only knows ``"cpu"``."""
        if device != "cpu":
            raise ValueError("strict shim arrays live on 'cpu'")
        return self

    @property
    def mT(self):  # noqa: N802 -- standard attribute name
        return Array(_np.swapaxes(self._a, -1, -2))

    @property
    def T(self):  # noqa: N802
        if self._a.ndim != 2:
            raise ValueError(".T is only defined for 2-D arrays; "
                             "use permute_dims")
        return Array(self._a.T)

    def __len__(self):
        return len(self._a)

    def __repr__(self):
        return f"StrictArray({self._a!r})"

    # -- scalar conversion (0-d only, as the standard specifies) ----- #
    def __bool__(self):
        return self._a.__bool__()

    def __int__(self):
        return int(self._a)

    def __float__(self):
        return float(self._a)

    def __complex__(self):
        return complex(self._a)

    def __index__(self):
        return self._a.__index__()

    # -- indexing ---------------------------------------------------- #
    def __getitem__(self, key):
        return Array(self._a[_index(key)])

    def __setitem__(self, key, value):
        self._a[_index(key)] = _operand(value, "assigned value")

    # -- arithmetic -------------------------------------------------- #
    def __pos__(self):
        return Array(+self._a)

    def __neg__(self):
        return Array(-self._a)

    def __invert__(self):
        return Array(~self._a)

    def __abs__(self):
        return Array(_np.abs(self._a))

    def __matmul__(self, other):
        return Array(self._a @ _operand(other, "matmul operand"))

    def __rmatmul__(self, other):
        return Array(_operand(other, "matmul operand") @ self._a)


def _operand(x, what):
    """Unwrap an operand: strict Arrays and Python scalars only."""
    if isinstance(x, Array):
        return x._a
    if isinstance(x, _SCALARS):
        return x
    raise TypeError(
        f"strict namespace: {what} must be a strict Array or a Python "
        f"scalar, not {type(x).__name__}; convert at the boundary with "
        f"asarray(...)"
    )


def _index(key):
    """Validate an index: ints, slices, Ellipsis, None, bool masks."""
    if isinstance(key, tuple):
        return tuple(_index_one(k) for k in key)
    return _index_one(key)


def _index_one(k):
    if k is None or k is Ellipsis or isinstance(k, (int, slice)):
        return k
    if isinstance(k, Array):
        if k._a.dtype == _np.bool_:
            return k._a
        raise TypeError(
            "strict namespace: integer-array (fancy) indexing is not part "
            "of the array API; use take()/roll()/slicing instead"
        )
    if hasattr(k, "__index__"):
        return k.__index__()
    raise TypeError(
        f"strict namespace: invalid index component {type(k).__name__}"
    )


def _binop(name, symbol=None):
    def op(self, other):
        return Array(getattr(self._a, name)(_operand(other, "operand")))

    op.__name__ = name
    return op


def _inplace(name):
    def op(self, other):
        getattr(self._a, name)(_operand(other, "operand"))
        return self

    op.__name__ = name
    return op


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
              "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
              "__rpow__", "__and__", "__rand__", "__or__", "__ror__",
              "__xor__", "__rxor__", "__lt__", "__le__", "__gt__",
              "__ge__", "__eq__", "__ne__"):
    setattr(Array, _name, _binop(_name))
for _name in ("__iadd__", "__isub__", "__imul__", "__itruediv__",
              "__ifloordiv__", "__imod__", "__ipow__"):
    setattr(Array, _name, _inplace(_name))
del _name


def _arr(x, fname):
    """Require a strict Array argument for a namespace function."""
    if isinstance(x, Array):
        return x._a
    raise TypeError(
        f"strict namespace: {fname}() requires a strict Array, not "
        f"{type(x).__name__}; convert at the boundary with asarray(...)"
    )


def _arr_or_scalar(x, fname):
    if isinstance(x, Array):
        return x._a
    if isinstance(x, _SCALARS):
        return x
    raise TypeError(
        f"strict namespace: {fname}() operands must be strict Arrays or "
        f"Python scalars, not {type(x).__name__}"
    )


# ------------------------------------------------------------------ #
# creation
# ------------------------------------------------------------------ #
def asarray(obj, /, *, dtype=None, copy=None):
    """The sanctioned boundary: lists, scalars and NumPy arrays enter here."""
    if isinstance(obj, Array):
        obj = obj._a
    a = _np.array(obj, dtype=dtype, copy=True if copy else None)
    return Array(a)


def _creation(np_func):
    def func(shape, *, dtype=None):
        return Array(np_func(shape, dtype=dtype if dtype is not None
                             else float64))

    func.__name__ = np_func.__name__
    return func


zeros = _creation(_np.zeros)
ones = _creation(_np.ones)
empty = _creation(_np.empty)


def full(shape, fill_value, *, dtype=None):
    return Array(_np.full(shape, fill_value, dtype=dtype))


def zeros_like(x, /, *, dtype=None):
    return Array(_np.zeros_like(_arr(x, "zeros_like"), dtype=dtype))


def ones_like(x, /, *, dtype=None):
    return Array(_np.ones_like(_arr(x, "ones_like"), dtype=dtype))


def empty_like(x, /, *, dtype=None):
    return Array(_np.empty_like(_arr(x, "empty_like"), dtype=dtype))


def full_like(x, /, fill_value, *, dtype=None):
    return Array(_np.full_like(_arr(x, "full_like"), fill_value, dtype=dtype))


def arange(start, /, stop=None, step=1, *, dtype=None):
    return Array(_np.arange(start, stop, step, dtype=dtype))


def linspace(start, stop, /, num, *, dtype=None, endpoint=True):
    return Array(_np.linspace(start, stop, num, dtype=dtype,
                              endpoint=endpoint))


def meshgrid(*arrays, indexing="xy"):
    grids = _np.meshgrid(*(_arr(a, "meshgrid") for a in arrays),
                         indexing=indexing)
    return [Array(g) for g in grids]


def tril(x, /, *, k=0):
    return Array(_np.tril(_arr(x, "tril"), k=k))


def triu(x, /, *, k=0):
    return Array(_np.triu(_arr(x, "triu"), k=k))


# ------------------------------------------------------------------ #
# dtype helpers
# ------------------------------------------------------------------ #
def astype(x, dtype, /, *, copy=True):
    return Array(_arr(x, "astype").astype(dtype, copy=copy))


def isdtype(dtype, kind):
    np_kinds = {
        "bool": "b", "signed integer": "i", "unsigned integer": "u",
        "integral": "iu", "real floating": "f", "complex floating": "c",
        "numeric": "iufc",
    }
    dt = _np.dtype(dtype)
    if isinstance(kind, tuple):
        return any(isdtype(dt, k) for k in kind)
    return dt.kind in np_kinds[kind]


def finfo(dtype, /):
    return _np.finfo(dtype)


def iinfo(dtype, /):
    return _np.iinfo(dtype)


def result_type(*args):
    return _np.result_type(*(
        a._a if isinstance(a, Array) else a for a in args
    ))


# ------------------------------------------------------------------ #
# elementwise
# ------------------------------------------------------------------ #
def _unary(np_func, name=None):
    fname = name or np_func.__name__

    def func(x, /):
        return Array(np_func(_arr(x, fname)))

    func.__name__ = fname
    return func


abs = _unary(_np.abs, "abs")  # noqa: A001 -- standard function name
exp = _unary(_np.exp)
log = _unary(_np.log)
sin = _unary(_np.sin)
cos = _unary(_np.cos)
tan = _unary(_np.tan)
sinh = _unary(_np.sinh)
cosh = _unary(_np.cosh)
tanh = _unary(_np.tanh)
sqrt = _unary(_np.sqrt)
sign = _unary(_np.sign)
conj = _unary(_np.conj)
real = _unary(_np.real)
imag = _unary(_np.imag)
floor = _unary(_np.floor)
ceil = _unary(_np.ceil)
round = _unary(_np.round, "round")  # noqa: A001
isfinite = _unary(_np.isfinite)
isnan = _unary(_np.isnan)
isinf = _unary(_np.isinf)
logical_not = _unary(_np.logical_not)
positive = _unary(_np.positive)
negative = _unary(_np.negative)
square = _unary(_np.square)


def _binary(np_func, name=None):
    fname = name or np_func.__name__

    def func(x1, x2, /):
        return Array(np_func(_arr_or_scalar(x1, fname),
                             _arr_or_scalar(x2, fname)))

    func.__name__ = fname
    return func


add = _binary(_np.add)
subtract = _binary(_np.subtract)
multiply = _binary(_np.multiply)
divide = _binary(_np.divide)
pow = _binary(_np.power, "pow")  # noqa: A001
maximum = _binary(_np.maximum)
minimum = _binary(_np.minimum)
equal = _binary(_np.equal)
not_equal = _binary(_np.not_equal)
less = _binary(_np.less)
less_equal = _binary(_np.less_equal)
greater = _binary(_np.greater)
greater_equal = _binary(_np.greater_equal)
logical_and = _binary(_np.logical_and)
logical_or = _binary(_np.logical_or)
atan2 = _binary(_np.arctan2, "atan2")
remainder = _binary(_np.remainder)
copysign = _binary(_np.copysign)
hypot = _binary(_np.hypot)


def where(condition, x1, x2, /):
    return Array(_np.where(_arr(condition, "where"),
                           _arr_or_scalar(x1, "where"),
                           _arr_or_scalar(x2, "where")))


def clip(x, /, min=None, max=None):  # noqa: A002 -- standard arg names
    return Array(_np.clip(_arr(x, "clip"),
                          _arr_or_scalar(min, "clip") if min is not None
                          else None,
                          _arr_or_scalar(max, "clip") if max is not None
                          else None))


# ------------------------------------------------------------------ #
# statistical / sorting / searching
# ------------------------------------------------------------------ #
def _reduction(np_func, name=None, has_dtype=False):
    fname = name or np_func.__name__

    def func(x, /, *, axis=None, keepdims=False, **kw):
        extra = {}
        if has_dtype and "dtype" in kw:
            extra["dtype"] = kw.pop("dtype")
        if kw:
            raise TypeError(f"{fname}: unexpected arguments {sorted(kw)}")
        return Array(np_func(_arr(x, fname), axis=axis, keepdims=keepdims,
                             **extra))

    func.__name__ = fname
    return func


sum = _reduction(_np.sum, "sum", has_dtype=True)  # noqa: A001
prod = _reduction(_np.prod, "prod", has_dtype=True)
mean = _reduction(_np.mean)
std = _reduction(_np.std)
var = _reduction(_np.var)
max = _reduction(_np.max, "max")  # noqa: A001
min = _reduction(_np.min, "min")  # noqa: A001
any = _reduction(_np.any, "any")  # noqa: A001
all = _reduction(_np.all, "all")  # noqa: A001


def argmax(x, /, *, axis=None, keepdims=False):
    return Array(_np.argmax(_arr(x, "argmax"), axis=axis, keepdims=keepdims))


def argmin(x, /, *, axis=None, keepdims=False):
    return Array(_np.argmin(_arr(x, "argmin"), axis=axis, keepdims=keepdims))


def argsort(x, /, *, axis=-1, descending=False, stable=True):
    a = _arr(x, "argsort")
    kind = "stable" if stable else None
    if descending:
        return Array(_np.flip(_np.argsort(_np.flip(a, axis), axis=axis,
                                          kind=kind), axis))
    return Array(_np.argsort(a, axis=axis, kind=kind))


def sort(x, /, *, axis=-1, descending=False, stable=True):
    a = _np.sort(_arr(x, "sort"), axis=axis,
                 kind="stable" if stable else None)
    if descending:
        a = _np.flip(a, axis)
    return Array(a)


def cumulative_sum(x, /, *, axis=None, dtype=None, include_initial=False):
    a = _arr(x, "cumulative_sum")
    if axis is None:
        if a.ndim != 1:
            raise ValueError("cumulative_sum needs an explicit axis for "
                             "multi-dimensional input")
        axis = 0
    out = _np.cumsum(a, axis=axis, dtype=dtype)
    if include_initial:
        shape = list(out.shape)
        shape[axis] = 1
        out = _np.concatenate([_np.zeros(shape, dtype=out.dtype), out],
                              axis=axis)
    return Array(out)


def nonzero(x, /):
    return tuple(Array(i) for i in _np.nonzero(_arr(x, "nonzero")))


def unique_values(x, /):
    return Array(_np.unique(_arr(x, "unique_values")))


# ------------------------------------------------------------------ #
# manipulation
# ------------------------------------------------------------------ #
def reshape(x, /, shape, *, copy=None):
    return Array(_np.reshape(_arr(x, "reshape"), shape))


def permute_dims(x, /, axes):
    return Array(_np.transpose(_arr(x, "permute_dims"), axes))


def moveaxis(x, source, destination, /):
    return Array(_np.moveaxis(_arr(x, "moveaxis"), source, destination))


def expand_dims(x, /, *, axis=0):
    return Array(_np.expand_dims(_arr(x, "expand_dims"), axis))


def squeeze(x, /, axis):
    return Array(_np.squeeze(_arr(x, "squeeze"), axis))


def stack(arrays, /, *, axis=0):
    return Array(_np.stack([_arr(a, "stack") for a in arrays], axis=axis))


def concat(arrays, /, *, axis=0):
    return Array(_np.concatenate([_arr(a, "concat") for a in arrays],
                                 axis=axis))


def broadcast_to(x, /, shape):
    return Array(_np.broadcast_to(_arr(x, "broadcast_to"), shape))


def broadcast_arrays(*arrays):
    out = _np.broadcast_arrays(*(_arr(a, "broadcast_arrays")
                                 for a in arrays))
    return [Array(a) for a in out]


def roll(x, /, shift, *, axis=None):
    return Array(_np.roll(_arr(x, "roll"), shift, axis=axis))


def flip(x, /, *, axis=None):
    return Array(_np.flip(_arr(x, "flip"), axis=axis))


def tile(x, repetitions, /):
    return Array(_np.tile(_arr(x, "tile"), repetitions))


def repeat(x, repeats, /, *, axis=None):
    return Array(_np.repeat(_arr(x, "repeat"), repeats, axis=axis))


def take(x, indices, /, *, axis=None):
    return Array(_np.take(_arr(x, "take"), _arr(indices, "take"), axis=axis))


def take_along_axis(x, indices, /, *, axis=-1):
    return Array(_np.take_along_axis(_arr(x, "take_along_axis"),
                                     _arr(indices, "take_along_axis"),
                                     axis=axis))


# ------------------------------------------------------------------ #
# linear algebra (main namespace + linalg extension)
# ------------------------------------------------------------------ #
def matmul(x1, x2, /):
    return Array(_np.matmul(_arr(x1, "matmul"), _arr(x2, "matmul")))


def tensordot(x1, x2, /, *, axes=2):
    return Array(_np.tensordot(_arr(x1, "tensordot"), _arr(x2, "tensordot"),
                               axes=axes))


def vecdot(x1, x2, /, *, axis=-1):
    """Conjugating inner product along ``axis`` (standard semantics)."""
    a = _np.moveaxis(_arr(x1, "vecdot"), axis, -1)
    b = _np.moveaxis(_arr(x2, "vecdot"), axis, -1)
    return Array(_np.sum(_np.conj(a) * b, axis=-1))


def matrix_transpose(x, /):
    return Array(_np.swapaxes(_arr(x, "matrix_transpose"), -1, -2))


class _Linalg:
    """The ``linalg`` extension: the subset the kernels use."""

    @staticmethod
    def vector_norm(x, /, *, axis=None, keepdims=False, ord=2):  # noqa: A002
        return Array(_np.linalg.vector_norm(_arr(x, "vector_norm"),
                                            axis=axis, keepdims=keepdims,
                                            ord=ord))

    @staticmethod
    def matrix_norm(x, /, *, keepdims=False, ord="fro"):  # noqa: A002
        return Array(_np.linalg.matrix_norm(_arr(x, "matrix_norm"),
                                            keepdims=keepdims, ord=ord))

    vecdot = staticmethod(vecdot)
    matmul = staticmethod(matmul)
    tensordot = staticmethod(tensordot)
    matrix_transpose = staticmethod(matrix_transpose)

    @staticmethod
    def qr(x, /, *, mode="reduced"):
        q, r = _np.linalg.qr(_arr(x, "qr"), mode=mode)
        return Array(q), Array(r)

    @staticmethod
    def diagonal(x, /, *, offset=0):
        return Array(_np.diagonal(_arr(x, "diagonal"), offset=offset,
                                  axis1=-2, axis2=-1))


linalg = _Linalg()


# ------------------------------------------------------------------ #
# fft extension
# ------------------------------------------------------------------ #
class _FFT:
    """The ``fft`` extension: the subset the Poisson solver uses."""

    @staticmethod
    def fftn(x, /, *, s=None, axes=None, norm="backward"):
        return Array(_np.fft.fftn(_arr(x, "fft.fftn"), s=s, axes=axes,
                                  norm=norm))

    @staticmethod
    def ifftn(x, /, *, s=None, axes=None, norm="backward"):
        return Array(_np.fft.ifftn(_arr(x, "fft.ifftn"), s=s, axes=axes,
                                   norm=norm))

    @staticmethod
    def fft(x, /, *, n=None, axis=-1, norm="backward"):
        return Array(_np.fft.fft(_arr(x, "fft.fft"), n=n, axis=axis,
                                 norm=norm))

    @staticmethod
    def ifft(x, /, *, n=None, axis=-1, norm="backward"):
        return Array(_np.fft.ifft(_arr(x, "fft.ifft"), n=n, axis=axis,
                                  norm=norm))

    @staticmethod
    def fftfreq(n, /, *, d=1.0):
        return Array(_np.fft.fftfreq(n, d=d))


fft = _FFT()


# ------------------------------------------------------------------ #
# export helper (used by to_numpy, not part of the standard)
# ------------------------------------------------------------------ #
def _strict_export(x):
    """Boundary exit: a NumPy copy of a strict Array's data."""
    if isinstance(x, Array):
        return _np.array(x._a, copy=True)
    raise TypeError(f"not a strict Array: {type(x).__name__}")


# ------------------------------------------------------------------ #
# docstrings: every public function here implements the array-API
# standard's operation of the same name; the semantics are the
# standard's, not this module's, so document them uniformly instead of
# paraphrasing the spec a hundred times.
# ------------------------------------------------------------------ #
def _document_standard_functions():
    """Stamp a uniform docstring on each undocumented standard function."""
    import types

    for _name, _obj in list(globals().items()):
        if _name.startswith("_") or not isinstance(_obj, types.FunctionType):
            continue
        if _obj.__module__ == __name__ and not _obj.__doc__:
            _obj.__doc__ = (
                f"Array-API standard ``{_name}``: strict, interop-policed "
                f"wrapper over the NumPy implementation (operands must be "
                f"this namespace's Array; raw ndarrays raise TypeError)."
            )


_document_standard_functions()
