"""Kinetic stencil propagation kernels: Algorithms 1-5 of the paper.

One *pass* applies, along a stencil direction ``d`` and for every mesh
point ``i`` (periodic), the tridiagonal-shaped update

    psi'[i] = al * psi[i] + bl[i] * psi[i-1] + bu[i] * psi[i+1],

with the even/odd pair-split coefficients of
:mod:`repro.grids.stencil`; a Strang sweep of three passes per direction
realizes ``exp(-i dt T_d / hbar)`` exactly unitarily.  The paper's
optimization sequence is re-expressed in NumPy so that each variant keeps
the *same data-layout and loop-structure idea* while the interpreter/cache
costs play the role of the scalar-code/cache costs of the C++ original:

=============  =======================================================
Variant        Paper analogue
=============  =======================================================
``baseline``   Algorithm 1: AoS layout ``psi[n][i][j][k]``, full work
               array, orbital-outermost loops, generic tridiagonal
               update (both neighbour coefficients multiplied even
               when one is zero), explicit copy-back.
``interchange``Algorithm 3: SoA layout ``psi[i][j][k][n]``, loops
               reordered so the orbital index is innermost/unit-stride,
               in-place update with a saved old value, no work array.
``blocked``    Algorithm 4: adds orbital blocking; each Python-level
               iteration now touches a (k, orbital-block) tile, the
               analogue of keeping ``psi_old`` in cache / distributing
               blocks to more GPU thread blocks.
``collapsed``  Algorithm 5: the three outer loops are collapsed into
               whole-array operations -- the analogue of
               ``target teams distribute collapse(3)`` + ``parallel for
               simd``.  This is the variant executed on the virtual
               GPU device (with ``nowait`` async launch modelling).
``gemm``       Beyond the paper (the default): the Eq. 9-style
               BLASification of the kinetic term.  Each direction's
               three passes are multiplied into one n x n Strang
               matrix ``U_d``, applied as one mode product -- a GEMM
               along x and z, a GEMM batched over x-planes along y.
=============  =======================================================

All variants produce the same results for the same inputs up to
floating-point reassociation and are cross-checked in the tests; the
pair-update variants are bit-identical to each other.
"""

from __future__ import annotations

import cmath
import functools
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.constants import M_ELECTRON
from repro.grids.stencil import (
    PairSplitCoefficients,
    pair_split_matrix,
    strang_passes,
)
from repro.lfd.wavefunction import WaveFunctionSet
from repro.obs import trace_charge, trace_span
from repro.tuning.defaults import DEFAULT_PARAMS


def _pair_indices(n: int, parity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left/right member indices of the pairs of one pass."""
    left = np.arange(parity, n, 2) % n
    right = (left + 1) % n
    return left, right


# --------------------------------------------------------------------- #
# Algorithm 1: baseline (AoS, work array, orbital-outermost)
# --------------------------------------------------------------------- #
def kin_prop_baseline(  # dclint: disable=DCL006 -- timed by kinetic_step
    aos: np.ndarray, coeff: PairSplitCoefficients, axis: int
) -> None:
    """Baseline kernel on AoS data ``psi[n, ix, iy, iz]`` (Algorithm 1).

    Loops orbitals outermost, sweeps the full grid writing into a separate
    work array (the O(M^D) temporary the paper criticizes) and copies the
    result back.  The generic tridiagonal update multiplies both neighbour
    coefficients even though one of them is exactly zero in a pair pass --
    exactly what a layout-oblivious stencil code does.
    """
    if aos.ndim != 4:
        raise ValueError("AoS data must have shape (norb, nx, ny, nz)")
    norb = aos.shape[0]
    n = aos.shape[1 + axis]
    if coeff.n != n:
        raise ValueError("coefficient length does not match grid axis")
    al, bl, bu = coeff.al, coeff.bl, coeff.bu
    # One O(M^D) work array per call (the temporary Algorithm 2 removes),
    # shared across orbitals rather than reallocated per orbital.
    wrk = np.empty_like(np.moveaxis(aos[0], axis, 0))
    for nn in range(norb):
        q = np.moveaxis(aos[nn], axis, 0)  # view: (n, a, b)
        na = q.shape[1]
        for i in range(n):
            im = (i - 1) % n
            ip = (i + 1) % n
            for j in range(na):
                wrk[i, j, :] = al * q[i, j, :] + bl[i] * q[im, j, :] + bu[i] * q[ip, j, :]
        q[...] = wrk


# --------------------------------------------------------------------- #
# shared pair update used by the optimized variants
# --------------------------------------------------------------------- #
def _apply_pass_block(
    p: np.ndarray,
    coeff: PairSplitCoefficients,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """In-place pair update on ``p`` of shape (n, ...) along its axis 0."""
    extra = p.ndim - 1
    bshape = (-1,) + (1,) * extra
    bu_l = coeff.bu[left].reshape(bshape)
    bl_r = coeff.bl[right].reshape(bshape)
    p_l = p[left]   # fancy indexing -> copies of the old values
    p_r = p[right]
    p[left] = coeff.al * p_l + bu_l * p_r
    p[right] = coeff.al * p_r + bl_r * p_l


# --------------------------------------------------------------------- #
# Algorithm 3: loop interchange + in-place update (SoA)
# --------------------------------------------------------------------- #
def kin_prop_interchange(  # dclint: disable=DCL006 -- timed by kinetic_step
    soa: np.ndarray, coeff: PairSplitCoefficients, axis: int
) -> None:
    """Loop-interchanged kernel on SoA data ``psi[ix, iy, iz, n]`` (Algorithm 3).

    The orbital index is innermost (unit stride); the update is performed
    in place pencil by pencil, with the old pair value held in a small
    temporary (the ``psi_old`` trick).  No O(M^D) work array is allocated.
    """
    if soa.ndim != 4:
        raise ValueError("SoA data must have shape (nx, ny, nz, norb)")
    p = np.moveaxis(soa, axis, 0)  # (n, a, b, norb) view
    n, na, nb, _ = p.shape
    if coeff.n != n:
        raise ValueError("coefficient length does not match grid axis")
    left, right = _pair_indices(n, coeff.parity)
    al = coeff.al
    # The ``psi_old`` pair buffer is preallocated once per sweep and
    # refilled in place (Alg. 2 memory reuse); it plays the role of the
    # register-held old value of the paper's in-place update.
    psi_old = np.empty(p.shape[-1], dtype=p.dtype)
    for j in range(na):
        for k in range(nb):
            pencil = p[:, j, k, :]  # (n, norb) view
            for l, r in zip(left, right):
                psi_old[:] = pencil[l]
                pencil[l] = al * psi_old + coeff.bu[l] * pencil[r]
                pencil[r] = al * pencil[r] + coeff.bl[r] * psi_old


# --------------------------------------------------------------------- #
# Algorithm 4: orbital blocking
# --------------------------------------------------------------------- #
def kin_prop_blocked(  # dclint: disable=DCL006 -- timed by kinetic_step
    soa: np.ndarray,
    coeff: PairSplitCoefficients,
    axis: int,
    block_size: Optional[int] = None,
) -> None:
    """Blocked kernel (Algorithm 4): per (j, orbital-block) tile updates.

    Each Python-level iteration updates a full (pairs, k, block) tile,
    mirroring the cache/register blocking of the paper while still keeping
    the outer plane loop explicit.  ``block_size=None`` resolves the tile
    width from the active :class:`~repro.tuning.profile.TuningProfile`
    (the ``lfd.kin_prop`` tunable), so default callers get the persisted
    per-machine winner instead of a hard-coded shape.
    """
    if soa.ndim != 4:
        raise ValueError("SoA data must have shape (nx, ny, nz, norb)")
    if block_size is None:
        from repro.tuning.profile import get_active_profile

        block_size = int(
            get_active_profile().params_for("lfd.kin_prop")["block_size"]
        )
    if block_size < 1:
        raise ValueError("block_size must be positive")
    p = np.moveaxis(soa, axis, 0)  # (n, a, b, norb) view
    n, na, _, norb = p.shape
    if coeff.n != n:
        raise ValueError("coefficient length does not match grid axis")
    left, right = _pair_indices(n, coeff.parity)
    nblocks = (norb + block_size - 1) // block_size
    for j in range(na):
        plane = p[:, j]  # (n, b, norb) view
        for ib in range(nblocks):
            b0 = ib * block_size
            b1 = min(b0 + block_size, norb)
            _apply_pass_block(plane[..., b0:b1], coeff, left, right)


# --------------------------------------------------------------------- #
# Algorithm 5: fully collapsed (the GPU kernel)
# --------------------------------------------------------------------- #
def kin_prop_collapsed(  # dclint: disable=DCL006 -- timed by kinetic_step
    soa: np.ndarray, coeff: PairSplitCoefficients, axis: int
) -> None:
    """Collapsed kernel (Algorithm 5): whole-array pair update.

    All plane/orbital parallelism is exposed at once -- the analogue of
    ``collapse(3)`` over teams with ``parallel for simd`` inside.  This is
    the payload executed by the virtual GPU.
    """
    if soa.ndim != 4:
        raise ValueError("SoA data must have shape (nx, ny, nz, norb)")
    p = np.moveaxis(soa, axis, 0)
    n = p.shape[0]
    if coeff.n != n:
        raise ValueError("coefficient length does not match grid axis")
    left, right = _pair_indices(n, coeff.parity)
    _apply_pass_block(p, coeff, left, right)


# --------------------------------------------------------------------- #
# beyond the paper: one GEMM per direction
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=16)
def _field_free_sweep(
    n: int, h: float, dt: float, mass: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The theta = 0 Strang matrix and its two wrap-bond terms.

    Returns ``(U0, W_up, W_dn)`` with ``W_up = s E0[:, n-1] E0[0, :]``
    and ``W_dn = s E0[:, 0] E0[n-1, :]``: ``E0`` is the field-free even
    pass and ``s`` the field-free hop of the odd pass.
    """
    half, full, _ = strang_passes(n, h, dt, theta=0.0, mass=mass)
    even = pair_split_matrix(half)
    u0 = even @ pair_split_matrix(full) @ even
    hop = full.bu[n - 1]  # the odd pass's wrap pair is (n-1, 0)
    w_up = hop * np.outer(even[:, n - 1], even[0, :])
    w_dn = hop * np.outer(even[:, 0], even[n - 1, :])
    for part in (u0, w_up, w_dn):
        part.flags.writeable = False
    return u0, w_up, w_dn


@functools.lru_cache(maxsize=32)
def strang_operator(  # dclint: disable=DCL006 -- timed by kinetic_step
    n: int, h: float, dt: float, theta: float, mass: float, dtype: np.dtype
) -> np.ndarray:
    """One direction's Strang sweep E(dt/2) O(dt) E(dt/2) as an n x n matrix.

    Equal, to round-off, to the product of the three pass matrices of
    :func:`~repro.grids.stencil.strang_passes`, so it is unitary to
    round-off.  Returned read-only, in ``dtype``.

    A uniform Peierls phase is a gauge transformation on every bond but
    the periodic wrap bond (n-1, 0), which only the odd pass contains.
    With ``D = diag(exp(i theta j))``, the field-dependent passes are
    ``E = D E0 D^*`` and ``O = D (O0 + Delta) D^*``, where ``Delta``
    holds the wrap bond's residual phase ``exp(-+i n theta) - 1``; so

        U(theta) = D (U0 + E0 Delta E0) D^*,

    and ``E0 Delta E0`` is the two rank-one wrap-bond terms of
    :func:`_field_free_sweep`.  A new ``theta`` therefore costs a few
    n x n array operations instead of building three pass matrices.
    Memoised: under an x-polarised laser only ``theta_x`` changes from
    one QD sub-step to the next, so the y and z operators are built
    once.  The cast keeps complex64 propagation in single precision.
    """
    u0, w_up, w_dn = _field_free_sweep(n, h, dt, mass)
    wrap = cmath.exp(1j * n * theta)
    u = u0 + (wrap.conjugate() - 1.0) * w_up + (wrap - 1.0) * w_dn
    phase = np.exp(1j * theta * np.arange(n))
    u *= np.outer(phase, phase.conj())
    u = u.astype(dtype, copy=False)
    u.flags.writeable = False
    return u


def kin_prop_gemm(  # dclint: disable=DCL006 -- timed by kinetic_step
    soa: np.ndarray, mats: Sequence[np.ndarray]
) -> None:
    """Apply the whole kinetic sweep as one mode product per direction.

    ``mats`` holds the n_d x n_d :func:`strang_operator` matrix of each
    axis; along axis d the update is ``psi[.., i, ..] <- sum_j
    U_d[i, j] psi[.., j, ..]``.  Along x the SoA array is one
    (nx, rest) matrix, so this is a single GEMM; along y it is a GEMM
    batched over the x-planes.  A batch over every (x, y) slab is slow,
    so along z the kernel multiplies a z-leading copy instead.  Two
    scratch buffers take turns, and ``soa`` is written once, at the end.
    """
    if soa.ndim != 4:
        raise ValueError("SoA data must have shape (nx, ny, nz, norb)")
    nx, ny, nz, norb = soa.shape
    u_x, u_y, u_z = mats
    if (u_x.shape, u_y.shape, u_z.shape) != ((nx, nx), (ny, ny), (nz, nz)):
        raise ValueError("Strang matrices do not match the grid axes")
    buf_a = u_x @ soa.reshape(nx, -1)
    buf_b = np.matmul(u_y, buf_a.reshape(nx, ny, -1))
    lead = buf_a.reshape(nz, nx, ny, norb)
    lead[...] = np.moveaxis(buf_b.reshape(soa.shape), 2, 0)
    np.matmul(u_z, lead.reshape(nz, -1), out=buf_b.reshape(nz, -1))
    soa[...] = np.moveaxis(buf_b.reshape(lead.shape), 0, 2)


#: Registry of kernel variants (name -> callable(soa_or_aos, coeff, axis)).
#: ``blocked`` additionally accepts ``block_size=``; the common calling
#: convention is positional ``(data, coeff, axis)`` with ``None`` return.
#: ``gemm`` is the exception: one call ``(soa, (U_x, U_y, U_z))`` applies
#: the whole sweep.
KIN_PROP_VARIANTS: Dict[str, Callable[..., None]] = {
    "baseline": kin_prop_baseline,
    "interchange": kin_prop_interchange,
    "blocked": kin_prop_blocked,
    "collapsed": kin_prop_collapsed,
    "gemm": kin_prop_gemm,
}


def kinetic_step(
    wf: WaveFunctionSet,
    dt: float,
    theta: Sequence[float] = (0.0, 0.0, 0.0),
    variant: str = str(DEFAULT_PARAMS["lfd.kin_prop"]["variant"]),
    block_size: Optional[int] = None,
    mass: float = M_ELECTRON,
) -> None:
    """Propagate ``wf`` by ``exp(-i dt T / hbar)`` using a chosen kernel variant.

    The three Cartesian kinetic operators commute exactly (tensor-product
    structure), so the full step is the product of per-direction Strang
    sweeps even(dt/2) odd(dt) even(dt/2).  ``theta`` gives the Peierls
    phase per bond, h_d * A_d / c, along each axis (velocity-gauge vector
    potential; cf. Eq. (2)).

    The ``baseline`` variant converts to AoS and back around the sweep --
    benchmark code that wants to time the kernel alone should call
    :func:`kin_prop_baseline` directly on pre-converted data.

    ``block_size`` only affects the ``blocked`` variant; ``None`` defers
    to :func:`kin_prop_blocked`, which resolves the tile width from the
    active TuningProfile.  ``variant`` defaults to the ``lfd.kin_prop``
    entry of :data:`repro.tuning.defaults.DEFAULT_PARAMS`.
    """
    if variant not in KIN_PROP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; options: {sorted(KIN_PROP_VARIANTS)}")
    with trace_span("kin_prop", "kinetic", variant=variant):
        pts = wf.grid.npoints * wf.norb
        if variant == "gemm":
            # 8 real flops per complex multiply-add, n_d of them per
            # point-orbital along each axis; five read-write sweeps over
            # psi (three GEMMs, the z-leading copy and the write-back).
            trace_charge(8.0 * sum(wf.grid.shape) * pts,
                         10.0 * wf.psi.itemsize * pts)
            kin_prop_gemm(wf.psi, [
                strang_operator(n, float(h), float(dt), float(th),
                                float(mass), wf.dtype)
                for n, h, th in zip(wf.grid.shape, wf.grid.spacing, theta)
            ])
            return
        # 9 pair-split passes, 14 real flops and 3 complex-word streams
        # per point-orbital per pass (see repro.lfd.costs.kin_prop_pass).
        trace_charge(9.0 * 14.0 * pts, 9.0 * 3.0 * wf.psi.itemsize * pts)
        if variant == "baseline":
            data = wf.to_aos()
            for axis in range(3):
                n = wf.grid.shape[axis]
                h = wf.grid.spacing[axis]
                for coeff in strang_passes(n, h, dt, theta=theta[axis], mass=mass):
                    kin_prop_baseline(data, coeff, axis)
            wf.from_aos(data)
            return
        kernel = KIN_PROP_VARIANTS[variant]
        for axis in range(3):
            n = wf.grid.shape[axis]
            h = wf.grid.spacing[axis]
            for coeff in strang_passes(n, h, dt, theta=theta[axis], mass=mass):
                if variant == "blocked":
                    kernel(wf.psi, coeff, axis, block_size=block_size)
                else:
                    kernel(wf.psi, coeff, axis)
