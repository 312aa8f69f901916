"""Kernel-by-kernel differential matrix.

Three gates:

1. **NumPy-path regression**: every hot kernel (kin/pot/nonlocal/CAP/
   multigrid/Hartree/FSSH) must reproduce the *pre-refactor* outputs
   committed in ``tests/data/golden_kernels.npz`` -- bit-for-bit on the
   platform that generated the file (``REPRO_GOLDEN_EXACT=1``), and to
   1e-12 across BLAS builds.

2. **Cross-namespace agreement**: the xp-first kernels (multigrid,
   Hartree, FSSH), run in the strict namespace of
   :mod:`tests.backend.namespaces`, must agree with the NumPy entry
   points to <= 1e-12.

3. **Coverage**: every ``repro`` function or method whose first
   parameter is the namespace ``xp`` must be run in the strict
   namespace by gate 2, so no xp-first kernel can pick up a bare NumPy
   call unnoticed.

Regenerate the golden file (after a *deliberate* numerics change) with::

    PYTHONPATH=src:. python -m tests.backend.test_kernel_matrix
"""

import importlib
import inspect
import os
import pathlib
import pkgutil
import sys

import numpy as np
import pytest

import repro
from repro.grids.grid import Grid3D
from repro.lfd.wavefunction import WaveFunctionSet

from tests.backend.namespaces import strict_namespace, to_numpy

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "data" / "golden_kernels.npz"
)

#: Cross-platform gate; REPRO_GOLDEN_EXACT=1 demands bit-identity.
GOLDEN_ATOL = 1e-12

#: Cross-namespace gate of the acceptance criteria.
XNS_ATOL = 1e-12

SEED = 777
THETA = (0.1, 0.0, -0.05)
DT = 0.05

#: FSSH swarm shape and MD step of the surface-hopping kernels.
SH_NTRAJ, SH_NSTATES, SH_DT, SH_SUBSTEPS = 6, 5, 0.8, 8


def _inputs():
    """Deterministic shared inputs of every kernel in the matrix."""
    grid = Grid3D.cubic(8, 0.5)
    rng = np.random.default_rng(SEED)
    wf = WaveFunctionSet.random(grid, 5, rng)
    ref = WaveFunctionSet.random(grid, 7, rng)
    vloc = 0.4 * rng.standard_normal(grid.shape)
    u = rng.standard_normal(grid.shape)
    f = rng.standard_normal(grid.shape)
    f -= f.mean()
    rho = rng.standard_normal(grid.shape)
    rho -= rho.mean()
    coarse = rng.standard_normal(tuple(n // 2 for n in grid.shape))
    return {
        "grid": grid, "wf": wf, "ref": ref, "vloc": vloc,
        "u": u, "f": f, "rho": rho, "coarse": coarse,
    }


def _fssh_inputs():
    """Deterministic stacked FSSH state (separate stream from ``_inputs``).

    State 3 is degenerate with state 2 (the EDC gap guard) and row 0 has
    an empty active state (the collapsed-population guard).
    """
    rng = np.random.default_rng(SEED + 1)
    shape = (SH_NTRAJ, SH_NSTATES)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    active = rng.integers(0, SH_NSTATES, size=SH_NTRAJ)
    c[0, active[0]] = 0.0
    c = c / np.sqrt(np.sum(np.abs(c) ** 2, axis=1))[:, None]
    energies = np.sort(rng.standard_normal(SH_NSTATES))
    energies[3] = energies[2]
    m = rng.standard_normal((SH_NSTATES, SH_NSTATES)) \
        + 1j * rng.standard_normal((SH_NSTATES, SH_NSTATES))
    nac = 0.5 * (m - m.conj().T)
    kinetic = rng.uniform(1e-3, 1.0, size=SH_NTRAJ)
    return {"c": c, "active": active, "energies": energies, "nac": nac,
            "kinetic": kinetic}


def _fssh(inp, xp=np):
    from repro.qxmd.sh_kernels import (
        apply_edc_batch_xp,
        hop_probabilities_batch_xp,
        propagate_amplitudes_batch_xp,
        stay_probabilities_xp,
    )

    c, active, energies, nac, kinetic = (
        xp.asarray(inp[k])
        for k in ("c", "active", "energies", "nac", "kinetic")
    )
    prop = propagate_amplitudes_batch_xp(xp, c, energies, nac, SH_DT,
                                         SH_SUBSTEPS)
    g = hop_probabilities_batch_xp(xp, c, active, nac, SH_DT)
    out = {
        "fssh_propagate": prop,
        "fssh_hop": g,
        "fssh_stay": stay_probabilities_xp(xp, g),
        "fssh_edc": apply_edc_batch_xp(xp, prop, active, energies, SH_DT,
                                       kinetic, 0.3),
    }
    return {k: to_numpy(v) for k, v in out.items()}


def _kin(inp, variant, block_size=None):
    from repro.lfd.kin_prop import kinetic_step

    wf = inp["wf"].copy()
    for _ in range(2):
        kinetic_step(wf, DT, theta=THETA, variant=variant,
                     block_size=block_size)
    return wf.psi.copy()


def _pot(inp):
    from repro.lfd.pot_prop import potential_phase, potential_phase_step

    wf = inp["wf"].copy()
    phase = potential_phase(inp["vloc"], DT)
    potential_phase_step(wf, inp["vloc"], DT)
    return np.asarray(phase), wf.psi.copy()


def _cap(inp):
    from repro.lfd.cap import cos2_absorber

    w = cos2_absorber(inp["grid"], width_points=2, strength=1.5)
    wf = inp["wf"].copy()
    wf.psi *= np.exp(-DT * np.asarray(w))[..., None]
    return np.asarray(w), wf.psi.copy()


def _nonlocal(inp, variant):
    from repro.lfd.nonlocal_corr import NonlocalCorrector

    wf = inp["wf"].copy()
    corr = NonlocalCorrector(
        ref_unocc=inp["ref"], scissor_shift=0.037, variant=variant,
        orb_block=3 if variant == "blas_blocked" else 16,
    )
    corr.apply(wf, DT)
    return wf.psi.copy()


def _multigrid(inp):
    from repro.multigrid.poisson import PoissonMultigrid, solve_poisson_fft
    from repro.multigrid.smoothers import (red_black_gauss_seidel,
                                           weighted_jacobi)
    from repro.multigrid.transfer import (prolong_trilinear,
                                          restrict_full_weighting)

    grid = inp["grid"]
    spacing = grid.spacing
    out = {
        "mg_jacobi": weighted_jacobi(inp["u"], inp["f"], spacing, sweeps=3),
        "mg_rbgs": red_black_gauss_seidel(inp["u"], inp["f"], spacing,
                                          sweeps=2),
        "mg_restrict": restrict_full_weighting(inp["f"]),
        "mg_prolong": prolong_trilinear(inp["coarse"], grid.shape),
        "mg_fft": solve_poisson_fft(inp["rho"], grid),
    }
    solver = PoissonMultigrid(grid, pre_sweeps=2, post_sweeps=2,
                              smoother="rbgs")
    v, stats = solver.solve(inp["rho"], tol=1e-10)
    out["mg_solve"] = v
    out["mg_residuals"] = np.asarray(stats.residual_norms)
    return {k: np.asarray(v) for k, v in out.items()}


def _multigrid_xp(inp, xp):
    """The kernels behind :func:`_multigrid`, called in namespace ``xp``."""
    from repro.multigrid.poisson import PoissonMultigrid, solve_poisson_fft_xp
    from repro.multigrid.smoothers import (red_black_gauss_seidel_xp,
                                           weighted_jacobi_xp)
    from repro.multigrid.transfer import (prolong_trilinear_xp,
                                          restrict_full_weighting_xp)

    grid = inp["grid"]
    spacing = grid.spacing
    u, f, rho, coarse = (xp.asarray(inp[k])
                         for k in ("u", "f", "rho", "coarse"))
    out = {
        "mg_jacobi": weighted_jacobi_xp(xp, u, f, spacing, sweeps=3),
        "mg_rbgs": red_black_gauss_seidel_xp(xp, u, f, spacing, sweeps=2),
        "mg_restrict": restrict_full_weighting_xp(xp, f),
        "mg_prolong": prolong_trilinear_xp(xp, coarse, grid.shape),
        "mg_fft": solve_poisson_fft_xp(xp, rho, grid),
    }
    solver = PoissonMultigrid(grid, pre_sweeps=2, post_sweeps=2,
                              smoother="rbgs")
    v, stats = solver.solve_xp(xp, rho, tol=1e-10)
    out["mg_solve"] = v
    out = {k: to_numpy(v) for k, v in out.items()}
    out["mg_residuals"] = np.asarray(stats.residual_norms)
    return out


def _hartree(inp):
    from repro.qxmd.hartree import hartree_potential

    return (
        np.asarray(hartree_potential(inp["rho"], inp["grid"],
                                     method="multigrid")),
        np.asarray(hartree_potential(inp["rho"], inp["grid"], method="fft")),
    )


def _hartree_xp(inp, xp):
    """The kernels behind :func:`_hartree`, called in namespace ``xp``."""
    from repro.multigrid.poisson import PoissonMultigrid, solve_poisson_fft_xp

    grid = inp["grid"]
    rho = xp.asarray(inp["rho"])
    v, stats = PoissonMultigrid(grid).solve_xp(xp, rho)
    assert stats.converged
    return to_numpy(v), to_numpy(solve_poisson_fft_xp(xp, rho, grid))


def strict_matrix(strict):
    """Every xp-first kernel of the matrix, run in ``strict``, beside the
    NumPy entry points it must agree with: ``{key: (numpy, strict)}``."""
    inp = _inputs()
    pairs = {}
    want, got = _multigrid(inp), _multigrid_xp(inp, strict)
    pairs.update((key, (want[key], got[key])) for key in want)
    for key, a, b in zip(("hartree_mg", "hartree_fft"), _hartree(inp),
                         _hartree_xp(inp, strict)):
        pairs[key] = (a, b)
    fssh_inp = _fssh_inputs()
    want, got = _fssh(fssh_inp), _fssh(fssh_inp, strict)
    pairs.update((key, (want[key], got[key])) for key in want)
    return pairs


def golden_kernel_outputs():
    """Every kernel of the matrix on the default (NumPy) backend."""
    inp = _inputs()
    out = {}
    for variant in ("baseline", "interchange", "collapsed", "gemm"):
        out[f"kin_{variant}"] = _kin(inp, variant)
    out["kin_blocked_b3"] = _kin(inp, "blocked", block_size=3)
    out["kin_blocked_default"] = _kin(inp, "blocked")
    out["pot_phase"], out["pot_applied"] = _pot(inp)
    out["cap_w"], out["cap_applied"] = _cap(inp)
    for variant in ("naive", "blas", "blas_blocked"):
        out[f"nl_{variant}"] = _nonlocal(inp, variant)
    out.update(_multigrid(inp))
    out["hartree_mg"], out["hartree_fft"] = _hartree(inp)
    out.update(_fssh(_fssh_inputs()))
    return out


def regenerate(path=GOLDEN_PATH):
    """Write a fresh golden file (deliberate-change workflow)."""
    data = golden_kernel_outputs()
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **data)
    return path, data


# --------------------------------------------------------------------- #
# gate 1: NumPy path == pre-refactor kernels
# --------------------------------------------------------------------- #
class TestNumpyPathMatchesPreRefactorGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_PATH.exists(), (
            f"golden file missing: {GOLDEN_PATH}; regenerate with "
            f"python -m tests.backend.test_kernel_matrix"
        )
        return np.load(GOLDEN_PATH)

    @pytest.fixture(scope="class")
    def current(self):
        return golden_kernel_outputs()

    def test_same_kernel_set(self, golden, current):
        assert set(golden.files) == set(current)

    @pytest.mark.parametrize("key", sorted(np.load(GOLDEN_PATH).files)
                             if GOLDEN_PATH.exists() else [])
    def test_kernel_matches(self, golden, current, key):
        want, got = golden[key], current[key]
        assert want.shape == got.shape
        if os.environ.get("REPRO_GOLDEN_EXACT") == "1":
            assert np.array_equal(want, got), f"{key} not bit-exact"
        else:
            diff = float(np.max(np.abs(want - got))) if want.size else 0.0
            assert diff <= GOLDEN_ATOL, (
                f"{key}: max|diff| = {diff:.3e} > {GOLDEN_ATOL}"
            )


# --------------------------------------------------------------------- #
# gate 2: the strict namespace agrees with the NumPy entry points
# --------------------------------------------------------------------- #
class TestCrossNamespaceAgreement:
    """Same kernel, NumPy entry point vs strict namespace, <= 1e-12."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return strict_matrix(strict_namespace())

    def _check(self, pairs, keys):
        for key in keys:
            a, b = (np.asarray(x) for x in pairs[key])
            assert a.shape == b.shape, key
            diff = float(np.max(np.abs(a - b))) if a.size else 0.0
            assert diff <= XNS_ATOL, (
                f"{key}: max|diff| = {diff:.3e} > {XNS_ATOL}"
            )

    def test_multigrid(self, pairs):
        self._check(pairs, [k for k in pairs if k.startswith("mg_")])

    def test_hartree(self, pairs):
        self._check(pairs, ["hartree_mg", "hartree_fft"])

    def test_fssh(self, pairs):
        self._check(pairs, [k for k in pairs if k.startswith("fssh_")])


# --------------------------------------------------------------------- #
# gate 3: gate 2 runs every xp-first function in the strict namespace
# --------------------------------------------------------------------- #
def _takes_xp_first(fn) -> bool:
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return False
    if params[:1] == ["self"]:
        params = params[1:]
    return params[:1] == ["xp"]


def xp_first_functions():
    """``{qualified name: code object}`` of every function or method in
    ``repro`` whose first parameter (after ``self``) is ``xp``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(f"{name}.{k}", v) for k, v in vars(obj).items()]
            else:
                members = [(name, obj)]
            for qual, fn in members:
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and _takes_xp_first(fn)):
                    found[f"{module.__name__}.{qual}"] = fn.__code__
    return found


def test_strict_matrix_calls_every_xp_function():
    targets = xp_first_functions()
    # An empty walk would pass vacuously.
    assert len(targets) >= 20, sorted(targets)
    strict = strict_namespace()
    codes = set(targets.values())
    called = set()

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code in codes
                and frame.f_locals.get("xp") is strict):
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        strict_matrix(strict)
    finally:
        sys.setprofile(None)
    missed = sorted(name for name, code in targets.items()
                    if code not in called)
    assert not missed, (
        f"xp-first functions the strict matrix never runs in the strict "
        f"namespace: {missed}"
    )


if __name__ == "__main__":
    p, data = regenerate()
    print(f"golden kernel outputs written to {p}")
    for key, val in sorted(data.items()):
        print(f"  {key}: shape {val.shape}")
