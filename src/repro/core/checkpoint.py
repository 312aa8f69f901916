"""Checkpoint/restart for DC-MESH simulations.

Long NAQMD trajectories (the paper's production runs are thousands of MD
steps) need restart capability.  A checkpoint captures everything the MD
loop evolves: atomic positions/velocities, per-domain orbitals,
occupations and eigenvalues, surface-hopping carriers, cached forces,
simulation time and the RNG state -- so a restarted run continues the
*identical* trajectory (asserted by the tests).

Format: the shared :func:`repro.resilience.atomicio.write_npz` archive
(uncompressed; small structured state, RNG included, in ``__meta__``).
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, Any, Dict, Mapping, Tuple, Union

import numpy as np

from repro.qxmd.surface_hopping import SurfaceHoppingState
from repro.resilience.atomicio import read_npz, write_npz
from repro.tuning.profile import (
    TuningProfile,
    get_active_profile,
    set_active_profile,
)

if TYPE_CHECKING:  # mesh imports this module to implement its methods
    from repro.core.mesh import DCMESHSimulation

CHECKPOINT_VERSION = 2


def checkpoint_state(sim: DCMESHSimulation) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """The full mutable state of a simulation as ``(arrays, meta)``."""
    arrays = {
        "positions": sim.md_state.positions,
        "velocities": sim.md_state.velocities,
        "masses": sim.md_state.masses,
    }
    meta = {
        "version": CHECKPOINT_VERSION,
        "time": sim.time,
        "step_count": sim.step_count,
        "ndomains": len(sim.dc.states),
        "has_prev_forces": sim._prev_forces is not None,
        "carriers": {
            str(alpha): [c.active for c in carriers]
            for alpha, carriers in sim.carriers.items()
        },
        # Active tuning profile: a resumed run must replay the identical
        # tuned parameters (optional key).
        "tuning_profile": get_active_profile().to_dict(),
        "rng_state": sim.rng.bit_generator.state,
    }
    if sim._prev_forces is not None:
        arrays["prev_forces"] = sim._prev_forces
    for st in sim.dc.states:
        a = st.domain.alpha
        arrays[f"psi_{a}"] = st.wf.psi
        arrays[f"occ_{a}"] = st.occupations
        arrays[f"eig_{a}"] = st.eigenvalues
        arrays[f"vloc_{a}"] = st.vloc
    for alpha, carriers in sim.carriers.items():
        for i, c in enumerate(carriers):
            arrays[f"carrier_{alpha}_{i}"] = c.amplitudes
    return arrays, meta


def restore_state(
    sim: DCMESHSimulation, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
) -> None:
    """Restore ``(arrays, meta)`` into a compatibly constructed simulation.

    ``sim`` must have been built with the same grid, domains, species and
    configuration as the checkpointed run; mismatches raise ValueError.
    """
    # ---- phase 1: validate EVERYTHING before touching ``sim``. ----
    # A mid-load failure must not leave the simulation half-restored,
    # so every array is shape-checked first; only then is any state
    # applied.
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {meta['version']} != "
            f"supported {CHECKPOINT_VERSION}"
        )
    if meta["ndomains"] != len(sim.dc.states):
        raise ValueError(
            f"checkpoint has {meta['ndomains']} domains, simulation "
            f"has {len(sim.dc.states)}"
        )
    if arrays["positions"].shape != sim.md_state.positions.shape:
        raise ValueError("atom count mismatch with the checkpoint")
    for name in ("velocities", "masses"):
        want = getattr(sim.md_state, name).shape
        if arrays[name].shape != want:
            raise ValueError(
                f"{name} shape mismatch {arrays[name].shape} vs {want}"
            )
    if meta["has_prev_forces"]:
        if "prev_forces" not in arrays:
            raise ValueError("checkpoint is missing prev_forces")
        if arrays["prev_forces"].shape != sim.md_state.positions.shape:
            raise ValueError("prev_forces shape mismatch")
    for st in sim.dc.states:
        a = st.domain.alpha
        for key in (f"psi_{a}", f"occ_{a}", f"eig_{a}", f"vloc_{a}"):
            if key not in arrays:
                raise ValueError(f"checkpoint is missing array {key!r}")
        if arrays[f"psi_{a}"].shape != st.wf.psi.shape:
            raise ValueError(
                f"domain {a}: orbital shape mismatch "
                f"{arrays[f'psi_{a}'].shape} vs {st.wf.psi.shape}"
            )
        if arrays[f"occ_{a}"].shape != (st.wf.norb,):
            raise ValueError(f"domain {a}: occupation shape mismatch")
        if arrays[f"eig_{a}"].shape != (st.wf.norb,):
            raise ValueError(f"domain {a}: eigenvalue shape mismatch")
        if arrays[f"vloc_{a}"].shape != st.domain.local_grid.shape:
            raise ValueError(f"domain {a}: potential shape mismatch")
    for alpha_str, actives in meta["carriers"].items():
        alpha = int(alpha_str)
        if not (0 <= alpha < len(sim.dc.states)):
            raise ValueError(f"carrier domain {alpha} out of range")
        norb = sim.dc.states[alpha].wf.norb
        for i, active in enumerate(actives):
            key = f"carrier_{alpha}_{i}"
            if key not in arrays:
                raise ValueError(f"checkpoint is missing array {key!r}")
            if arrays[key].shape != (norb,):
                raise ValueError(
                    f"carrier {alpha}/{i}: amplitude shape mismatch"
                )
            if not (0 <= int(active) < norb):
                raise ValueError(
                    f"carrier {alpha}/{i}: active state out of range"
                )
    rng_state = meta["rng_state"]
    profile = (
        TuningProfile.from_dict(meta["tuning_profile"])
        if "tuning_profile" in meta
        else None  # pre-tuning checkpoint: leave the active profile
    )
    # Older checkpoints also carry an "array_backend" key, from when the
    # kernels had selectable array-API substrates; it is ignored.

    # ---- phase 2: apply (cannot fail on shape grounds anymore). ----
    sim.md_state.positions = arrays["positions"].copy()
    sim.md_state.velocities = arrays["velocities"].copy()
    sim.md_state.masses = arrays["masses"].copy()
    sim.time = float(meta["time"])
    sim.step_count = int(meta["step_count"])
    sim._prev_forces = (
        arrays["prev_forces"].copy() if meta["has_prev_forces"] else None
    )
    for st in sim.dc.states:
        a = st.domain.alpha
        st.wf.psi[...] = arrays[f"psi_{a}"]
        st.occupations = arrays[f"occ_{a}"].copy()
        st.eigenvalues = arrays[f"eig_{a}"].copy()
        st.vloc = arrays[f"vloc_{a}"].copy()
    sim.carriers.clear()
    for alpha_str, actives in meta["carriers"].items():
        alpha = int(alpha_str)
        carriers = []
        for i, active in enumerate(actives):
            amps = arrays[f"carrier_{alpha}_{i}"].copy()
            carriers.append(
                SurfaceHoppingState(amplitudes=amps, active=int(active))
            )
        sim.carriers[alpha] = carriers
    sim.rng.bit_generator.state = rng_state
    if profile is not None:
        set_active_profile(profile)


def save_checkpoint(sim: DCMESHSimulation, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Atomically write ``sim``'s state to ``path`` (``checkpoint.*`` fault sites)."""
    write_npz(path, *checkpoint_state(sim), fault_prefix="checkpoint")
    return pathlib.Path(path)


def load_checkpoint(sim: DCMESHSimulation, path: Union[str, pathlib.Path]) -> None:
    """Restore the checkpoint file at ``path`` into ``sim``."""
    restore_state(sim, *read_npz(path))
