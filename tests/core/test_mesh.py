"""DCMESHSimulation integration tests (small but complete runs)."""

import numpy as np
import pytest

from repro.core import DCMESHConfig, DCMESHSimulation, TimescaleSplit
from repro.device import VirtualGPU
from repro.grids import Grid3D
from repro.maxwell import GaussianPulse
from repro.pseudo import get_species


def make_sim(laser=None, device=None, seed=7, **cfg_kwargs):
    g = Grid3D((16, 16, 16), (0.6, 0.6, 0.6))
    pos = np.array([[2.0, 4.8, 4.8], [7.0, 4.8, 4.8]])
    sp = [get_species("O"), get_species("O")]
    defaults = dict(
        # dt_qd = 0.1 a.u. keeps the splitting stable (see
        # QDPropagator.kinetic_rotation_angle); the paper's production
        # dt_qd is ~0.04 a.u.
        timescale=TimescaleSplit(dt_md=2.0, n_qd=20),
        nscf=2,
        ncg=3,
        norb_extra=2,
        seed=seed,
    )
    defaults.update(cfg_kwargs)
    cfg = DCMESHConfig(**defaults)
    return DCMESHSimulation(
        g, (2, 1, 1), pos, sp, laser=laser, config=cfg, device=device,
        buffer_width=3,
    )


@pytest.fixture(scope="module")
def sim_with_history():
    sim = make_sim(
        laser=GaussianPulse(e0=0.02, omega=0.3, t0=20.0, sigma=10.0),
        device=VirtualGPU(),
    )
    sim.excite_carrier(0)
    sim.run(3)
    return sim


class TestConstruction:
    def test_initial_state(self):
        sim = make_sim()
        assert len(sim.dc.states) == 2
        assert sim.step_count == 0
        # Each O domain: 6 electrons -> 3 occupied + 2 extra orbitals.
        for st in sim.dc.states:
            assert st.wf.norb == 5
            assert st.occupations.sum() == pytest.approx(6.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DCMESHConfig(nscf=0)

    def test_psi_uploaded_once(self):
        sim = make_sim(device=VirtualGPU())
        assert sim.ledger.psi_uploads == 1


class TestExcitation:
    def test_excite_carrier_moves_electron(self):
        sim = make_sim()
        before = sim.dc.states[0].occupations.copy()
        sim.excite_carrier(0)
        after = sim.dc.states[0].occupations
        assert after[2] == pytest.approx(before[2] - 1.0)  # HOMO emptied
        assert after[3] == pytest.approx(before[3] + 1.0)  # LUMO filled
        assert sim.excited_population() == pytest.approx(1.0)

    def test_excited_population_tolerates_electron_sum_roundoff(self):
        """Electron sums of 6 and 6 +- 1 ulp all fill three orbitals."""
        sim = make_sim()
        st = sim.dc.states[0]
        pops = []
        for nelec in (np.nextafter(6.0, 0.0), 6.0, np.nextafter(6.0, 7.0)):
            st.occupations[:] = [2.0, 2.0, 1.5, nelec - 5.5, 0.0]
            assert st.occupations.sum() == nelec
            pops.append(sim.excited_population())
        assert pops == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)

    def test_excite_out_of_range(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.excite_carrier(0, target_offset=10)


class TestRun(object):
    def test_records_accumulate(self, sim_with_history):
        sim = sim_with_history
        assert sim.step_count == 3
        assert len(sim.history) == 3
        assert sim.history[-1].time == pytest.approx(3 * 2.0)

    def test_occupations_conserved(self, sim_with_history):
        for st in sim_with_history.dc.states:
            assert st.occupations.sum() == pytest.approx(6.0, rel=1e-9)
            assert np.all(st.occupations >= -1e-9)
            # Charge-conserving rescale can mildly overfill a band at this
            # deliberately coarse test resolution.
            assert np.all(st.occupations <= 2.0 + 0.25)

    def test_shadow_contract_held(self, sim_with_history):
        sim = sim_with_history
        sim.ledger.assert_no_psi_traffic()
        assert sim.ledger.traffic_ratio() < 0.1

    def test_scissor_shifts_finite(self, sim_with_history):
        for rec in sim_with_history.history:
            assert all(np.isfinite(s) for s in rec.scissor_shifts)

    def test_atoms_moved(self, sim_with_history):
        sim = sim_with_history
        assert sim.md_state.positions[0, 0] != 2.0  # forces acted

    def test_vector_potential_recorded(self, sim_with_history):
        a_norms = [np.linalg.norm(r.vector_potential) for r in
                   sim_with_history.history]
        assert any(a > 0 for a in a_norms)

    def test_negative_steps_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.run(-1)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a = make_sim(seed=3)
        b = make_sim(seed=3)
        ra = a.run(2)
        rb = b.run(2)
        assert ra[-1].band_energy == pytest.approx(rb[-1].band_energy)
        assert np.allclose(a.md_state.positions, b.md_state.positions)


class TestAblationsToggles:
    def test_scissor_off_runs(self):
        sim = make_sim(use_scissor=False)
        rec = sim.md_step()
        assert all(s == 0.0 for s in rec.scissor_shifts)

    def test_nonlocal_off_runs(self):
        sim = make_sim(include_nonlocal=False)
        rec = sim.md_step()
        assert rec.step == 1

    def test_surface_hopping_off(self):
        sim = make_sim(use_surface_hopping=False)
        sim.excite_carrier(0)
        recs = sim.run(2)
        assert all(r.hops == 0 for r in recs)
