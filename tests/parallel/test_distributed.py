"""Rank-distributed DC-SCF: bit-identical to one rank for any rank count."""

import numpy as np
import pytest

from repro.grids import Grid3D, DomainDecomposition
from repro.obs import tracing
from repro.parallel import SLINGSHOT, RankTimeline
from repro.pseudo import get_species
from repro.qxmd import GlobalDCSolver
from repro.resilience.faults import FaultPlan, FaultSpec, armed
from repro.resilience.guards import SCFDivergenceError


@pytest.fixture(scope="module")
def system():
    grid = Grid3D((16, 16, 16), (0.6, 0.6, 0.6))
    dec = DomainDecomposition(grid, (2, 2, 1), buffer_width=3)
    pos = np.array(
        [[2.0, 2.0, 4.8], [7.0, 2.0, 4.8], [2.0, 7.0, 4.8], [7.0, 7.0, 4.8]]
    )
    sp = [get_species("H")] * 4
    return grid, dec, pos, sp


@pytest.fixture(scope="module")
def serial_result(system):
    grid, dec, pos, sp = system
    return GlobalDCSolver(grid, dec, pos, sp, norb_extra=2, nscf=2,
                          ncg=3).solve()


class TestEquivalence:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_identical_to_serial(self, system, serial_result, nranks):
        grid, dec, pos, sp = system
        dist = GlobalDCSolver(
            grid, dec, pos, sp, nranks=nranks, norb_extra=2, nscf=2, ncg=3
        ).solve()
        assert np.array_equal(dist.rho_global, serial_result.rho_global)
        assert np.array_equal(dist.v_global, serial_result.v_global)
        assert dist.energy_history == serial_result.energy_history
        for a, b in zip(dist.states, serial_result.states):
            assert a.domain.alpha == b.domain.alpha
            assert np.array_equal(a.wf.psi, b.wf.psi)
            assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_domain_order_preserved(self, system):
        grid, dec, pos, sp = system
        dist = GlobalDCSolver(
            grid, dec, pos, sp, nranks=2, norb_extra=2, nscf=1, ncg=1
        ).solve()
        assert [st.domain.alpha for st in dist.states] == [0, 1, 2, 3]


class TestValidation:
    def test_too_many_ranks(self, system):
        grid, dec, pos, sp = system
        with pytest.raises(ValueError):
            GlobalDCSolver(grid, dec, pos, sp, nranks=8)

    def test_zero_ranks(self, system):
        grid, dec, pos, sp = system
        with pytest.raises(ValueError):
            GlobalDCSolver(grid, dec, pos, sp, nranks=0)


class TestInstrumentation:
    def test_comm_time_charged(self, system):
        grid, dec, pos, sp = system
        tl = RankTimeline(4)
        GlobalDCSolver(
            grid, dec, pos, sp, nranks=4, nscf=2, ncg=2,
            network=SLINGSHOT, timeline=tl,
        ).solve()
        assert all(t > 0 for t in tl.comm_total)
        assert tl.barriers == 2  # one per SCF iteration


class TestRankPath:
    """The multi-rank loop is the one-rank loop: same fault point, spans
    and warm start."""

    def test_scf_diverge_fault_honoured(self, system):
        grid, dec, pos, sp = system
        solver = GlobalDCSolver(grid, dec, pos, sp, nranks=2, nscf=2,
                                ncg=1)
        plan = FaultPlan([FaultSpec("qxmd.scf_diverge", at_call=1)])
        with armed(plan):
            with pytest.raises(SCFDivergenceError, match="cycle 2/2"):
                solver.solve()

    def test_scf_cycle_spans(self, system):
        grid, dec, pos, sp = system
        with tracing() as tr:
            GlobalDCSolver(grid, dec, pos, sp, nranks=2, nscf=2,
                           ncg=1).solve()
        cycles = [r for r in tr.records if r.name == "scf.cycle"]
        assert [r.args["cycle"] for r in cycles] == [1, 2]
        assert all(r.category == "scf" for r in cycles)
        assert tr.calls("comm.bcast") == 2
        assert tr.calls("comm.allreduce") == 4

    def test_warm_start_matches_one_rank(self, system, serial_result):
        grid, dec, pos, sp = system
        warm = [st.wf for st in serial_result.states]

        def solve(nranks):
            return GlobalDCSolver(grid, dec, pos, sp, nranks=nranks,
                                  norb_extra=2, nscf=1, ncg=2
                                  ).solve(warm_wfs=warm)

        one, two = solve(1), solve(2)
        assert np.array_equal(two.rho_global, one.rho_global)
        assert two.energy_history == one.energy_history
        cold = GlobalDCSolver(grid, dec, pos, sp, nranks=2, norb_extra=2,
                              nscf=1, ncg=2).solve()
        assert two.energy_history != cold.energy_history
