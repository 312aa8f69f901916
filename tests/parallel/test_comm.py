"""SimComm collective tests: results must match real-MPI semantics."""

import numpy as np
import pytest

from repro.parallel import SimComm


@pytest.fixture
def comm():
    return SimComm(4)


class TestCollectives:
    def test_bcast(self, comm):
        data = np.arange(5)
        out = comm.bcast(data, root=2)
        assert len(out) == 4
        for r, v in enumerate(out):
            assert np.array_equal(v, data)
        # Non-root ranks get copies, not aliases.
        out[0][0] = 99
        assert data[0] == 99 if id(out[0]) == id(data) else data[0] == 0

    def test_bcast_bad_root(self, comm):
        with pytest.raises(ValueError):
            comm.bcast(1, root=4)

    def test_allreduce_sum(self, comm):
        vals = [np.full(3, r, dtype=float) for r in range(4)]
        out = comm.allreduce(vals)
        for v in out:
            assert np.allclose(v, 0 + 1 + 2 + 3)

    def test_allreduce_custom_op(self, comm):
        out = comm.allreduce([3, 1, 4, 1], op=max)
        assert out == [4, 4, 4, 4]

    def test_allreduce_does_not_mutate_inputs(self, comm):
        vals = [np.ones(2) for _ in range(4)]
        comm.allreduce(vals)
        assert all(np.allclose(v, 1.0) for v in vals)

    def test_allreduce_world_size_check(self, comm):
        with pytest.raises(ValueError):
            comm.allreduce([1, 2, 3])

    def test_reduce(self, comm):
        assert comm.reduce([1, 2, 3, 4]) == 10

    def test_gather_scatter(self, comm):
        gathered = comm.gather([10, 20, 30, 40], root=0)
        assert gathered == [10, 20, 30, 40]
        scattered = comm.scatter([5, 6, 7, 8], root=1)
        assert scattered == [5, 6, 7, 8]

    def test_allgather(self, comm):
        out = comm.allgather(["a", "b", "c", "d"])
        assert all(row == ["a", "b", "c", "d"] for row in out)

    def test_alltoall_transpose(self, comm):
        matrix = [[f"{src}->{dst}" for dst in range(4)] for src in range(4)]
        out = comm.alltoall(matrix)
        for dst in range(4):
            assert out[dst] == [f"{src}->{dst}" for src in range(4)]


class TestReductionOrderContract:
    """allreduce/reduce fold in one pinned order: ascending rank."""

    def test_schedule_is_ascending(self):
        for n in (1, 2, 5, 64):
            assert SimComm.reduction_schedule(n) == tuple(range(n))

    def test_schedule_validates_world_size(self):
        with pytest.raises(ValueError):
            SimComm.reduction_schedule(0)

    def test_noncommutative_op_exposes_fold_order(self, comm):
        # left fold in ascending rank order: ((10-1)-2)-3 == 4
        out = comm.allreduce([10, 1, 2, 3], op=lambda a, b: a - b)
        assert out == [4, 4, 4, 4]
        assert comm.reduce([10, 1, 2, 3], op=lambda a, b: a - b) == 4

    def test_reduce_matches_allreduce_bitwise(self, comm):
        rng = np.random.default_rng(11)
        vals = [rng.standard_normal(64) for _ in range(4)]
        red = comm.reduce(vals)
        allred = comm.allreduce(vals)
        for v in allred:
            assert np.array_equal(v, red)

    def test_allreduce_outputs_are_independent_copies(self, comm):
        out = comm.allreduce([np.ones(3) for _ in range(4)])
        out[0][0] = -1.0
        assert out[1][0] == 4.0

    def test_fold_repeatable_bitwise(self, comm):
        rng = np.random.default_rng(2)
        vals = [rng.standard_normal(128) * 10.0 ** rng.integers(-8, 8)
                for _ in range(4)]
        a = comm.allreduce(vals)[0]
        b = comm.allreduce(vals)[0]
        assert np.array_equal(a, b)


class TestCollectiveEdgeCases:
    @pytest.fixture
    def solo(self):
        return SimComm(1)

    def test_world_of_one(self, solo):
        assert solo.allreduce([5]) == [5]
        assert solo.reduce([np.arange(3)]) is not None
        assert solo.scatter([7]) == [7]
        assert solo.allgather(["x"]) == [["x"]]
        assert solo.alltoall([["a"]]) == [["a"]]

    def test_alltoall_ragged_row_rejected(self, comm):
        matrix = [[0] * 4, [0] * 4, [0] * 3, [0] * 4]
        with pytest.raises(ValueError):
            comm.alltoall(matrix)

    def test_alltoall_involution(self, comm):
        matrix = [[(src, dst) for dst in range(4)] for src in range(4)]
        assert comm.alltoall(comm.alltoall(matrix)) == matrix

    def test_scatter_world_size_mismatch(self, comm):
        with pytest.raises(ValueError):
            comm.scatter([1, 2])

    def test_empty_array_payloads(self, comm):
        out = comm.allreduce([np.zeros(0) for _ in range(4)])
        assert all(v.size == 0 for v in out)
        gathered = comm.gather([np.zeros(0)] * 4)
        assert len(gathered) == 4


class TestPointToPoint:
    def test_send_recv_fifo(self, comm):
        comm.send("first", src=0, dst=1)
        comm.send("second", src=0, dst=1)
        assert comm.recv(src=0, dst=1) == "first"
        assert comm.recv(src=0, dst=1) == "second"

    def test_recv_without_send(self, comm):
        with pytest.raises(RuntimeError):
            comm.recv(src=0, dst=1)

    def test_tags_isolate(self, comm):
        comm.send("x", 0, 1, tag=7)
        with pytest.raises(RuntimeError):
            comm.recv(0, 1, tag=8)
        assert comm.recv(0, 1, tag=7) == "x"

    def test_barrier_catches_leaks(self, comm):
        comm.send("lost", 0, 1)
        with pytest.raises(RuntimeError, match="undelivered"):
            comm.barrier()

    def test_pending_count(self, comm):
        comm.send(1, 0, 1)
        comm.send(2, 2, 3)
        assert comm.pending() == 2


class TestTimeCharging:
    def test_comm_time_charged_with_network(self):
        from repro.parallel import SLINGSHOT, RankTimeline

        tl = RankTimeline(4)
        comm = SimComm(4, network=SLINGSHOT, timeline=tl)
        comm.allreduce([np.ones(1000) for _ in range(4)])
        assert all(t > 0 for t in tl.comm_total)

    def test_every_collective_charges_the_timeline(self):
        from repro.parallel import SLINGSHOT, RankTimeline

        arrays = [np.ones(64) for _ in range(4)]
        calls = {
            "bcast": lambda c: c.bcast([np.ones(64), 1.0]),
            "reduce": lambda c: c.reduce(arrays),
            "gather": lambda c: c.gather(arrays),
            "allgather": lambda c: c.allgather(arrays),
            "scatter": lambda c: c.scatter(arrays),
            "alltoall": lambda c: c.alltoall([arrays] * 4),
        }
        for name, call in calls.items():
            tl = RankTimeline(4)
            call(SimComm(4, network=SLINGSHOT, timeline=tl))
            assert all(t > 0 for t in tl.comm_total), name
        tl = RankTimeline(4)
        comm = SimComm(4, network=SLINGSHOT, timeline=tl)
        comm.send(np.ones(8), 0, 3)
        comm.recv(0, 3)
        comm.barrier()
        assert tl.comm_total[0] > 0 and tl.comm_total[3] > 0
        assert tl.comm_total[1] == 0.0
        assert tl.barriers == 1

    def test_no_network_no_charge(self, comm):
        comm.allreduce([1, 2, 3, 4])  # must not raise


def test_world_size_validation():
    with pytest.raises(ValueError):
        SimComm(0)
