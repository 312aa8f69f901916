"""Built-in tunables: registry shape and probe/trial physics."""

import numpy as np
import pytest

from repro.tuning.builtin import build_registry
from repro.tuning.defaults import TUNABLE_IDS, default_params
from repro.tuning.gate import GATE_TOL, correctness_error
from repro.tuning.registry import default_registry


@pytest.fixture(scope="module")
def registry():
    return build_registry()


class TestRegistryShape:
    def test_all_declared_ids_registered(self, registry):
        assert registry.ids() == TUNABLE_IDS
        assert len(registry) == 5

    def test_default_registry_is_cached_singleton(self):
        assert default_registry() is default_registry()

    def test_defaults_lie_inside_every_space(self, registry):
        for t in registry:
            assert t.canonical_defaults() == default_params(t.tunable_id)

    def test_every_tunable_documents_its_paper_counterpart(self, registry):
        for t in registry:
            assert t.paper_ref
            assert t.description
            assert t.source_modules or t.tunable_id == "parallel.executor"

    def test_source_texts_resolve(self, registry):
        for t in registry:
            for name, text in t.source_texts():
                assert text, f"{name} produced empty source"


def gate_against_defaults(tunable, params):
    probe = tunable.make_probe()
    ref = np.asarray(tunable.run_trial(probe, tunable.canonical_defaults()))
    out = np.asarray(tunable.run_trial(probe, params))
    return correctness_error(out, ref)


class TestProbePhysics:
    def test_kin_prop_variants_agree_on_probe(self, registry):
        t = registry.get("lfd.kin_prop")
        for params in ({"variant": "baseline", "block_size": 32},
                       {"variant": "interchange", "block_size": 32},
                       {"variant": "blocked", "block_size": 8},
                       {"variant": "collapsed", "block_size": 32}):
            assert gate_against_defaults(t, params) <= GATE_TOL, params

    def test_nonlocal_variants_agree_on_probe(self, registry):
        t = registry.get("lfd.nonlocal")
        for params in ({"variant": "naive", "orb_block": 16},
                       {"variant": "blas_blocked", "orb_block": 4}):
            assert gate_against_defaults(t, params) <= GATE_TOL

    def test_executor_backends_agree_on_probe(self, registry):
        t = registry.get("parallel.executor")
        err = gate_against_defaults(
            t, {"backend": "thread", "workers": 2, "chunk_size": 1})
        assert err == 0.0  # identical tasks, identical results

    def test_poisson_configs_agree_on_probe(self, registry):
        t = registry.get("multigrid.poisson")
        err = gate_against_defaults(
            t, {"smoother": "jacobi", "pre_sweeps": 1, "post_sweeps": 1})
        assert err <= GATE_TOL

    def test_trials_do_not_mutate_the_probe(self, registry):
        t = registry.get("lfd.kin_prop")
        probe = t.make_probe()
        before = probe["wf"].psi.copy()
        t.run_trial(probe, t.canonical_defaults())
        assert np.array_equal(probe["wf"].psi, before)


class TestPrefilters:
    def test_kin_prop_collapses_degenerate_block_sizes(self, registry):
        t = registry.get("lfd.kin_prop")
        assert t.skip_reason({"variant": "collapsed", "block_size": 8})
        assert t.skip_reason({"variant": "blocked", "block_size": 8}) is None
        assert t.skip_reason({"variant": "collapsed",
                              "block_size": 32}) is None

    def test_executor_skips_process_and_degenerate_points(self, registry):
        t = registry.get("parallel.executor")
        assert t.skip_reason({"backend": "process", "workers": 2,
                              "chunk_size": 2})
        assert t.skip_reason({"backend": "serial", "workers": 2,
                              "chunk_size": 1})
        assert t.skip_reason({"backend": "thread", "workers": 2,
                              "chunk_size": 2})
        assert t.skip_reason({"backend": "thread", "workers": 2,
                              "chunk_size": 1}) is None
