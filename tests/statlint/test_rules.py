"""Every DCL rule: known-bad fixtures flag, known-good fixtures stay clean."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.statlint import LintConfig, lint_paths, lint_source
from repro.statlint.rules import ALL_RULES, all_rules, get_rule, rule_codes

FIXTURES = Path(__file__).parent / "fixtures"

#: rule -> (fixture stem, synthetic relpath that puts it in the rule's scope,
#:          expected number of findings in the bad fixture)
CASES = {
    "DCL001": ("dcl001", "src/repro/lfd/fixture.py", 4),
    "DCL002": ("dcl002", "src/repro/lfd/fixture.py", 4),
    "DCL003": ("dcl003", "src/repro/resilience/fixture.py", 4),
    "DCL004": ("dcl004", "src/repro/qxmd/fixture.py", 3),
    "DCL005": ("dcl005", "src/repro/core/fixture.py", 4),
    "DCL006": ("dcl006", "src/repro/lfd/kin_prop.py", 2),
    "DCL007": ("dcl007", "src/repro/device/fixture.py", 3),
    "DCL008": ("dcl008", "src/repro/qxmd/fixture.py", 2),
    "DCL009": ("dcl009", "src/repro/qxmd/dftsolver.py", 3),
    "DCL010": ("dcl010", "src/repro/core/fixture.py", 3),
    "DCL011": ("dcl011", "src/repro/parallel/backends/fixture.py", 5),
    "DCL017": ("dcl017", "src/repro/serve/fixture.py", 5),
}

#: The project-wide rules lint through lint_paths (they need the
#: cross-module index), so their cases carry the same metadata but run
#: against a temp tree holding the fixture at an in-scope relpath.
PROJECT_CASES = {
    "DCL012": ("dcl012", "src/repro/core/fixture.py", 3),
    "DCL013": ("dcl013", "src/repro/parallel/fixture.py", 3),
    "DCL014": ("dcl014", "src/repro/lfd/fixture.py", 3),
    "DCL015": ("dcl015", "src/repro/lfd/fixture.py", 4),
}


def lint_fixture(name: str, relpath: str, code: str):
    source = (FIXTURES / f"{name}.py").read_text()
    config = LintConfig(select=(code,))
    return lint_source(source, relpath, config)


def lint_project_fixture(tmp_path: Path, name: str, relpath: str, code: str):
    dst = tmp_path / relpath
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES / f"{name}.py", dst)
    result = lint_paths(
        [str(tmp_path)], LintConfig(select=(code,)), root=tmp_path
    )
    assert not result.errors, result.errors
    return result.findings


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_fixture_flags(code):
    stem, relpath, expected = CASES[code]
    findings = lint_fixture(f"{stem}_bad", relpath, code)
    assert len(findings) == expected, [f.to_dict() for f in findings]
    assert {f.rule for f in findings} == {code}
    for f in findings:
        assert f.severity == "error"
        assert f.line >= 1
        assert f.snippet
        assert f.message


@pytest.mark.parametrize("code", sorted(CASES))
def test_good_fixture_clean(code):
    stem, relpath, _ = CASES[code]
    findings = lint_fixture(f"{stem}_good", relpath, code)
    assert findings == [], [f.to_dict() for f in findings]


@pytest.mark.parametrize("code", sorted(CASES))
def test_scoped_rules_skip_out_of_scope_paths(code):
    """Path-scoped rules don't fire outside their layer."""
    rule = get_rule(code)
    if rule.scope_attr is None:
        pytest.skip("rule applies everywhere")
    stem, _, _ = CASES[code]
    findings = lint_fixture(f"{stem}_bad", "scripts/tooling/helper.py", code)
    assert findings == []


@pytest.mark.parametrize("code", sorted(PROJECT_CASES))
def test_project_bad_fixture_flags(code, tmp_path):
    stem, relpath, expected = PROJECT_CASES[code]
    findings = lint_project_fixture(tmp_path, f"{stem}_bad", relpath, code)
    assert len(findings) == expected, [f.to_dict() for f in findings]
    assert {f.rule for f in findings} == {code}
    for f in findings:
        assert f.severity == "error"
        assert f.line >= 1
        assert f.snippet
        assert f.message


@pytest.mark.parametrize("code", sorted(PROJECT_CASES))
def test_project_good_fixture_clean(code, tmp_path):
    stem, relpath, _ = PROJECT_CASES[code]
    findings = lint_project_fixture(tmp_path, f"{stem}_good", relpath, code)
    assert findings == [], [f.to_dict() for f in findings]


@pytest.mark.parametrize("code", sorted(PROJECT_CASES))
def test_project_scoped_rules_skip_out_of_scope_paths(code, tmp_path):
    rule = get_rule(code)
    if rule.scope_attr is None:
        pytest.skip("rule applies everywhere")
    stem, _, _ = PROJECT_CASES[code]
    findings = lint_project_fixture(
        tmp_path, f"{stem}_bad", "scripts/tooling/helper.py", code
    )
    assert findings == []


def test_rule_registry_complete():
    assert rule_codes() == tuple(
        f"DCL{i:03d}" for i in range(1, 16)
    ) + ("DCL017",)
    assert tuple(r.code for r in ALL_RULES) == tuple(
        f"DCL{i:03d}" for i in range(1, 12)
    ) + ("DCL017",)
    for rule in all_rules():
        assert rule.summary
        assert rule.paper_ref
        assert rule.__doc__


def test_project_rules_marked():
    for rule in all_rules():
        expected = rule.code in PROJECT_CASES
        assert bool(getattr(rule, "project", False)) is expected, rule.code


def test_get_rule_unknown():
    with pytest.raises(KeyError):
        get_rule("DCL999")


def test_all_rules_together_on_bad_fixture():
    """Running the full rule set (no select) still finds DCL001 hits."""
    source = (FIXTURES / "dcl001_bad.py").read_text()
    findings = lint_source(source, "src/repro/lfd/fixture.py")
    assert {f.rule for f in findings} >= {"DCL001"}


def test_dcl001_astype_copy_false_exempt():
    src = (
        "import numpy as np\n"
        "def f(psi):\n"
        "    for _ in range(3):\n"
        "        q = psi.astype(np.complex128, copy=False)\n"
        "    return q\n"
    )
    assert lint_source(src, "src/repro/lfd/x.py", LintConfig(select=("DCL001",))) == []


def test_dcl004_reraise_exempt():
    src = (
        "def f(step):\n"
        "    try:\n"
        "        return step()\n"
        "    except Exception:\n"
        "        raise RuntimeError('wrapped')\n"
    )
    assert lint_source(src, "anywhere.py", LintConfig(select=("DCL004",))) == []


def test_dcl007_distinct_out_ok():
    src = (
        "import numpy as np\n"
        "def f(a, b, w):\n"
        "    np.matmul(a, b, out=w)\n"
        "    return w\n"
    )
    assert lint_source(src, "anywhere.py", LintConfig(select=("DCL007",))) == []


def test_dcl010_none_and_variable_exempt():
    src = (
        "def f(step, wf, bs):\n"
        "    step(wf, block_size=None)\n"   # None = profile resolution
        "    step(wf, block_size=bs)\n"     # flows from the caller
        "    step(wf, orb_block=bs)\n"
    )
    cfg = LintConfig(select=("DCL010",))
    assert lint_source(src, "src/repro/lfd/x.py", cfg) == []


def test_dcl010_out_of_scope_sweeps_allowed():
    """Benchmark ablation sweeps enumerate literals by design."""
    src = "def f(step, wf):\n    step(wf, block_size=8)\n"
    cfg = LintConfig(select=("DCL010",))
    assert lint_source(src, "benchmarks/bench_ablations.py", cfg) == []
    assert len(lint_source(src, "src/repro/lfd/x.py", cfg)) == 1


def test_dcl003_numpy_random_submodule_import():
    src = "import numpy.random\ndef f():\n    return numpy.random.rand(3)\n"
    findings = lint_source(src, "anywhere.py", LintConfig(select=("DCL003",)))
    assert len(findings) == 1
