"""dclint: repo-specific static analysis for numerical-kernel discipline.

The paper's speedup story (Table I, Algorithms 1-6) depends on kernel
discipline that ordinary linters cannot see: fixed dtypes, preallocated
buffers reused across the Suzuki-Trotter hot loop, seeded randomness for
deterministic replay, traced kernels for the paper-taxonomy breakdown,
and volume-weighted inner products.  ``dclint`` encodes those contracts
as AST-level rules with per-rule severity, inline
``# dclint: disable=DCLnnn`` suppressions, a committed baseline file so
legacy findings do not block CI, and text/JSON/SARIF output.

Rules come in two tiers: the per-module rules (DCL001-DCL011, DCL017) inspect
one file at a time, while the project-wide rules (DCL012-DCL015) build
a cross-module symbol index, call graph and forward dataflow (reaching
definitions + a dtype lattice) over *all* linted files together, so
they catch hazards -- unpicklable executor tasks, entropy-seeded RNGs,
complex128 truncation, unresolved tunables -- that only exist across
module boundaries.  ``--jobs N`` fans the per-module pass over worker
processes and ``--cache FILE`` keys results on content fingerprints;
both are observationally pure (byte-identical reports).

Run it as ``python -m repro.statlint src/ --baseline statlint-baseline.json``.
"""

from repro.statlint.baseline import Baseline, BaselineEntry
from repro.statlint.config import LintConfig
from repro.statlint.engine import Finding, LintResult, lint_paths, lint_source
from repro.statlint.output import render_json, render_sarif, render_text
from repro.statlint.rules import ALL_RULES, Rule, all_rules, get_rule, rule_codes

__all__ = [
    "ALL_RULES",
    "all_rules",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "get_rule",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_codes",
]
