"""Rule scoping and severity configuration for dclint.

Path scopes are substring patterns against the POSIX-style path of each
linted file (relative to the lint root when possible).  They encode the
repo's layer map: which modules are *hot-loop* kernels (Algorithm 2
memory reuse applies), which are *kernel modules* (fixed-dtype
contract), and which are *phase modules* (every public kernel must open
a paper-taxonomy tracer span).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: Modules whose loops are Suzuki-Trotter / multigrid / CG hot paths: no
#: hidden array construction inside ``for``/``while`` (paper Alg. 2).
HOT_LOOP_PATHS: Tuple[str, ...] = (
    "repro/lfd/",
    "repro/multigrid/",
    "repro/qxmd/cg.py",
)

#: Modules under the fixed-dtype contract: no implicit narrowing casts.
KERNEL_DTYPE_PATHS: Tuple[str, ...] = (
    "repro/lfd/",
    "repro/multigrid/",
    "repro/qxmd/",
    "repro/grids/",
    "repro/device/",
)

#: Phase modules of the paper kernel taxonomy (cf. repro/obs/phases.py):
#: public module-level kernels here must open a tracer span so Table I/II
#: style breakdowns stay complete.
TRACED_PHASE_PATHS: Tuple[str, ...] = (
    "repro/lfd/kin_prop.py",
    "repro/lfd/pot_prop.py",
    "repro/lfd/nonlocal_corr.py",
    "repro/qxmd/hartree.py",
)

#: Modules where conjugate-contraction reductions are grid inner products
#: and must carry the volume element ``dvol``.
DVOL_PATHS: Tuple[str, ...] = (
    "repro/lfd/",
    "repro/qxmd/",
)

#: Modules whose per-domain hot paths must dispatch through the
#: DomainExecutor abstraction: constructing a DomainSolver or
#: QDPropagator inside a loop there bypasses the backend-selectable
#: executor (and its crash healing, tracing and RNG discipline).
EXECUTOR_PATHS: Tuple[str, ...] = (
    "repro/qxmd/dftsolver.py",
    "repro/core/mesh.py",
)

#: Modules that *consume* tuning-managed parameters: call sites here
#: must not pin a tuned block/chunk shape to an integer literal --
#: that bypasses the TuningProfile (repro.tuning) and the persisted,
#: machine-fingerprinted winner never takes effect.  The tuning
#: subsystem itself and the benchmark ablation sweeps are deliberately
#: out of scope (they enumerate candidate values by design).
TUNING_LITERAL_PATHS: Tuple[str, ...] = (
    "repro/lfd/",
    "repro/qxmd/",
    "repro/core/",
    "repro/resilience/",
)

#: Keyword arguments owned by the tuning subsystem: pinning one of
#: these to an int literal at a call site bypasses the TuningProfile.
TUNED_LITERAL_KWARGS: Tuple[str, ...] = (
    "block_size",
    "chunk_size",
    "orb_block",
)

#: Modules under the bounded-waiting contract (PR-6 hang-aware
#: execution): every potentially blocking primitive call must carry a
#: timeout so a wedged worker can never block the parent forever --
#: waits poll with a bound and re-check the armed deadline scope.
LIVENESS_PATHS: Tuple[str, ...] = (
    "repro/parallel/backends/",
    "repro/parallel/executor.py",
    "repro/resilience/liveness.py",
    "repro/resilience/supervisor.py",
)

#: Modules hosting asyncio event-loop code (the serving daemon): a
#: blocking call lexically inside an ``async def`` here stalls every
#: connected client at once, so all compute and file I/O must route
#: through ``run_in_executor`` (DCL017).
ASYNC_PATHS: Tuple[str, ...] = (
    "repro/serve/",
)

#: Call names that block the calling thread: module-level functions
#: (``time.sleep``, ``subprocess.run``, ...) keyed as (module, attr).
BLOCKING_MODULE_CALLS: Tuple[Tuple[str, str], ...] = (
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("os", "system"),
    ("os", "popen"),
    ("shutil", "rmtree"),
    ("shutil", "copytree"),
)

#: Method names that block (socket ops without a timeout path, eager
#: pathlib file I/O).  Matched lexically on the attribute name alone;
#: awaited calls are exempt, so asyncio's own stream methods never trip.
BLOCKING_METHODS: Tuple[str, ...] = (
    "recv",
    "recvfrom",
    "send",
    "sendall",
    "accept",
    "connect",
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
)

#: Narrowing dtype names: casting *to* one of these inside a kernel
#: module silently loses precision (complex128 -> complex64, 64 -> 32).
NARROWING_DTYPES: Tuple[str, ...] = (
    "float32",
    "float16",
    "complex64",
    "single",
    "csingle",
    "half",
    "int32",
    "int16",
    "int8",
    "uint32",
    "uint16",
    "uint8",
)

#: Modules whose functions sit on the executor/ensemble/swarm fan-out
#: paths: RNG values used here must derive from the deterministic
#: ``worker_rng`` / ``chunk_rng`` / ``trajectory_rng`` streams (DCL013),
#: and executor task callables dispatched from here must be picklable
#: module-level functions (DCL012).
RNG_SCOPE_PATHS: Tuple[str, ...] = (
    "repro/parallel/",
    "repro/ensemble/",
    "repro/qxmd/scf.py",
)

#: The blessed deterministic RNG provenance functions: a Generator on an
#: executor path must come from one of these (or from an explicitly
#: seeded ``default_rng(seed)`` whose seed rides in the task item).
RNG_PROVENANCE_FUNCS: Tuple[str, ...] = (
    "worker_rng",
    "chunk_rng",
    "trajectory_rng",
)

#: Identifiers that mark a TuningProfile resolution point: an
#: ``is None``-guarded tunable assignment must route through one of
#: these, otherwise the persisted tuned winner is silently bypassed.
TUNING_RESOLUTION_MARKERS: Tuple[str, ...] = (
    "get_active_profile",
    "params_for",
    "resolve_tunable",
)

#: Real-valued cast targets: complex128 flowing into one of these loses
#: its imaginary part with no runtime error on the ndarray path.
REAL_SINK_DTYPES: Tuple[str, ...] = (
    "float64",
    "double",
    "float",
    "float_",
    "float32",
    "single",
    "float16",
    "half",
)

#: numpy.random attributes that are legitimate (seeded-Generator plumbing).
SEEDED_RNG_OK: Tuple[str, ...] = (
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
)

#: numpy array constructors whose call inside a hot loop allocates.
ARRAY_CONSTRUCTORS: Tuple[str, ...] = (
    "empty",
    "zeros",
    "ones",
    "full",
    "empty_like",
    "zeros_like",
    "ones_like",
    "full_like",
    "array",
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "copy",
    "arange",
    "linspace",
    "identity",
    "eye",
    "tile",
    "repeat",
    "concatenate",
    "stack",
    "vstack",
    "hstack",
    "dstack",
    "meshgrid",
)

#: Non-elementwise numpy ops where ``out=`` aliasing an input is a
#: read-after-write hazard (elementwise ufuncs alias safely).
NON_ELEMENTWISE_OUT_OPS: Tuple[str, ...] = (
    "matmul",
    "dot",
    "einsum",
    "tensordot",
    "inner",
    "outer",
    "cross",
    "convolve",
    "correlate",
    "roll",
    "cumsum",
    "cumprod",
    "sort",
    "take",
    "mean",
    "sum",
)

DEFAULT_SEVERITIES: Mapping[str, str] = {
    "DCL001": "error",
    "DCL002": "error",
    "DCL003": "error",
    "DCL004": "error",
    "DCL005": "error",
    "DCL006": "error",
    "DCL007": "error",
    "DCL008": "error",
    "DCL009": "error",
    "DCL010": "error",
    "DCL011": "error",
    "DCL012": "error",
    "DCL013": "error",
    "DCL014": "error",
    "DCL015": "error",
    "DCL017": "error",
}

_VALID_SEVERITIES = ("error", "warning", "note")


@dataclass
class LintConfig:
    """Which rules run, at what severity, over which path scopes."""

    select: Tuple[str, ...] = ()       # empty = all rules
    ignore: Tuple[str, ...] = ()
    severities: Dict[str, str] = field(default_factory=dict)
    hot_loop_paths: Tuple[str, ...] = HOT_LOOP_PATHS
    kernel_dtype_paths: Tuple[str, ...] = KERNEL_DTYPE_PATHS
    traced_phase_paths: Tuple[str, ...] = TRACED_PHASE_PATHS
    dvol_paths: Tuple[str, ...] = DVOL_PATHS
    executor_paths: Tuple[str, ...] = EXECUTOR_PATHS
    tuning_literal_paths: Tuple[str, ...] = TUNING_LITERAL_PATHS
    liveness_paths: Tuple[str, ...] = LIVENESS_PATHS
    rng_scope_paths: Tuple[str, ...] = RNG_SCOPE_PATHS
    async_paths: Tuple[str, ...] = ASYNC_PATHS
    #: Parallel parse/lint workers; 1 = serial, 0 = one per CPU.
    jobs: int = 1
    #: Incremental-cache path; None disables caching.
    cache: Optional[str] = None
    #: Default baseline path applied when the CLI gets no --baseline.
    baseline: Optional[str] = None

    def fingerprint_payload(self) -> str:
        """Stable text of every behavior-affecting field, for cache keys.

        ``jobs`` and ``cache`` are excluded on purpose: they change how
        the lint runs, never what it finds.
        """
        skip = ("jobs", "cache", "baseline")
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = tuple(sorted(value.items()))
            parts.append(f"{f.name}={value!r}")
        return ";".join(parts)

    def severity_for(self, code: str) -> str:
        """Effective severity of a rule after CLI overrides."""
        return self.severities.get(code, DEFAULT_SEVERITIES.get(code, "error"))

    def rule_enabled(self, code: str) -> bool:
        """Whether --select/--ignore leave this rule active."""
        if self.select and code not in self.select:
            return False
        return code not in self.ignore

    @staticmethod
    def parse_severity_overrides(specs: Iterable[str]) -> Dict[str, str]:
        """Parse ``DCLnnn=warning`` CLI specs into a severity map."""
        out: Dict[str, str] = {}
        for spec in specs:
            code, sep, level = spec.partition("=")
            code = code.strip().upper()
            level = level.strip().lower()
            if not sep or level not in _VALID_SEVERITIES:
                raise ValueError(
                    f"bad severity spec {spec!r}; expected DCLnnn="
                    f"{'|'.join(_VALID_SEVERITIES)}"
                )
            out[code] = level
        return out


def path_matches(relpath: str, patterns: Iterable[str]) -> bool:
    """True when the POSIX relpath falls under any substring pattern."""
    posix = relpath.replace("\\", "/")
    return any(pat in posix for pat in patterns)


def find_pyproject(paths: Sequence[str]) -> Optional[Path]:
    """The nearest pyproject.toml at or above the first lint path.

    Discovery anchors on the *linted tree*, not the process cwd, so the
    same invocation behaves identically from any directory and temp
    trees in tests never inherit the repo's configuration.
    """
    if not paths:
        return None
    start = Path(paths[0]).resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_pyproject_settings(pyproject: Path) -> Dict[str, object]:
    """The raw ``[tool.statlint]`` table of a pyproject.toml (or {})."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - python < 3.11
        return {}
    try:
        doc = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return {}
    tool = doc.get("tool")
    if not isinstance(tool, dict):
        return {}
    table = tool.get("statlint")
    return dict(table) if isinstance(table, dict) else {}


def config_from_settings(settings: Mapping[str, object]) -> Dict[str, object]:
    """Validated LintConfig keyword overrides from a settings table.

    Recognized keys: ``select``, ``ignore`` (lists of rule codes),
    ``severity`` (table of code -> level), ``jobs`` (int), ``cache``
    and ``baseline`` (paths).  Unknown keys are ignored so a newer
    config file degrades gracefully on an older linter.
    """
    out: Dict[str, object] = {}
    for key in ("select", "ignore"):
        raw = settings.get(key)
        if isinstance(raw, (list, tuple)):
            out[key] = tuple(str(c).strip().upper() for c in raw if str(c).strip())
        elif isinstance(raw, str):
            out[key] = tuple(
                c.strip().upper() for c in raw.split(",") if c.strip()
            )
    severity = settings.get("severity")
    if isinstance(severity, dict):
        parsed: Dict[str, str] = {}
        for code, level in severity.items():
            level_s = str(level).strip().lower()
            if level_s not in _VALID_SEVERITIES:
                raise ValueError(
                    f"[tool.statlint] severity.{code}: {level!r} is not one "
                    f"of {'/'.join(_VALID_SEVERITIES)}"
                )
            parsed[str(code).strip().upper()] = level_s
        out["severities"] = parsed
    jobs = settings.get("jobs")
    if isinstance(jobs, int) and not isinstance(jobs, bool):
        if jobs < 0:
            raise ValueError("[tool.statlint] jobs must be >= 0")
        out["jobs"] = jobs
    for key in ("cache", "baseline"):
        raw = settings.get(key)
        if isinstance(raw, str) and raw.strip():
            out[key] = raw.strip()
    return out
