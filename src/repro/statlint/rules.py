"""The per-module rule set (DCL001-DCL011, DCL017).

Each rule is an AST check over one :class:`~repro.statlint.engine.ModuleContext`
yielding ``(line, col, message)`` triples.  Rules carry the paper
constraint they protect (``paper_ref``) so reports and SARIF output can
explain *why* a finding matters, not just where it is.  The
interprocedural family (DCL012-DCL015) lives in
:mod:`repro.statlint.project_rules` and runs over a whole-project
context instead; :func:`all_rules` exposes both registries together.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.statlint.config import (
    ARRAY_CONSTRUCTORS,
    BLOCKING_METHODS,
    BLOCKING_MODULE_CALLS,
    NARROWING_DTYPES,
    NON_ELEMENTWISE_OUT_OPS,
    SEEDED_RNG_OK,
    TUNED_LITERAL_KWARGS,
    LintConfig,
    path_matches,
)
from repro.statlint.engine import ModuleContext

RawFinding = Tuple[int, int, str]


class Rule:
    """Base class: path scoping plus the per-module check."""

    code: str = "DCL000"
    name: str = "base"
    summary: str = ""
    paper_ref: str = ""
    #: name of the LintConfig path-scope attribute, or None for all files
    scope_attr: Optional[str] = None

    def applies_to(self, relpath: str, config: LintConfig) -> bool:
        """Whether this rule's path scope covers ``relpath``."""
        if self.scope_attr is None:
            return True
        return path_matches(relpath, getattr(config, self.scope_attr))

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:  # pragma: no cover
        """Yield ``(line, col, message)`` violations found in ``ctx``."""
        raise NotImplementedError


def _dtype_name(node: ast.expr, ctx: ModuleContext) -> Optional[str]:
    """Textual dtype a cast targets: np.float32 / "float32" / float32."""
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in ctx.numpy_aliases:
            return node.attr
        return None
    if isinstance(node, ast.Name):
        resolved = ctx.from_numpy_names.get(node.id)
        return resolved or node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip()
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class HotLoopAllocation(Rule):
    """DCL001: array construction inside a hot-path loop.

    The paper's Algorithm 2 replaces the O(M^D) per-pass work array with
    in-place pair updates; Algorithm 6 keeps buffers persistent across
    the N_QD sub-steps.  A ``np.zeros``/``astype``/``copy`` inside a
    ``for``/``while`` of an LFD/multigrid/CG kernel re-pays allocation
    and page-fault cost every iteration -- use a preallocated workspace
    or the ``out=`` form.
    """

    code = "DCL001"
    name = "hot-loop-allocation"
    summary = "array constructor / astype / copy inside a hot-path loop"
    paper_ref = "Alg. 2 (in-place pair update), Alg. 6 (persistent buffers)"
    scope_attr = "hot_loop_paths"

    _METHODS = ("astype", "copy")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.loop_depth(node) == 0:
                continue
            np_name = ctx.numpy_call_name(node.func)
            if np_name in ARRAY_CONSTRUCTORS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"np.{np_name}() allocates inside a hot loop; hoist it or "
                    f"reuse a preallocated workspace (paper {self.paper_ref})",
                )
                continue
            if (
                np_name is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._METHODS
                and not _is_copy_false(node)
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f".{node.func.attr}() copies inside a hot loop; hoist the "
                    f"conversion out of the loop or reuse a workspace buffer "
                    f"(paper {self.paper_ref})",
                )


def _is_copy_false(call: ast.Call) -> bool:
    """astype(..., copy=False) may be allocation-free; don't flag it."""
    for kw in call.keywords:
        if kw.arg == "copy" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


class DtypePromotionHazard(Rule):
    """DCL002: explicit narrowing cast in a kernel module.

    All propagation state is complex128/float64 by contract; a stray
    ``astype(np.complex64)`` or ``dtype=np.float32`` silently halves
    precision and breaks the <1e-12/step unitarity budget the
    property-based suite enforces.
    """

    code = "DCL002"
    name = "dtype-narrowing"
    summary = "explicit narrowing dtype cast (complex->real or 64->32)"
    paper_ref = "fixed-dtype kernel contract (Table I reproducibility)"
    scope_attr = "kernel_dtype_paths"

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            # .astype(narrow) / np.asarray(..., dtype=narrow) / np.zeros(.., narrow)
            targets: List[ast.expr] = []
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                if node.args:
                    targets.append(node.args[0])
            np_name = ctx.numpy_call_name(node.func)
            if np_name in ARRAY_CONSTRUCTORS or np_name == "astype":
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        targets.append(kw.value)
            if np_name in NARROWING_DTYPES:
                # direct scalar constructor: np.float32(x)
                yield (
                    node.lineno,
                    node.col_offset,
                    f"np.{np_name}() constructs a narrowed scalar/array in a "
                    f"kernel module; keep complex128/float64 "
                    f"({self.paper_ref})",
                )
                continue
            for target in targets:
                dname = _dtype_name(target, ctx)
                if dname in NARROWING_DTYPES:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"cast to {dname} narrows the kernel dtype contract "
                        f"(complex128/float64); if intentional, keep it at "
                        f"construction time and suppress ({self.paper_ref})",
                    )


class GlobalRNG(Rule):
    """DCL003: legacy global-state ``np.random.*`` call.

    PR-1's deterministic replay (bit-identical recovery after a fault)
    requires every random draw to flow through a seeded
    ``np.random.default_rng`` Generator that is part of checkpointed
    state.  Global RNG calls are invisible to the replay machinery.
    """

    code = "DCL003"
    name = "global-rng"
    summary = "np.random.* global-state call outside default_rng"
    paper_ref = "PR-1 deterministic replay / seeded fault injection"

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            np_name = ctx.numpy_call_name(node.func)
            if np_name is None or not np_name.startswith("random."):
                continue
            fn = np_name.split(".", 1)[1]
            if fn in SEEDED_RNG_OK:
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"np.random.{fn}() uses global RNG state; route randomness "
                f"through a seeded np.random.default_rng Generator "
                f"({self.paper_ref})",
            )


class BroadExcept(Rule):
    """DCL004: bare/broad ``except`` that can swallow health guards.

    The PR-1 numerical health guards signal NaN/overflow/divergence by
    raising typed exceptions; an ``except:`` or ``except Exception:``
    between a kernel and the supervisor converts a detected corruption
    into silent wrong numbers.  Re-raising handlers are exempt.
    """

    code = "DCL004"
    name = "broad-except"
    summary = "bare or broad except without re-raise"
    paper_ref = "PR-1 numerical health guards (supervisor fault path)"

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or self._is_broad(node.type)
            if not broad:
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue
            label = "bare except" if node.type is None else "except Exception"
            yield (
                node.lineno,
                node.col_offset,
                f"{label} swallows typed guard exceptions; catch the specific "
                f"error or re-raise ({self.paper_ref})",
            )

    def _is_broad(self, t: ast.expr) -> bool:
        names: Iterable[ast.expr]
        names = t.elts if isinstance(t, ast.Tuple) else [t]
        for n in names:
            if isinstance(n, ast.Name) and n.id in self._BROAD:
                return True
        return False


class MutableDefaultArg(Rule):
    """DCL005: mutable default argument.

    A shared-across-calls list/dict/set/array default is hidden global
    state -- the same class of replay hazard as global RNG.
    """

    code = "DCL005"
    name = "mutable-default"
    summary = "mutable default argument (list/dict/set/np.array)"
    paper_ref = "PR-1 determinism (no hidden cross-call state)"

    _CTORS = ("list", "dict", "set", "bytearray")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            for d in defaults:
                bad = None
                if isinstance(d, (ast.List, ast.Dict, ast.Set)):
                    bad = type(d).__name__.lower() + " literal"
                elif isinstance(d, ast.Call):
                    if isinstance(d.func, ast.Name) and d.func.id in self._CTORS:
                        bad = f"{d.func.id}() call"
                    else:
                        np_name = ctx.numpy_call_name(d.func)
                        if np_name in ARRAY_CONSTRUCTORS:
                            bad = f"np.{np_name}() call"
                if bad is not None:
                    yield (
                        d.lineno,
                        d.col_offset,
                        f"mutable default ({bad}) in {node.name}() is shared "
                        f"across calls; default to None and construct inside "
                        f"({self.paper_ref})",
                    )


class UntracedPublicKernel(Rule):
    """DCL006: public kernel in a phase module without a tracer span.

    The paper-taxonomy phase breakdown (Tables I-II, Fig. 5) is only
    trustworthy if every public kernel entry point in the phase modules
    opens a ``trace_span``; an untraced kernel shows up as missing time.
    Inner per-variant kernels timed by their public wrapper should carry
    an inline suppression naming the wrapper.
    """

    code = "DCL006"
    name = "untraced-kernel"
    summary = "public phase-module kernel without a trace_span"
    paper_ref = "paper kernel taxonomy (Tables I-II, Fig. 5 completeness)"
    scope_attr = "traced_phase_paths"

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                bodies = [
                    n
                    for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not n.name.startswith("_")
                ]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                bodies = [node]
            else:
                continue
            for fn in bodies:
                if self._opens_span(fn):
                    continue
                if self._is_trivial(fn, ctx):
                    continue
                yield (
                    fn.lineno,
                    fn.col_offset,
                    f"public kernel {fn.name}() in a phase module never opens "
                    f"a trace_span; wrap the hot region or suppress naming "
                    f"the traced wrapper ({self.paper_ref})",
                )

    @staticmethod
    def _opens_span(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id == "trace_span":
                    return True
                if isinstance(f, ast.Attribute) and f.attr in ("trace_span", "span"):
                    return True
        return False

    @staticmethod
    def _is_trivial(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, ctx: ModuleContext
    ) -> bool:
        """Helpers that can't be hot are exempt: no loops, and either no
        numpy calls at all (cost models, validators) or a tiny
        expression body (phase-field one-liners cached by the wrapper)."""
        has_loop = any(
            isinstance(n, (ast.For, ast.While, ast.AsyncFor)) for n in ast.walk(fn)
        )
        if has_loop:
            return False
        uses_numpy = any(
            isinstance(n, ast.Call) and ctx.numpy_call_name(n.func) is not None
            for n in ast.walk(fn)
        )
        body = [
            n
            for n in fn.body
            if not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))
            and not isinstance(n, ast.Pass)
        ]
        return not uses_numpy or len(body) <= 2


class OutAliasing(Rule):
    """DCL007: ``out=`` aliases an input of a non-elementwise op.

    ``np.matmul(a, b, out=a)`` reads ``a`` after it has started writing
    it; unlike elementwise ufuncs, reductions/contractions give silently
    wrong results.  Use a distinct preallocated output buffer.
    """

    code = "DCL007"
    name = "out-aliases-input"
    summary = "out= aliases an input of a non-elementwise op"
    paper_ref = "Alg. 2 in-place update correctness (read-after-write)"

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            np_name = ctx.numpy_call_name(node.func)
            if np_name not in NON_ELEMENTWISE_OUT_OPS:
                continue
            out_kw = next((kw for kw in node.keywords if kw.arg == "out"), None)
            if out_kw is None or not isinstance(out_kw.value, ast.Name):
                continue
            out_name = out_kw.value.id
            input_names: Set[str] = set()
            for arg in node.args:
                input_names |= _names_in(arg)
            if out_name in input_names:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"out={out_name!r} aliases an input of np.{np_name}(), "
                    f"which reads inputs after writing out; use a separate "
                    f"workspace buffer ({self.paper_ref})",
                )


class MissingDvolWeight(Rule):
    """DCL008: grid inner product without the volume element.

    On the real-space mesh, <a|b> = sum conj(a)*b * dvol; a ``np.vdot``
    or conjugate-contraction ``einsum`` whose statement never touches
    ``dvol`` is (almost always) an unnormalized reduction -- energies and
    overlaps come out scaled by 1/dvol.  Statements that mention dvol
    anywhere (including via ``grid.dvol``) pass.
    """

    code = "DCL008"
    name = "missing-dvol"
    summary = "vdot/conjugate einsum not weighted by the volume element"
    paper_ref = "Eq. 5-9 mesh inner products (dvol weighting)"
    scope_attr = "dvol_paths"

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            np_name = ctx.numpy_call_name(node.func)
            is_vdot = np_name == "vdot"
            is_conj_einsum = np_name == "einsum" and self._has_conj_operand(node)
            if not (is_vdot or is_conj_einsum):
                continue
            stmt = ctx.statement_of(node)
            if self._mentions_dvol(stmt):
                continue
            op = "np.vdot" if is_vdot else "conjugate np.einsum"
            yield (
                node.lineno,
                node.col_offset,
                f"{op} reduction is not weighted by dvol in this statement; "
                f"mesh inner products need the volume element "
                f"({self.paper_ref})",
            )

    @staticmethod
    def _has_conj_operand(call: ast.Call) -> bool:
        for arg in call.args:
            for node in ast.walk(arg):
                if isinstance(node, ast.Call):
                    f = node.func
                    if isinstance(f, ast.Attribute) and f.attr in ("conj", "conjugate"):
                        return True
                    if isinstance(f, ast.Name) and f.id in ("conj", "conjugate"):
                        return True
        return False

    @staticmethod
    def _mentions_dvol(stmt: ast.AST) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and "dvol" in node.id:
                return True
            if isinstance(node, ast.Attribute) and "dvol" in node.attr:
                return True
        return False


class SerialRankLoop(Rule):
    """DCL009: per-domain solver constructed inside a loop.

    The rank/domain hot paths dispatch per-domain work through the
    DomainExecutor abstraction (``executor.map`` over a module-level
    task), which is what makes the serial/thread/process backends
    interchangeable and gives the crash-healing, tracing and worker-RNG
    discipline for free.  Building a ``DomainSolver`` or ``QDPropagator``
    directly inside a ``for``/``while`` loop in these modules reverts to
    the old inline iteration and silently bypasses all of that.
    """

    code = "DCL009"
    name = "executor-bypass"
    summary = "rank/domain loop builds DomainSolver/QDPropagator inline"
    paper_ref = "Figs. 2-3 per-rank parallel structure"
    scope_attr = "executor_paths"

    _SOLVERS = ("DomainSolver", "QDPropagator")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                called = func.id
            elif isinstance(func, ast.Attribute):
                called = func.attr
            else:
                continue
            if called not in self._SOLVERS:
                continue
            if ctx.loop_depth(node) < 1:
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"{called}() constructed inside a loop bypasses the "
                f"DomainExecutor; move the per-domain body into a "
                f"module-level task and dispatch it with executor.map "
                f"({self.paper_ref})",
            )


class UntunedLiteral(Rule):
    """DCL010: tuned parameter pinned to an int literal at a call site.

    The tuning subsystem (``repro.tuning``) owns block/chunk-shape
    selection: kernels resolve ``block_size`` / ``orb_block`` /
    ``chunk_size`` from the active :class:`TuningProfile` when the
    caller leaves them unset (``None``).  A call site on a
    tuning-managed path that pins one of these keywords to an integer
    literal silently bypasses the persisted, machine-fingerprinted
    cache -- the tuned winner never takes effect on that path.  Pass
    ``None`` (profile resolution) or a value read from the profile.
    The tuning subsystem itself and the benchmark ablation sweeps
    enumerate candidate values by design and are out of scope.
    """

    code = "DCL010"
    name = "untuned-literal"
    summary = "tuned block/chunk parameter pinned to an int literal"
    paper_ref = "Tables I-II block-shape selection (repro.tuning ownership)"
    scope_attr = "tuning_literal_paths"

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg not in TUNED_LITERAL_KWARGS:
                    continue
                v = kw.value
                if (
                    isinstance(v, ast.Constant)
                    and isinstance(v.value, int)
                    and not isinstance(v.value, bool)
                ):
                    yield (
                        v.lineno,
                        v.col_offset,
                        f"{kw.arg}={v.value} hard-codes a tuning-managed "
                        f"parameter at the call site, bypassing the active "
                        f"TuningProfile; pass None (profile resolution) or "
                        f"read it from the profile ({self.paper_ref})",
                    )


class UnboundedBlocking(Rule):
    """DCL011: blocking primitive call with no timeout on a liveness path.

    The hang-aware execution layer (heartbeat watchdog, deadline
    scopes) only works if the parent never parks itself in an
    *unbounded* kernel wait: a bare ``future.result()`` /
    ``queue.get()`` / ``thread.join()`` / ``event.wait()`` /
    ``lock.acquire()`` behind a wedged worker blocks forever and no
    watchdog can preempt it.  On the executor/supervisor/liveness
    paths every such call must carry a bound (``timeout=`` or a
    positional argument) and poll, re-checking the armed deadline
    scope between rounds.  A ``while True:`` loop with no ``break`` or
    ``return`` in its body is flagged for the same reason.
    """

    code = "DCL011"
    name = "unbounded-blocking"
    summary = "blocking call without a timeout (or while-True with no exit)"
    paper_ref = "hang-aware execution: slow/stuck ranks dominate at scale"
    scope_attr = "liveness_paths"

    #: Method names that park the calling thread until an external
    #: event.  Attribute calls only -- and only with *no* positional
    #: arguments, which keeps ``d.get(key)`` / ``", ".join(xs)`` out.
    _BLOCKING = ("acquire", "get", "join", "recv", "result", "wait")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._BLOCKING
                    and not node.args
                    and not any(kw.arg == "timeout" for kw in node.keywords)
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f".{func.attr}() with no timeout blocks forever "
                        f"behind a wedged worker; pass timeout= and poll, "
                        f"re-checking check_deadline() between rounds "
                        f"({self.paper_ref})",
                    )
            elif isinstance(node, ast.While):
                test = node.test
                if not (isinstance(test, ast.Constant) and test.value is True):
                    continue
                body_nodes = [
                    n for stmt in node.body for n in ast.walk(stmt)
                ]
                if any(isinstance(n, (ast.Break, ast.Return))
                       for n in body_nodes):
                    continue
                yield (
                    node.lineno,
                    node.col_offset,
                    f"while True: with no break/return never terminates "
                    f"on its own; bound the loop on a deadline, stop "
                    f"event or retry budget ({self.paper_ref})",
                )


class EventLoopBlocker(Rule):
    """DCL017: blocking call lexically inside an ``async def``.

    The serving daemon multiplexes every client over one asyncio event
    loop; a single blocking call inside an ``async def`` -- a
    ``time.sleep``, an un-awaited socket op, eager file I/O, a
    subprocess wait -- freezes *all* connections and the batching
    scheduler for its full duration, silently destroying the tail
    latencies the serve benchmarks gate.  Compute and file I/O must
    hop to a worker thread via ``run_in_executor`` (a nested plain
    ``def`` is the sanctioned carrier and is exempt: only the nearest
    enclosing function matters).  Awaited calls are exempt too, so
    asyncio's own ``sleep``/stream/socket coroutines never trip.
    """

    code = "DCL017"
    name = "event-loop-blocker"
    summary = "blocking call lexically inside an async def on a serve path"
    paper_ref = "serving-layer latency contract (BENCH_serve p99 gates)"
    scope_attr = "async_paths"

    _BUILTINS = ("open", "input")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = ctx.enclosing_function(node)
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            if isinstance(ctx.parent(node), ast.Await):
                continue
            blocked = self._blocking_name(node.func)
            if blocked is None:
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"{blocked} blocks the event loop inside async "
                f"{fn.name}(); every connected client stalls for its "
                f"full duration -- run it on the worker thread via "
                f"run_in_executor (or await the asyncio equivalent) "
                f"({self.paper_ref})",
            )

    def _blocking_name(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name) and func.id in self._BUILTINS:
            return f"{func.id}()"
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if isinstance(value, ast.Name):
            if (value.id, func.attr) in BLOCKING_MODULE_CALLS:
                return f"{value.id}.{func.attr}()"
        if func.attr in BLOCKING_METHODS:
            return f".{func.attr}()"
        return None


ALL_RULES: Tuple[Rule, ...] = (
    HotLoopAllocation(),
    DtypePromotionHazard(),
    GlobalRNG(),
    BroadExcept(),
    MutableDefaultArg(),
    UntracedPublicKernel(),
    OutAliasing(),
    MissingDvolWeight(),
    SerialRankLoop(),
    UntunedLiteral(),
    UnboundedBlocking(),
    EventLoopBlocker(),
)


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule: per-module (DCL001-011, 016) + project (DCL012-015).

    Imported lazily because the project rules build on top of this
    module's :class:`Rule` base.
    """
    from repro.statlint.project_rules import PROJECT_RULES

    return ALL_RULES + PROJECT_RULES


def rule_codes() -> Tuple[str, ...]:
    """All registered rule codes, in DCL number order."""
    return tuple(sorted(r.code for r in all_rules()))


def get_rule(code: str) -> Rule:
    """Look up one rule by its DCLnnn code (KeyError when unknown)."""
    for r in all_rules():
        if r.code == code.upper():
            return r
    raise KeyError(f"unknown rule {code!r}; known: {', '.join(rule_codes())}")
