"""The determinism-contract rules (REP001..REP006) and the rule base.

Each rule is a small visitor the shared walk in
:mod:`repro.lint.engine` dispatches matching nodes to.  The thread-
safety family (REP101..REP106) lives in
:mod:`repro.lint.concurrency` and is aggregated into :data:`RULES`
here, so both families run in the one traversal.  The determinism
rules encode the invariants every digest in this repository rests on:

REP001  ambient randomness — all stochastic draws must come from a
        named :class:`~repro.sim.rng.RngRegistry` stream (or a
        Generator parameter); ``random.*``, the legacy global
        ``np.random.<fn>`` state, and *unseeded* bit-generator
        factories all smuggle process-global or OS entropy in.
REP002  wall-clock/entropy reads inside evaluation code — a result
        that depends on ``time.time()``/``uuid4()``/``os.urandom``
        can never be content-addressed.
REP003  unordered ``set``/``dict`` iteration on the stream or
        serialization path — draw order and canonical JSON both
        depend on iteration order, so it must be ``sorted(...)`` (or
        explicitly accepted into the baseline when insertion order is
        the documented contract).
REP004  NumPy SIMD transcendental hazard — float64 array forms of
        ``np.sin``/``np.arcsin``/``np.log10``/... may be dispatched
        to vendor SIMD kernels that differ from libm by one ulp;
        inside bit-identity-critical modules they must route through
        the per-element libm helpers (``repro.geo.coords``).
REP005  frozen-spec mutation — ``object.__setattr__`` outside
        ``__post_init__`` breaks the "specs are immutable values"
        contract content hashing relies on.
REP006  heavy/unpicklable Executor payloads — only plain-data records
        may cross ``Executor.map`` or a pool's ``submit``; lambdas, nested
        functions, and live model objects must stay in-process.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from .config import LintConfig, path_selected
from .engine import ModuleContext

__all__ = ["CONCURRENCY_RULES", "DETERMINISM_RULES", "RULES", "Rule",
           "active_rules", "rule_by_code", "rule_catalog"]


class Rule:
    """Base class: a code, a one-line contract, and a node visitor.

    The class docstring of each concrete rule is user-facing: it is
    what ``python -m repro lint --explain REPxxx`` prints, so it
    states the contract *and* the fix guidance.
    """

    code: ClassVar[str] = "REP000"
    title: ClassVar[str] = "internal"
    #: which family the rule belongs to (CI gates them independently)
    category: ClassVar[str] = "determinism"
    #: node types the shared walk dispatches to this rule
    interests: ClassVar[tuple[type, ...]] = ()

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    @classmethod
    def applies_to(cls, config: LintConfig, rel_path: str) -> bool:
        """Whether this rule is active for the given module."""
        return config.rule_enabled(cls.code)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        raise NotImplementedError  # pragma: no cover


def _is_sorted_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted")


#: numpy.random attributes that are *factories taking a seed*: calling
#: them without arguments pulls OS entropy instead.
_SEEDABLE_FACTORIES = frozenset({
    "default_rng", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    "SeedSequence", "RandomState",
})

#: numpy.random attributes that are legitimate *types/modules* to name
#: (constructing a Generator around a seeded bit generator is the
#: blessed pattern), as opposed to legacy global-state draw functions.
_RANDOM_NAMESPACE_OK = frozenset({"Generator", "BitGenerator"})


class Rep001AmbientRandomness(Rule):
    """All stochastic draws must come from named, seeded streams.

    ``random.*``, legacy ``np.random.<fn>`` global-state draws, and
    unseeded bit-generator factories smuggle process-global or OS
    entropy into results.  Fix: draw from a named
    :class:`repro.sim.rng.RngRegistry` stream or accept a Generator
    parameter; seed factories explicitly (``stable_seed``).
    """

    code = "REP001"
    title = "ambient randomness outside RngRegistry streams"
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved == "random" or resolved.startswith("random."):
            ctx.report(self.code, node,
                       f"stdlib '{resolved}' draws from process-global "
                       f"state; use a named RngRegistry stream or a "
                       f"Generator parameter")
            return
        if not resolved.startswith("numpy.random."):
            return
        tail = resolved[len("numpy.random."):]
        if "." in tail or tail in _RANDOM_NAMESPACE_OK:
            return
        if tail in _SEEDABLE_FACTORIES:
            if not node.args and not node.keywords:
                ctx.report(self.code, node,
                           f"unseeded 'np.random.{tail}()' pulls OS "
                           f"entropy; pass an explicit seed (e.g. via "
                           f"sim.rng.stable_seed)")
            return
        ctx.report(self.code, node,
                   f"module-level 'np.random.{tail}' uses the legacy "
                   f"global RandomState; draw from a named RngRegistry "
                   f"stream instead")


#: calls whose result observes the host rather than the inputs.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4",
    "os.urandom", "os.getrandom",
})


class Rep002WallClock(Rule):
    """Evaluation output must not observe the host.

    ``time.time()``, ``uuid4()``, ``os.urandom`` and friends make a
    result impossible to content-address.  Fix: thread timestamps in
    as explicit inputs, or move the read into an exempt module
    (CLI/fleet metadata, configured via rep002-exempt).
    """

    code = "REP002"
    title = "wall-clock/entropy reads inside evaluation code"
    interests = (ast.Call,)

    @classmethod
    def applies_to(cls, config: LintConfig, rel_path: str) -> bool:
        if not config.rule_enabled(cls.code):
            return False
        return not path_selected(rel_path, config.rep002_exempt)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved in _WALL_CLOCK_CALLS or \
                resolved.startswith("secrets."):
            ctx.report(self.code, node,
                       f"'{resolved}' reads wall-clock/OS entropy; "
                       f"evaluation output must be a pure function of "
                       f"(spec, seed, density)")


class Rep003UnorderedIteration(Rule):
    """Iteration feeding draws or serialization must be ordered.

    Draw order and canonical JSON both depend on iteration order;
    ``set`` iteration and raw ``.items()``/``.keys()``/``.values()``
    on the stream path must go through ``sorted(...)`` — or be
    accepted into the baseline when insertion order is the documented
    contract.
    """

    code = "REP003"
    title = "unordered set/dict iteration on the stream path"
    interests = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp)

    @classmethod
    def applies_to(cls, config: LintConfig, rel_path: str) -> bool:
        if not config.rule_enabled(cls.code):
            return False
        return path_selected(rel_path, config.rep003_paths)

    def _check_iterable(self, iterable: ast.expr,
                        ctx: ModuleContext) -> None:
        if _is_sorted_call(iterable):
            return
        if isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Attribute) and \
                iterable.func.attr in ("items", "keys", "values"):
            ctx.report(
                self.code, iterable,
                f"iterating '.{iterable.func.attr}()' on the "
                f"stream/serialization path relies on dict order; wrap "
                f"in sorted(...) or accept into the baseline if "
                f"insertion order is the contract")
            return
        is_set_literal = isinstance(iterable, (ast.Set, ast.SetComp))
        is_set_call = (isinstance(iterable, ast.Call)
                       and isinstance(iterable.func, ast.Name)
                       and iterable.func.id in ("set", "frozenset"))
        if is_set_literal or is_set_call:
            ctx.report(
                self.code, iterable,
                "iterating a set has no defined order; wrap in "
                "sorted(...) before it can feed draws or serialization")

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.For):
            self._check_iterable(node.iter, ctx)
        else:
            assert isinstance(node, (ast.ListComp, ast.SetComp,
                                     ast.DictComp, ast.GeneratorExp))
            for generator in node.generators:
                self._check_iterable(generator.iter, ctx)


class Rep004SimdTranscendental(Rule):
    """Bit-identity modules must route transcendentals through libm.

    float64 array forms of ``np.sin``/``np.log10``/... may dispatch to
    vendor SIMD kernels one ulp off libm — enough to flip a serving
    argmax.  Fix: use the per-element helpers in
    :mod:`repro.geo.coords` inside the configured rep004-paths.
    """

    code = "REP004"
    title = "NumPy SIMD transcendental in a bit-identity module"
    interests = (ast.Call, ast.BinOp)

    @classmethod
    def applies_to(cls, config: LintConfig, rel_path: str) -> bool:
        if not config.rule_enabled(cls.code):
            return False
        return path_selected(rel_path, config.rep004_paths)

    def _is_numpy_transcendental(self, node: ast.expr,
                                 ctx: ModuleContext) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        resolved = ctx.resolve(node.func)
        if resolved is None or not resolved.startswith("numpy."):
            return None
        tail = resolved[len("numpy."):]
        if tail in self.config.rep004_functions:
            return tail
        return None

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.Call):
            name = self._is_numpy_transcendental(node, ctx)
            if name is not None:
                ctx.report(
                    self.code, node,
                    f"array-form 'np.{name}' may take a SIMD path one "
                    f"ulp off libm and flip a serving argmax; route "
                    f"through the per-element libm helpers "
                    f"(repro.geo.coords) in bit-identity modules")
            return
        assert isinstance(node, ast.BinOp)
        if not isinstance(node.op, ast.Pow):
            return
        if not (isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)):
            return
        if self._is_numpy_transcendental(node.left, ctx) is not None:
            ctx.report(
                self.code, node,
                "'np.<fn>(...) ** n' squares an array through NumPy's "
                "power loop, which need not match CPython float pow "
                "bit-for-bit; use the libm helpers")


class Rep005FrozenMutation(Rule):
    """Frozen specs are immutable values once constructed.

    ``object.__setattr__`` outside ``__post_init__`` mutates hashed
    content after the fact.  Fix: rebuild via
    ``dataclasses.replace`` / ``with_overrides``.
    """

    code = "REP005"
    title = "frozen-spec mutation outside __post_init__"
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"):
            return
        where = ctx.current_function
        if where in self.config.rep005_allowed_methods:
            return
        place = f"in {where}()" if where else "at module level"
        ctx.report(
            self.code, node,
            f"object.__setattr__ {place} mutates a frozen spec after "
            f"construction; frozen specs are hashed content — rebuild "
            f"via dataclasses.replace / with_overrides instead")


class Rep006ExecutorPayload(Rule):
    """Only plain data may cross the Executor boundary.

    Lambdas, nested functions, and live model objects do not pickle
    into workers (or cost far too much when they do).  Fix: submit
    top-level functions taking plain data; return (or yield) records,
    not models.
    """

    code = "REP006"
    title = "heavy/unpicklable payload across the Executor boundary"
    interests = (ast.Call, ast.Return, ast.Yield)

    def _check_submission(self, node: ast.Call,
                          ctx: ModuleContext) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("submit", "map")):
            return
        if not node.args:
            return
        payload = node.args[0]
        if isinstance(payload, ast.Lambda):
            ctx.report(
                self.code, node,
                f"lambda passed to .{func.attr}() cannot pickle into a "
                f"worker; submit a top-level function taking plain "
                f"data")
        elif isinstance(payload, ast.Name) and \
                ctx.in_locally_defined(payload.id):
            ctx.report(
                self.code, node,
                f"nested function '{payload.id}' passed to "
                f".{func.attr}() cannot pickle into a worker; hoist it "
                f"to module level")

    def _check_output(self, node: ast.Return | ast.Yield,
                      ctx: ModuleContext) -> None:
        if ctx.current_function not in \
                self.config.rep006_payload_functions:
            return
        if not path_selected(ctx.rel_path, self.config.rep006_paths):
            return
        value = node.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name in self.config.rep006_heavy_types:
            verb = "yields" if isinstance(node, ast.Yield) else "returns"
            ctx.report(
                self.code, node,
                f"payload function '{ctx.current_function}' {verb} "
                f"'{name}', which is too heavy/unpicklable to cross "
                f"the executor boundary; return plain data (e.g. "
                f"EvaluationSummary / RunRecord)")

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.Call):
            self._check_submission(node, ctx)
        else:
            assert isinstance(node, (ast.Return, ast.Yield))
            self._check_output(node, ctx)


#: the determinism family, in code order.
DETERMINISM_RULES: tuple[type[Rule], ...] = (
    Rep001AmbientRandomness,
    Rep002WallClock,
    Rep003UnorderedIteration,
    Rep004SimdTranscendental,
    Rep005FrozenMutation,
    Rep006ExecutorPayload,
)

# The concurrency family subclasses Rule, so its module imports this
# one; aggregating it here (after Rule exists) keeps a single RULES
# registry without a cycle.
from .concurrency import CONCURRENCY_RULES  # noqa: E402

#: every shipped rule, in code order.
RULES: tuple[type[Rule], ...] = DETERMINISM_RULES + CONCURRENCY_RULES


def active_rules(config: LintConfig, rel_path: str) -> list[Rule]:
    """Instantiate the rules that apply to one module."""
    return [cls(config) for cls in RULES
            if cls.applies_to(config, rel_path)]


def rule_catalog() -> list[tuple[str, str, str]]:
    """``(code, category, title)`` for every shipped rule — the CLI's
    ``--list-rules`` output and the README's source of truth."""
    return [(cls.code, cls.category, cls.title) for cls in RULES]


def rule_by_code(code: str) -> type[Rule] | None:
    """The rule class for ``code`` (``--explain`` lookup)."""
    for cls in RULES:
        if cls.code == code:
            return cls
    return None
