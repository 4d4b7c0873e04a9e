"""The determinism rule family (``TNG001``–``TNG006``).

The repo-wide invariant (stated in ``repro.netsim.links`` and enforced
end-to-end by the CI chaos job) is seed-exact replay: the same scenario,
plan, and seed must produce identical bytes.  Each rule here bans one
construct that historically breaks that class of guarantee:

========  ==============================================================
TNG001    wall-clock reads (``time.time``, ``perf_counter``,
          ``datetime.now`` ...) — simulation code must use the simulated
          clock, never the host's.  Any reference counts, not only a
          call: ``clock=time.perf_counter`` is a read deferred.
TNG002    unseeded RNG construction (``np.random.default_rng()``,
          ``random.Random()``, ``Pcg64Stream()`` ...) — every generator
          must take an explicit seed so replays can reproduce its stream.
TNG003    calls on the process-global RNG state (``random.random()``,
          ``np.random.uniform()`` ...) — global streams are shared
          across subsystems, so adding a draw *anywhere* perturbs draws
          *everywhere*; use an owned, seeded generator instead.
TNG004    operating-system entropy (``os.urandom``, ``uuid.uuid4``,
          ``secrets.*``, ``random.SystemRandom``) and process-environment
          reads (``os.environ``, ``os.getenv``) — unreplayable by
          construction, or different on the next host.
TNG005    ordered iteration over ``set``/``frozenset`` values — set
          iteration order is a function of element hashes and insertion
          history; feeding it into loops, lists, or tuples makes control
          decisions order-dependent.  Wrap in ``sorted(...)``.
TNG006    mutable default arguments — shared across calls, so one call
          site's history leaks into the next run's behavior.
========  ==============================================================

All rules are purely syntactic (no imports are executed) and fire where
the hazard is written, so a value that then travels through any number
of calls needs no second check.  The trade-off is the usual one for
static analysis — a tracked value laundered through an attribute or a
container escapes TNG005, and dynamic dispatch escapes everything.  The
runtime chaos job remains the backstop.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, Optional

from .engine import FileContext, Rule
from .findings import Finding, Severity
from .flow.extract import collect_aliases, package_of, resolve_dotted

__all__ = ["default_rules", "RULE_SUMMARIES"]

Report = Callable[[Finding], None]

# -- shared helpers: import-aware name resolution --------------------------------


class _AliasVisitor(ast.NodeVisitor):
    """Base visitor for rules that resolve names through the file's imports."""

    def __init__(self, context: FileContext, report: Report) -> None:
        self.context = context
        self.report = report
        self.aliases = collect_aliases(
            [context.tree], package_of(context.path), nested=True
        )


class _CallRule(_AliasVisitor):
    """Base visitor for rules that diagnose specific call targets."""

    def visit_Call(self, node: ast.Call) -> None:
        dotted = resolve_dotted(node.func, self.aliases)
        if dotted is not None:
            self.check_call(node, dotted)
        self.generic_visit(node)

    def check_call(self, node: ast.Call, dotted: str) -> None:
        raise NotImplementedError


class _LoadRule(_AliasVisitor):
    """Base visitor for rules that diagnose any load of specific names —
    a call ``time.time()`` and a reference ``clock=time.perf_counter``
    alike."""

    def _visit_load(self, node: ast.Name | ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            dotted = resolve_dotted(node, self.aliases)
            if dotted is not None:
                self.check_load(node, dotted)
        self.generic_visit(node)

    visit_Name = visit_Attribute = _visit_load

    def check_load(self, node: ast.expr, dotted: str) -> None:
        raise NotImplementedError


# -- TNG001: wall-clock reads ----------------------------------------------------

_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class _WallclockVisitor(_LoadRule):
    def check_load(self, node: ast.expr, dotted: str) -> None:
        if dotted in _WALLCLOCK:
            self.report(
                self.context.finding(
                    node,
                    "TNG001",
                    f"wall-clock read {dotted} in simulation code; "
                    "use the simulated clock (Simulator.now)",
                )
            )


# -- TNG002: unseeded RNG construction -------------------------------------------

#: Constructors that accept a seed as first positional or ``seed=`` kwarg.
_RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.SeedSequence",
        # The runtime's in-tree port of default_rng(seed).uniform.
        "repro.netsim.delaymodels.Pcg64Stream",
    }
)


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _UnseededRngVisitor(_CallRule):
    def check_call(self, node: ast.Call, dotted: str) -> None:
        if dotted not in _RNG_CONSTRUCTORS:
            return
        seed_kwargs = [k for k in node.keywords if k.arg in ("seed", "entropy")]
        seeded = bool(node.args) and not _is_none(node.args[0])
        seeded = seeded or (
            bool(seed_kwargs) and not _is_none(seed_kwargs[0].value)
        )
        if not seeded:
            self.report(
                self.context.finding(
                    node,
                    "TNG002",
                    f"{dotted}() constructed without an explicit seed; "
                    "replays cannot reproduce its stream",
                )
            )


# -- TNG003: process-global RNG state --------------------------------------------

#: ``numpy.random`` attributes that are *not* the module-level generator.
_NUMPY_RANDOM_NON_GLOBAL = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: ``random`` module attributes that are classes/helpers, not global draws.
_RANDOM_NON_GLOBAL = frozenset({"Random", "SystemRandom"})


class _GlobalRngVisitor(_CallRule):
    def check_call(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] not in _RANDOM_NON_GLOBAL
        ):
            self.report(
                self.context.finding(
                    node,
                    "TNG003",
                    f"call to the process-global RNG {dotted}(); "
                    "use an owned, seeded random.Random / numpy Generator",
                )
            )
        elif (
            len(parts) == 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] not in _NUMPY_RANDOM_NON_GLOBAL
        ):
            self.report(
                self.context.finding(
                    node,
                    "TNG003",
                    f"call to numpy's global RNG state {dotted}(); "
                    "use an owned numpy.random.default_rng(seed)",
                )
            )


# -- TNG004: operating-system entropy --------------------------------------------

_OS_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.randbits",
        "secrets.choice",
        "random.SystemRandom",
    }
)


#: The process environment: configuration that differs between hosts.
_ENVIRONMENT = frozenset({"os.environ", "os.environb", "os.getenv", "os.getenvb"})


class _OsEntropyVisitor(_LoadRule):
    def check_load(self, node: ast.expr, dotted: str) -> None:
        if dotted in _OS_ENTROPY:
            message = (
                f"{dotted} draws operating-system entropy, which is "
                "unreplayable by construction"
            )
        elif dotted in _ENVIRONMENT:
            message = (
                f"{dotted} reads the process environment, which differs "
                "between hosts and runs; pass the setting in explicitly"
            )
        else:
            return
        self.report(self.context.finding(node, "TNG004", message))


# -- TNG005: ordered iteration over sets -----------------------------------------

_SET_BUILTINS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_ORDERING_BUILTINS = frozenset({"list", "tuple", "enumerate", "reversed"})
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _SetIterationVisitor(ast.NodeVisitor):
    """Flags ordered consumption of statically set-valued expressions.

    Set-valuedness is decided syntactically: set displays/comprehensions,
    ``set(...)``/``frozenset(...)`` calls, set-operator expressions with a
    set-valued operand, set-method calls on a set-valued receiver — plus
    one level of local dataflow: a name every assignment of which (in the
    enclosing scope chain) is set-valued.
    """

    def __init__(self, context: FileContext, report: Report) -> None:
        self.context = context
        self.report = report
        self._scopes: list[dict[str, bool]] = []
        self._push_scope(context.tree)

    # -- set-valuedness -----------------------------------------------------------

    def _is_set_name(self, name: str) -> bool:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return False

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._is_set_name(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_BUILTINS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set_expr(func.value)
            ):
                return True
        return False

    @staticmethod
    def _walk_scope(scope_node: ast.AST) -> Iterator[ast.AST]:
        """Document-order walk of one scope, not descending into inner
        function/lambda/class scopes."""
        inner = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        pending = list(ast.iter_child_nodes(scope_node))
        while pending:
            node = pending.pop(0)
            yield node
            if not isinstance(node, inner):
                pending = list(ast.iter_child_nodes(node)) + pending

    def _push_scope(self, scope_node: ast.AST) -> None:
        """Scan a scope's *direct* statements into a fresh env: name -> is-set.

        A name counts as set-valued only if every assignment to it in
        this scope is set-valued (a reassignment to anything else, or use
        as a loop target, demotes it).  The env is pushed *before* the
        scan so chained assignments (``a = set(x); b = a | y``) resolve.
        """
        verdict: dict[str, bool] = {}
        self._scopes.append(verdict)

        def note(name: str, is_set: bool) -> None:
            verdict[name] = verdict.get(name, True) and is_set

        for node in self._walk_scope(scope_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        note(target.id, self._is_set_expr(node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    note(node.target.id, self._is_set_expr(node.value))
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    # s |= ... keeps a set a set; anything else demotes.
                    if not isinstance(node.op, _SET_OPS):
                        note(node.target.id, False)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        note(target.id, False)

    # -- scope management ---------------------------------------------------------

    def _visit_scope(self, node: ast.AST) -> None:
        self._push_scope(node)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    # -- the diagnosed sites ------------------------------------------------------

    def _flag(self, node: ast.AST, how: str) -> None:
        self.report(
            self.context.finding(
                node,
                "TNG005",
                f"{how} iterates a set in hash order, which is not stable "
                "across runs; wrap it in sorted(...)",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST, kind: str) -> None:
        for generator in getattr(node, "generators", []):
            if self._is_set_expr(generator.iter):
                self._flag(generator.iter, kind)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # Order-insensitive sinks (sorted, min, max, sum, any, all, set)
        # make a genexp harmless; flagging every genexp would force noqa
        # churn on idiomatic sorted(x for x in s) — so only the ordered
        # materializers below and explicit loops are diagnosed.
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDERING_BUILTINS
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self._flag(node, f"{func.id}(...)")
        self.generic_visit(node)


# -- TNG006: mutable default arguments -------------------------------------------

_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


class _MutableDefaultVisitor(_AliasVisitor):
    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _MUTABLE_CALLS:
                return True
            dotted = resolve_dotted(node.func, self.aliases)
            return dotted in _MUTABLE_CALLS
        return False

    def _check(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and self._is_mutable(default):
                self.report(
                    self.context.finding(
                        default,
                        "TNG006",
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside the function",
                        severity=Severity.WARNING,
                    )
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node)
        self.generic_visit(node)


# -- registry --------------------------------------------------------------------

RULE_SUMMARIES: dict[str, str] = {
    "TNG001": "wall-clock read in simulation code",
    "TNG002": "RNG constructed without an explicit seed",
    "TNG003": "call on process-global RNG state",
    "TNG004": "operating-system entropy source or environment read",
    "TNG005": "ordered iteration over a set",
    "TNG006": "mutable default argument",
}


def default_rules() -> tuple[Rule, ...]:
    """The determinism rule family, in code order."""
    return (
        Rule("TNG001", "wallclock", RULE_SUMMARIES["TNG001"], _WallclockVisitor),
        Rule("TNG002", "unseeded-rng", RULE_SUMMARIES["TNG002"], _UnseededRngVisitor),
        Rule("TNG003", "global-rng", RULE_SUMMARIES["TNG003"], _GlobalRngVisitor),
        Rule("TNG004", "os-entropy", RULE_SUMMARIES["TNG004"], _OsEntropyVisitor),
        Rule(
            "TNG005",
            "set-iteration",
            RULE_SUMMARIES["TNG005"],
            _SetIterationVisitor,
        ),
        Rule(
            "TNG006",
            "mutable-default",
            RULE_SUMMARIES["TNG006"],
            _MutableDefaultVisitor,
            Severity.WARNING,
        ),
    )
