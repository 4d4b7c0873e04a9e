"""The interprocedural evaluator behind TNG202 and the fork model.

The evaluator interprets each function's descriptor IR against a small
abstract domain:

* **params** — which of the enclosing function's parameters the value
  derives from (how fork sites whose entrypoint or payload arrives as an
  argument compose across calls);
* **obj** — a coarse object kind for the handful of classes the rules
  care about: RNGs, ``SeedSequence``, ``Simulator``, process pools and
  processes, open file handles, project-class instances (for method
  dispatch), and function references (for fork entrypoints);
* **elements** — the values inside a display or a constructed object,
  so a live object nested in a shipped payload is still seen.

The per-function result is a :class:`FunctionFacts`: the merged return
value, resolved call edges, fork sites (plus *param→fork* summaries for
sites whose entrypoint or shipped argument is still a parameter),
constant-seed RNG constructions, and TNG202 hits.  Everything runs to a
fixpoint over the whole project — the lattice (object kinds, param
sets) is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..rules import _RNG_CONSTRUCTORS
from .callgraph import ProjectGraph
from .summaries import Desc, FunctionSummary

__all__ = ["Value", "FunctionFacts", "Evaluator"]

#: Container element tracking depth (for fork-shipping checks).
_MAX_ELEMENTS_DEPTH = 3

_SIMULATOR_BASENAME = "Simulator"
_POOL_DOTTED = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    }
)
_PROCESS_DOTTED = frozenset(
    {"multiprocessing.Process", "multiprocessing.context.Process"}
)
_SEEDSEQ_DOTTED = frozenset({"numpy.random.SeedSequence"})
#: Object kinds that must not cross a fork boundary alive.
_LIVE_KINDS = ("rng", "sim", "file")


@dataclass
class Value:
    """One abstract value."""

    params: frozenset[int] = frozenset()
    obj: Optional[dict[str, Any]] = None
    elements: tuple["Value", ...] = ()

    @staticmethod
    def merge(values: list["Value"]) -> "Value":
        params: set[int] = set()
        obj = None
        elements: list[Value] = []
        for value in values:
            params.update(value.params)
            if obj is None:
                obj = value.obj
            elements.extend(value.elements)
        return Value(
            params=frozenset(params), obj=obj, elements=tuple(elements[:8])
        )

    def live_objs(self, depth: int = _MAX_ELEMENTS_DEPTH) -> list[dict[str, Any]]:
        """This value's and its elements' RNG/Simulator/file objects."""
        objs = []
        if self.obj is not None and self.obj.get("kind") in _LIVE_KINDS:
            objs.append(self.obj)
        if depth > 0:
            for element in self.elements:
                objs.extend(element.live_objs(depth - 1))
        return objs


def _params_of(values: list[Value]) -> Value:
    """A value carrying only the parameters ``values`` derive from."""
    return Value(params=Value.merge(values).params)


@dataclass
class FunctionFacts:
    """Derived, composable facts about one function."""

    returns: Value = field(default_factory=Value)
    #: ``{"entry": qual|None, "entry_param": i|None, "ship_params": [i],
    #:   "shipped": [obj...], "line": int, "via": [qual...]}``
    param_forks: list[dict[str, Any]] = field(default_factory=list)
    #: Fully-resolved fork sites found in this function.
    fork_sites: list[dict[str, Any]] = field(default_factory=list)
    #: ``{"line": int, "target": str}`` — RNGs built with a literal seed.
    const_seed_rngs: list[dict[str, Any]] = field(default_factory=list)
    #: Resolved project callees (call-graph edges).
    calls: set[str] = field(default_factory=set)
    #: TNG202 hits: ``{"code", "line", "message"}``.
    hits: list[dict[str, Any]] = field(default_factory=list)

    def signature(self) -> tuple:
        """Cheap convergence check for the fixpoint."""
        return (
            tuple(sorted(self.returns.params)),
            None if self.returns.obj is None else self.returns.obj.get("kind"),
            len(self.param_forks),
            len(self.fork_sites),
            len(self.calls),
            len(self.hits),
        )


class Evaluator:
    """Interprets descriptor IR against the current facts table."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.facts: dict[str, FunctionFacts] = {}
        #: Module name -> evaluated module-global environment.
        self.module_env: dict[str, dict[str, Value]] = {}
        #: Module name -> module-level TNG202 hits.
        self.module_hits: dict[str, list[dict[str, Any]]] = {}
        #: Class qualname -> accumulated self-attribute environment.
        self.class_attrs: dict[str, dict[str, Value]] = {}

    # -- fixpoint -----------------------------------------------------------------

    def run_fixpoint(self, max_passes: int = 12) -> None:
        modules = sorted(self.graph.modules)
        for name in modules:
            self.module_env.setdefault(name, {})
        previous: Optional[tuple] = None
        for _ in range(max_passes):
            for name in modules:
                self._eval_module_level(name)
            for name in modules:
                summary = self.graph.modules[name]
                for qual in sorted(summary.functions):
                    self.facts[qual] = self._eval_function(
                        name, summary.functions[qual]
                    )
            signature = tuple(
                self.facts[q].signature() for q in sorted(self.facts)
            )
            if signature == previous:
                break
            previous = signature

    # -- module-level evaluation ---------------------------------------------------

    def _eval_module_level(self, module: str) -> None:
        hits: list[dict[str, Any]] = []
        ctx = _FrameContext(module, qualname=f"{module}.<module>", hits=hits)
        for stmt in self.graph.modules[module].toplevel:
            self._eval_stmt(stmt, self.module_env[module], ctx, module_level=True)
        self.module_hits[module] = hits

    # -- function evaluation -------------------------------------------------------

    def _eval_function(
        self, module: str, summary: FunctionSummary
    ) -> FunctionFacts:
        facts = FunctionFacts()
        env: dict[str, Value] = {}
        class_qual = self._enclosing_class(module, summary.qualname)
        for i, name in enumerate(summary.params):
            obj = None
            if i == 0 and class_qual is not None and name in ("self", "cls"):
                obj = {"kind": "instance", "cls": class_qual}
            env[name] = Value(params=frozenset({i}), obj=obj)
        ctx = _FrameContext(module, summary.qualname, facts.hits, facts=facts)
        for stmt in summary.body:
            self._eval_stmt(stmt, env, ctx)
        return facts

    def _enclosing_class(self, module: str, qualname: str) -> Optional[str]:
        prefix = qualname.rsplit(".", 1)[0]
        summary = self.graph.modules.get(module)
        if summary is not None and prefix in summary.classes:
            return prefix
        return None

    # -- statements ---------------------------------------------------------------

    def _eval_stmt(
        self,
        stmt: Desc,
        env: dict[str, Value],
        ctx: "_FrameContext",
        module_level: bool = False,
    ) -> None:
        kind = stmt.get("s")
        if kind == "assign":
            value = self._eval_expr(stmt["v"], env, ctx)
            for target in stmt["targets"]:
                env[target] = value
                is_global_bind = module_level or target in ctx.global_decls
                if (
                    is_global_bind
                    and value.obj is not None
                    and value.obj.get("kind") == "rng"
                ):
                    ctx.report(
                        "TNG202",
                        stmt["line"],
                        f"RNG object ({value.obj.get('origin', 'RNG')}) is "
                        f"aliased into module-global scope as '{target}'; "
                        "module-global generators couple every subsystem "
                        "that draws from them — pass an owned generator "
                        "instead",
                    )
                if module_level:
                    self.module_env[ctx.module][target] = value
        elif kind == "ret":
            value = self._eval_expr(stmt["v"], env, ctx)
            if ctx.facts is not None:
                ctx.facts.returns = Value.merge([ctx.facts.returns, value])
        elif kind == "expr":
            self._eval_expr(stmt["v"], env, ctx)
        elif kind == "setattr":
            value = self._eval_expr(stmt["v"], env, ctx)
            obj = stmt["obj"]
            env[f"{obj}.{stmt['attr']}"] = value
            if obj in ("self", "cls"):
                cls = self._enclosing_class(
                    ctx.module, ctx.qualname
                ) or ctx.qualname.rsplit(".", 1)[0]
                attrs = self.class_attrs.setdefault(cls, {})
                existing = attrs.get(stmt["attr"])
                attrs[stmt["attr"]] = (
                    value
                    if existing is None
                    else Value.merge([existing, value])
                )
        elif kind == "globaldecl":
            ctx.global_decls.update(stmt["names"])

    # -- expressions --------------------------------------------------------------

    def _eval_expr(
        self, desc: Desc, env: dict[str, Value], ctx: "_FrameContext"
    ) -> Value:
        kind = desc.get("k")
        if kind == "const":
            return Value(obj={"kind": "const", "value": desc.get("v")})
        if kind == "name":
            return self._eval_name(desc["id"], env, ctx)
        if kind == "modref":
            return self._eval_modref(desc["name"])
        if kind == "attr":
            return self._eval_attr(desc, env, ctx)
        if kind == "call":
            return self._eval_call(desc, env, ctx)
        if kind == "tuple":
            items = [self._eval_expr(d, env, ctx) for d in desc["items"]]
            return Value(
                params=Value.merge(items).params, elements=tuple(items[:8])
            )
        if kind == "bin":
            return _params_of(
                [self._eval_expr(d, env, ctx) for d in desc["parts"]]
            )
        if kind == "sub":
            base = self._eval_expr(desc["base"], env, ctx)
            return _params_of([base, *base.elements])
        return Value()

    def _eval_name(
        self, name: str, env: dict[str, Value], ctx: "_FrameContext"
    ) -> Value:
        if name in env:
            return env[name]
        summary = self.graph.modules[ctx.module]
        qual = f"{ctx.module}.{name}"
        if qual in summary.functions:
            return Value(obj={"kind": "func", "qual": qual})
        if qual in summary.classes:
            return Value(obj={"kind": "class", "qual": qual})
        module_env = self.module_env.get(ctx.module, {})
        if name in module_env:
            return module_env[name]
        resolved = summary.exports.get(name)
        if resolved is not None:
            return self._eval_modref(resolved)
        return Value()

    def _eval_modref(self, dotted: str) -> Value:
        resolved = self.graph.resolve(dotted)
        if resolved is not None:
            return Value(obj={"kind": resolved[0], "qual": resolved[1]})
        split = self.graph._split_module_prefix(dotted)
        if split is not None:
            module, remainder = split
            if len(remainder) == 1:
                value = self.module_env.get(module, {}).get(remainder[0])
                if value is not None:
                    return value
        return Value(obj={"kind": "modref", "name": dotted})

    def _eval_attr(
        self, desc: Desc, env: dict[str, Value], ctx: "_FrameContext"
    ) -> Value:
        base = self._eval_expr(desc["base"], env, ctx)
        attr = desc["attr"]
        if base.obj is not None:
            obj_kind = base.obj.get("kind")
            if obj_kind == "modref":
                return self._eval_modref(f"{base.obj['name']}.{attr}")
            if obj_kind == "instance":
                cls = base.obj["cls"]
                method = f"{cls}.{attr}"
                if method in self.graph.functions:
                    return Value(
                        obj={"kind": "method", "qual": method, "recv": base}
                    )
                attr_value = self.class_attrs.get(cls, {}).get(attr)
                if attr_value is not None:
                    return attr_value
        if desc["base"].get("k") == "name":
            pseudo = env.get(f"{desc['base']['id']}.{attr}")
            if pseudo is not None:
                return pseudo
        return Value(params=base.params)

    # -- calls --------------------------------------------------------------------

    def _eval_call(
        self, desc: Desc, env: dict[str, Value], ctx: "_FrameContext"
    ) -> Value:
        line = desc.get("line", 0)
        args = [self._eval_expr(d, env, ctx) for d in desc.get("args", [])]
        kwargs = {
            name: self._eval_expr(d, env, ctx)
            for name, d in desc.get("kw", {}).items()
        }
        dotted = desc.get("dotted")
        if dotted is not None:
            return self._call_dotted(dotted, args, kwargs, ctx, line)
        fn_desc = desc.get("fn") or {"k": "const", "v": None}
        if fn_desc.get("k") == "attr":
            recv = self._eval_expr(fn_desc["base"], env, ctx)
            if recv.obj is not None and recv.obj.get("kind") == "modref":
                return self._call_dotted(
                    f"{recv.obj['name']}.{fn_desc['attr']}",
                    args, kwargs, ctx, line,
                )
            return self._call_attr(fn_desc["attr"], recv, args, kwargs, ctx, line)
        fn_value = self._eval_expr(fn_desc, env, ctx)
        obj = fn_value.obj or {}
        if obj.get("kind") == "func":
            return self._call_project(obj["qual"], args, kwargs, ctx, line)
        if obj.get("kind") == "method":
            return self._call_project(
                obj["qual"], [obj["recv"], *args], kwargs, ctx, line
            )
        if obj.get("kind") == "class":
            return self._construct(obj["qual"], args, kwargs, ctx, line)
        if fn_desc.get("k") == "name" and fn_desc["id"] == "open" and not obj:
            return Value(obj={"kind": "file", "origin": "open(...)"})
        return _params_of([*args, *kwargs.values()])

    def _call_dotted(
        self,
        dotted: str,
        args: list[Value],
        kwargs: dict[str, Value],
        ctx: "_FrameContext",
        line: int,
    ) -> Value:
        if dotted in _SEEDSEQ_DOTTED:
            return Value(obj={"kind": "seedseq"})
        if dotted in _RNG_CONSTRUCTORS:
            return self._construct_rng(dotted, args, kwargs, ctx, line)
        if dotted in _POOL_DOTTED:
            return Value(obj={"kind": "pool"})
        if dotted in _PROCESS_DOTTED:
            self._record_fork(args, kwargs, ctx, line, entry_kw="target")
            return Value(obj={"kind": "process"})
        resolved = self.graph.resolve(dotted)
        if resolved is not None:
            what, qual = resolved
            if what == "func":
                return self._call_project(qual, args, kwargs, ctx, line)
            return self._construct(qual, args, kwargs, ctx, line)
        return _params_of([*args, *kwargs.values()])

    def _construct_rng(
        self,
        dotted: str,
        args: list[Value],
        kwargs: dict[str, Value],
        ctx: "_FrameContext",
        line: int,
    ) -> Value:
        seed_value = args[0] if args else None
        for key in ("seed", "entropy"):
            if key in kwargs:
                seed_value = kwargs[key]
        seed_obj = {} if seed_value is None else seed_value.obj or {}
        if seed_value is None or seed_obj == {"kind": "const", "value": None}:
            return Value(obj={"kind": "rng", "origin": f"{dotted}()"})
        if (
            seed_obj.get("kind") == "const"
            and not seed_value.params
            and ctx.facts is not None
        ):
            ctx.facts.const_seed_rngs.append(
                {"line": line, "target": f"{dotted}({seed_obj['value']!r})"}
            )
        return Value(obj={"kind": "rng", "origin": f"{dotted}(seed)"})

    def _call_attr(
        self,
        attr: str,
        recv: Value,
        args: list[Value],
        kwargs: dict[str, Value],
        ctx: "_FrameContext",
        line: int,
    ) -> Value:
        obj = recv.obj or {}
        obj_kind = obj.get("kind")
        if obj_kind in ("pool", "process") and attr in ("submit", "map", "apply_async"):
            self._record_fork(args, kwargs, ctx, line, entry_arg=0)
            return _params_of([*args[1:], *kwargs.values()])
        # SeedSequence spawning stays a SeedSequence.
        if obj_kind == "seedseq":
            if attr in ("spawn", "generate_state"):
                return Value(obj={"kind": "seedseq"})
            return Value()
        # A draw from an RNG is a plain number.
        if obj_kind == "rng":
            return Value(params=recv.params)
        # Project instance: method dispatch.
        if obj_kind == "instance":
            method = f"{obj['cls']}.{attr}"
            if method in self.graph.functions:
                return self._call_project(
                    method, [recv, *args], kwargs, ctx, line
                )
        return _params_of([recv, *args, *kwargs.values()])

    def _record_fork(
        self,
        args: list[Value],
        kwargs: dict[str, Value],
        ctx: "_FrameContext",
        line: int,
        entry_arg: Optional[int] = None,
        entry_kw: Optional[str] = None,
    ) -> None:
        if ctx.facts is None:
            return
        entry_value: Optional[Value] = None
        shipped: list[Value] = []
        if entry_arg is not None and len(args) > entry_arg:
            entry_value = args[entry_arg]
            shipped = args[entry_arg + 1:]
        if entry_kw is not None and entry_kw in kwargs:
            entry_value = kwargs[entry_kw]
        shipped.extend(
            v for k, v in kwargs.items() if k in ("args", "kwds", "kwargs")
        )
        entry: Optional[str] = None
        entry_param: Optional[int] = None
        if entry_value is not None and entry_value.obj is not None:
            obj_kind = entry_value.obj.get("kind")
            if obj_kind in ("func", "method"):
                entry = entry_value.obj["qual"]
        if entry is None and entry_value is not None and entry_value.params:
            entry_param = min(entry_value.params)
        shipped_objs = []
        ship_params: set[int] = set()
        for value in shipped:
            shipped_objs.extend(value.live_objs())
            ship_params.update(value.params)
        site = {
            "line": line,
            "entry": entry,
            "entry_param": entry_param,
            "ship_params": sorted(ship_params),
            "shipped": shipped_objs,
            "via": [ctx.qualname],
        }
        if entry_param is not None or ship_params:
            ctx.facts.param_forks.append(site)
        if entry is not None or shipped_objs:
            ctx.facts.fork_sites.append(dict(site))

    def _construct(
        self,
        class_qual: str,
        args: list[Value],
        kwargs: dict[str, Value],
        ctx: "_FrameContext",
        line: int,
    ) -> Value:
        init = f"{class_qual}.__init__"
        if init in self.graph.functions:
            self._call_project(
                init,
                [Value(obj={"kind": "instance", "cls": class_qual}), *args],
                kwargs,
                ctx,
                line,
            )
        values = [*args, *kwargs.values()]
        obj: dict[str, Any] = {"kind": "instance", "cls": class_qual}
        basename = class_qual.rsplit(".", 1)[-1]
        if basename == _SIMULATOR_BASENAME:
            obj = {"kind": "sim", "origin": f"{basename}()"}
        return Value(
            params=Value.merge(values).params,
            obj=obj,
            elements=tuple(values[:8]),
        )

    def _call_project(
        self,
        qual: str,
        args: list[Value],
        kwargs: dict[str, Value],
        ctx: "_FrameContext",
        line: int,
    ) -> Value:
        if ctx.facts is not None:
            ctx.facts.calls.add(qual)
        callee = self.graph.modules[self.graph.functions[qual]].functions[qual]
        callee_facts = self.facts.get(qual, FunctionFacts())
        # Map arguments to parameter indices.
        arg_by_index: dict[int, Value] = dict(enumerate(args))
        for name, value in kwargs.items():
            if name in callee.params:
                arg_by_index[callee.params.index(name)] = value
        # Param → fork summaries: entry/arguments resolved at this level.
        for pf in callee_facts.param_forks:
            entry = pf.get("entry")
            if entry is None and pf.get("entry_param") is not None:
                value = arg_by_index.get(pf["entry_param"])
                if (
                    value is not None
                    and value.obj is not None
                    and value.obj.get("kind") in ("func", "method")
                ):
                    entry = value.obj["qual"]
            shipped = list(pf.get("shipped", []))
            ship_params: set[int] = set()
            for index in pf.get("ship_params", []):
                value = arg_by_index.get(index)
                if value is None:
                    continue
                shipped.extend(value.live_objs())
                ship_params.update(value.params)
            if ctx.facts is not None and len(pf.get("via", [])) < 6:
                site = {
                    "line": line,
                    "entry": entry,
                    "entry_param": None if entry is not None else pf.get("entry_param"),
                    "ship_params": sorted(ship_params),
                    "shipped": shipped,
                    "via": [ctx.qualname, *pf.get("via", [])],
                }
                if entry is not None or shipped:
                    ctx.facts.fork_sites.append(site)
                if entry is None and (
                    pf.get("entry_param") is not None or ship_params
                ):
                    ctx.facts.param_forks.append(dict(site))
        # The callee's returned object; the caller's params keep composing
        # through the callee's returned parameters.
        passthrough = [
            arg_by_index[index]
            for index in callee_facts.returns.params
            if index in arg_by_index
        ]
        return Value(
            params=Value.merge(passthrough).params,
            obj=callee_facts.returns.obj,
            elements=callee_facts.returns.elements,
        )


@dataclass
class _FrameContext:
    """Evaluation context for one function (or module) body."""

    module: str
    qualname: str
    hits: list[dict[str, Any]]
    facts: Optional[FunctionFacts] = None
    global_decls: set[str] = field(default_factory=set)

    def report(self, code: str, line: int, message: str) -> None:
        hit = {"code": code, "line": line, "message": message}
        if hit not in self.hits:
            self.hits.append(hit)
