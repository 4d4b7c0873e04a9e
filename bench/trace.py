"""Span tracer for the traced repetition.

Wraps the layer boundaries of the simulator stack *from here* — class
attributes are swapped for timing wrappers on :meth:`Tracer.install`
and the originals put back on :meth:`Tracer.uninstall` — so the program
under test carries no tracing code and an untraced repetition runs the
unmodified classes.

A span is ``(name, start, end, parent)``; names are ``<layer>.<op>``
where the layer is one of the repo's modules.  Every scheduled event
callback, periodic task callback and tick-wheel registrant is wrapped
at scheduling time and attributed to the layer whose module defines the
callback.  Spans are kept in flat arrays and written out once, at the
end.  A layer's self time is its spans' duration minus the part their
direct child spans cover; wrapper bookkeeping lands in the parent's
self time, so shares include tracing cost (see README, known limits).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Callable, Iterator

import numpy as np

__all__ = ["Tracer", "layer_of_module", "layer_of_span"]

#: Module prefix -> layer, first match wins (specific before general).
_LAYER_PREFIXES = (
    ("repro.netsim.events", "netsim.events"),
    ("repro.netsim.links", "netsim.links"),
    ("repro.netsim.delaymodels", "netsim.delaymodels"),
    ("repro.netsim.trace", "netsim.trace"),
    ("repro.netsim.ticks", "netsim.ticks"),
    ("repro.netsim", "netsim.node"),
    ("repro.dataplane", "dataplane"),
    ("repro.telemetry.loss", "telemetry.loss"),
    ("repro.telemetry", "telemetry.store"),
    ("repro.core.policy", "core.policy"),
    ("repro.core.session", "core.session"),
    ("repro.core.discovery", "core.discovery"),
    ("repro.core", "core.controller"),
    ("repro.bgp.snapshot", "bgp.snapshot"),
    ("repro.bgp", "bgp.network"),
    ("repro.traffic", "traffic"),
    ("repro.faults", "faults"),
    ("repro.srlg", "srlg"),
    ("repro.federation", "federation"),
)

#: Modules whose classes implement ``PathSelector.select``.
_SELECTOR_MODULES = (
    "repro.core.policy",
    "repro.traffic.splitting",
    "repro.srlg.diversity",
    "repro.dataplane.flowlet",
)


def layer_of_module(module: str) -> str:
    """The layer a module's code is accounted to (``other`` if none)."""
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def layer_of_span(name: str) -> str:
    """``<layer>.<op>`` -> ``<layer>``."""
    return name.rsplit(".", 1)[0]


def _defining_module(callback: Callable) -> str:
    func = getattr(callback, "__func__", callback)
    while isinstance(func, functools.partial):
        func = func.func
    return getattr(func, "__module__", None) or type(callback).__module__


def _all_subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _all_subclasses(sub)


def _method_targets() -> list[tuple[type, str, str]]:
    """(owner class, attribute, span name) for every plain method wrap."""
    import importlib

    from repro.bgp.network import BgpNetwork
    from repro.bgp.snapshot import SnapshotCache
    from repro.core.discovery import PathDiscovery
    from repro.core.session import TelemetryMirror
    from repro.dataplane.programs import TangoReceiverProgram, TangoSenderProgram
    from repro.dataplane.relay import RelayForwardProgram
    from repro.faults.injector import FaultInjector
    from repro.federation.registry import FederationRegistry
    from repro.netsim.delaymodels import DelayModel
    from repro.netsim.events import Simulator
    from repro.netsim.links import Link, LossModel
    from repro.netsim.node import Node
    from repro.netsim.trace import PacketFactory
    from repro.telemetry.loss import LossMonitor
    from repro.telemetry.store import MeasurementStore

    targets: list[tuple[type, str, str]] = [
        (Simulator, "run", "netsim.events.run"),
        (Link, "transmit", "netsim.links.transmit"),
        (PacketFactory, "build", "netsim.trace.build"),
        (TangoSenderProgram, "__call__", "dataplane.sender"),
        (TangoReceiverProgram, "__call__", "dataplane.receiver"),
        (RelayForwardProgram, "__call__", "dataplane.relay"),
        (MeasurementStore, "record", "telemetry.store.append"),
        (MeasurementStore, "extend", "telemetry.store.append"),
        (MeasurementStore, "record_aggregate_many", "telemetry.store.append"),
        (MeasurementStore, "recent_delay", "telemetry.store.read"),
        (MeasurementStore, "last_time", "telemetry.store.read"),
        (LossMonitor, "sample", "telemetry.loss.sample"),
        (BgpNetwork, "converge", "bgp.network.converge"),
        (SnapshotCache, "converge", "bgp.snapshot.converge"),
        (PathDiscovery, "discover", "core.discovery.discover"),
        (TelemetryMirror, "sync", "core.session.sync"),
        (FaultInjector, "arm", "faults.arm"),
        (FederationRegistry, "establish", "federation.establish"),
        (FederationRegistry, "stitch_pair", "federation.stitch_pair"),
    ]
    for cls in _all_subclasses(DelayModel):
        for attr in ("delay_at", "delays"):
            if attr in vars(cls):
                targets.append((cls, attr, "netsim.delaymodels.draw"))
    for cls in _all_subclasses(LossModel):
        if "drops" in vars(cls):
            targets.append((cls, "drops", "netsim.links.drops"))
    for cls in _all_subclasses(Node):
        if "receive" in vars(cls):
            targets.append((cls, "receive", "netsim.node.receive"))
    for module_name in _SELECTOR_MODULES:
        module = importlib.import_module(module_name)
        layer = layer_of_module(module_name)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module_name
                and "select" in vars(cls)
                and not getattr(cls, "_is_protocol", False)
            ):
                targets.append((cls, "select", f"{layer}.select"))
    return targets


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        #: Spans are recorded only while True (the timed window);
        #: wrappers installed earlier pass straight through.
        self.recording = False
        #: ``Simulator.schedule_at`` calls and the deepest heap seen
        #: while recording.
        self.scheduled = 0
        self.heap_peak = 0
        self._patched: list[tuple[type, str, object]] = []
        self._callback_names: dict[tuple[str, str], int] = {}

    # -- wrapping -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _span(self, fn: Callable, name_id: int) -> Callable:
        """``fn`` timed as one span per call while recording."""
        tracer = self
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _callback(self, callback: Callable, op: str) -> Callable:
        """A scheduled callback, attributed to its defining module."""
        module = _defining_module(callback)
        key = (module, op)
        name_id = self._callback_names.get(key)
        if name_id is None:
            name_id = self._callback_names[key] = self._intern(
                f"{layer_of_module(module)}.{op}"
            )
        return self._span(callback, name_id)

    def install(self) -> None:
        """Swap every traced attribute for its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from repro.netsim.events import Simulator
        from repro.netsim.ticks import TickScheduler

        for owner, attr, name in _method_targets():
            original = vars(owner)[attr]
            wrapper = functools.wraps(original)(
                self._span(original, self._intern(name))
            )
            self._patch(owner, attr, wrapper)

        tracer = self
        schedule_at = vars(Simulator)["schedule_at"]
        call_every = vars(Simulator)["call_every"]
        register = vars(TickScheduler)["register"]

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time, callback):
            event = schedule_at(sim, time, tracer._callback(callback, "event"))
            if tracer.recording:
                tracer.scheduled += 1
                pending = sim.pending
                if pending > tracer.heap_peak:
                    tracer.heap_peak = pending
            return event

        @functools.wraps(call_every)
        def traced_call_every(sim, interval, callback, **kwargs):
            return call_every(
                sim, interval, tracer._callback(callback, "periodic"), **kwargs
            )

        @functools.wraps(register)
        def traced_register(scheduler, callback, **kwargs):
            return register(
                scheduler, tracer._callback(callback, "tick"), **kwargs
            )

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "call_every", traced_call_every)
        self._patch(TickScheduler, "register", traced_register)

    def _patch(self, owner: type, attr: str, wrapper: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[type, str, object]]:
        """(owner, attribute, original) for every live patch."""
        return list(self._patched)

    # -- analysis -----------------------------------------------------------

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.span_name, dtype=np.intc),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
            np.frombuffer(self.span_parent, dtype=np.intc),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``outer`` (spans whose parent has a
        different name — nested same-name calls counted once) and
        ``self_s``."""
        if not len(self.span_start):
            return {}
        name, start, end, parent = self._columns()
        n_names = len(self.names)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(name)
        )
        self_time = duration - child_time
        outer = np.ones(len(name), dtype=bool)
        outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        count = np.bincount(name, minlength=n_names)
        outer_count = np.bincount(name[outer], minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        return {
            self.names[i]: {
                "count": int(count[i]),
                "outer": int(outer_count[i]),
                "self_s": float(self_s[i]),
            }
            for i in range(n_names)
            if count[i]
        }

    def durations(self, *span_names: str) -> np.ndarray:
        """Inclusive durations of every span with one of these names."""
        ids = [self._name_ids[n] for n in span_names if n in self._name_ids]
        if not ids or not len(self.span_start):
            return np.empty(0, dtype=np.float64)
        name, start, end, _parent = self._columns()
        mask = np.isin(name, ids)
        return (end - start)[mask]

    def dump(self, path: str, origin: float, meta: dict) -> None:
        """Write the spans (columnar, times relative to ``origin``)."""
        if len(self.span_start):
            name, start, end, parent = self._columns()
            spans = {
                "name": name.tolist(),
                "start": np.round(start - origin, 7).tolist(),
                "end": np.round(end - origin, 7).tolist(),
                "parent": parent.tolist(),
            }
        else:
            spans = {"name": [], "start": [], "end": [], "parent": []}
        payload = dict(meta, names=self.names, spans=spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
