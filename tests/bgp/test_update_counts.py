"""Counted, not timed: establishing a federation pays for routing, not
for ``ipaddress`` or for copies nobody changed.

During ``establish()`` of the N=4 live federation (seed 42):

* no call reaches the stdlib's ``ipaddress._BaseNetwork.__hash__`` — a
  RIB, Adj-RIB-Out or origination lookup hashes an interned prefix,
  whose hash was taken once;
* no ``dataclasses.replace`` call comes from ``repro.bgp``;
* an export strips private ASNs from the ASN tuple and interns the
  result once: ``strip_private_asns`` hands back the tuple itself
  whenever it holds none, and an ``AsPath`` is built only by the value
  table, a default bundle and discovery's transit views, exactly
  ``PATHS_BUILT``;
* an Adj-RIB-In upsert, a Loc-RIB decision and an Adj-RIB-Out resend
  check compare interned bundles by identity first: the dataclass
  ``__eq__`` of the four route value types runs exactly ``VALUE_EQS``
  times;
* every ``originated``, Loc-RIB and Adj-RIB-In key is an interned prefix;
* no dataclass-generated ``__init__`` runs for a class built by
  :func:`repro.frozen.slot_init` — each is built by its slot-descriptor
  ``__init__`` — and the interpreter's no-op outcome is one shared
  ``ExportAction``;
* ``restore_snapshot`` copies no dict: after each of its 31 calls every
  table of every router is the very dict the snapshot holds, and
  ``capture_snapshot`` (13 calls) copies none either;
* the copy-on-write copies made afterwards, when a table shared with a
  snapshot is first written, are exactly ``COW_COPIES``;
* no ``ipaddress`` ``__eq__`` runs — a FIB install finds the route it
  replaces by integer key — and no ``Enum.__hash__`` does: an import
  reads the LOCAL_PREF its session took once;
* at the end, the bundles and paths the network's tables, its snapshot
  cache and its value table hold are one object per value, exactly
  ``CENSUS``.

Then traffic starts on 11 of the 12 directions, one after another, and
the rows step: :class:`~repro.traffic.vector.FluidRows` concatenates
each of its row, bucket and peak arrays once, at that layout change, not
once per joining direction.  The twelfth, joining at a later step
instant, costs one more concatenation per array.

Exact on any host.  Before the value table, establishment built 1,012
``RouteAttributes`` and 783 ``AsPath``, made 294 ``ipaddress``
``__eq__`` calls from FIB installs and 455 ``Enum.__hash__`` calls from
imports, and its tables and snapshots held 933 bundle and 483 path
objects for 93 and 39 values.  At the parent commit establishment made 8,313
stdlib hash calls and 491 ``replace`` calls from ``repro.bgp``, every
export built a new path, the scenario's prefixes were plain networks,
and the 11 directions concatenated 19 x 10 = 190 arrays as they joined.
Before copy-on-write tables and slot-descriptor construction, the 31
restores copied 2,728 dicts and the 13 captures 1,144 (every table of
every router, each time), and 3,270 dataclass-generated ``__init__``
frames ran for these classes: 1,012 ``RouteAttributes``, 783 ``AsPath``,
484 ``ExportAction``, 469 ``Announcement``, 455 ``RibEntry`` and 67
``Withdrawal``.
"""

import dataclasses
import enum
import ipaddress
import sys

import numpy as np
import pytest

from repro.bgp import snapshot
from repro.bgp import router as router_module
from repro.bgp.attributes import AsPath, RouteAttributes, is_private_asn
from repro.bgp.messages import Announcement
from repro.bgp.rib import RibEntry
from repro.bgp.messages import InternedIPv4Network, InternedIPv6Network
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib
from repro.bgp.router import BgpRouter
from repro.federation import FederationRegistry
from repro.scenarios.topologies import build_live_federation
from repro.traffic.vector import FluidRows
from tests.bgp.test_snapshot import held_bundles
from tests.test_frozen import CLASSES as SLOT_INIT_CLASSES

INTERNED = (InternedIPv4Network, InternedIPv6Network)
STDLIB_HASH = ipaddress._BaseNetwork.__hash__.__code__
REPLACE = dataclasses.replace.__code__
ENUM_HASH = enum.Enum.__hash__.__code__
IPADDRESS_FILE = ipaddress.__file__

#: FluidRows' arrays: 12 per row (capacity, bits, service, buffer delay,
#: buffer, clock offset, loss-until, backlog, two carries, delay and
#: loss values), 6 per bucket (rate, arrival, duration, day curve,
#: flows, hashed streams) and 1 per direction (peak).
ROWS_ARRAYS = 19

SLOT_INITS = {cls.__init__.__code__: cls.__name__ for cls in SLOT_INIT_CLASSES}
#: Objects each slot-descriptor ``__init__`` built during establish():
#: the parent's counts, but for ``ExportAction`` (484 then), whose
#: no-op outcome is now one shared instance, and for the bundles and
#: paths the network's value table hands out again instead of building
#: (1,012 ``RouteAttributes`` and 783 ``AsPath`` before it).  ``AsPath``
#: was 355 while an export stripped private ASNs into a transient path
#: (see ``PATHS_BUILT``).
FAST_INITS = {
    "RouteAttributes": 184,
    "AsPath": 129,
    "Announcement": 469,
    "RibEntry": 455,
    "Withdrawal": 67,
    "ExportAction": 15,
}
SHARED_OWN = AdjRibIn._own.__code__  # LocRib inherits the same method
assert LocRib._own.__code__ is SHARED_OWN
OUT_OWN = AdjRibOut._own.__code__
OUT_OWN_INDEX = AdjRibOut._own_index.__code__
OWN_ORIGINATED = BgpRouter._own_originated.__code__

#: Copy-on-write copies during establish(), per table: the tables a
#: restore or capture shared and a later converge then wrote.
#: ``AdjRibOut`` counts a neighbor table copied, not one created for a
#: neighbor first sent something.
COW_COPIES = {
    "AdjRibIn": 145,
    "LocRib": 145,
    "AdjRibOut index": 111,
    "AdjRibOut table": 213,
    "originated": 46,
}


#: ``AsPath`` constructions during establish(), by the calling function:
#: the value table's misses, ``RouteAttributes``' default path, and
#: discovery's transit-only views.  An export built one more path per
#: export of a path holding a private ASN (``strip_private``: 244 here,
#: 1,372 of 1,824 at N = 8) until it stripped the ASN tuple instead.
PATHS_BUILT = {"path": 41, "__init__": 52, "without": 18, "strip_private": 18}

#: Dataclass ``__eq__`` calls on the four route value types during
#: establish(): each is an identity miss falling back to ``==`` (a
#: changed route), or a bundle lookup by value.  Before the identity
#: checks, every Adj-RIB-In upsert, Loc-RIB decision and resend check
#: compared by value: 1,731 here (13,433 at N = 8, now 3,633).
VALUE_TYPES = (AsPath, RouteAttributes, RibEntry, Announcement)
VALUE_EQS = {
    "AsPath": 106,
    "RouteAttributes": 250,
    "RibEntry": 106,
    "Announcement": 60,
}


#: (objects, distinct values) of each type the network holds at the
#: end of establish(): its routers' tables, its snapshot cache and its
#: value table.
CENSUS = {"RouteAttributes": (96, 96), "AsPath": (41, 41)}


class EstablishCounts:
    """What ``establish()`` did, counted by a profile hook and a wrapper."""

    def __init__(self) -> None:
        self.stdlib_hashes = 0
        self.bgp_replaces = 0
        self.ipaddress_eqs = 0
        self.enum_hashes = 0
        #: ``(asns, result)`` of every export's ``strip_private_asns``.
        self.strips: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.paths_built: dict[str, int] = {}
        self.value_eqs: dict[str, int] = {}
        #: ``__init__`` frames of slot_init classes, fast per class and stock.
        self.fast_inits: dict[str, int] = {}
        self.stock_inits = 0
        self.cow_copies = dict.fromkeys(COW_COPIES, 0)
        #: Calls, and tables not the snapshot's own dicts right after each.
        self.restores = 0
        self.restore_copies = 0
        self.captures = 0
        self.capture_copies = 0

    def profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code is STDLIB_HASH:
            self.stdlib_hashes += 1
        elif code is REPLACE:
            caller = frame.f_back.f_globals.get("__name__", "")
            if caller.startswith("repro.bgp"):
                self.bgp_replaces += 1
        elif code is ENUM_HASH:
            self.enum_hashes += 1
        elif code.co_name == "__eq__" and code.co_filename == IPADDRESS_FILE:
            self.ipaddress_eqs += 1
        elif code.co_name == "__eq__":
            kind = type(frame.f_locals.get("self"))
            if kind in VALUE_TYPES:
                name = kind.__name__
                self.value_eqs[name] = self.value_eqs.get(name, 0) + 1
        elif code.co_name == "__init__":
            if type(frame.f_locals.get("self")) is AsPath:
                caller = frame.f_back.f_code.co_name
                self.paths_built[caller] = self.paths_built.get(caller, 0) + 1
            name = SLOT_INITS.get(code)
            if name is not None:
                self.fast_inits[name] = self.fast_inits.get(name, 0) + 1
            elif type(frame.f_locals.get("self")) in SLOT_INIT_CLASSES:
                self.stock_inits += 1
        elif code is SHARED_OWN:
            self.cow_copies[type(frame.f_locals["self"]).__name__] += 1
        elif code is OUT_OWN:
            rib, neighbor = frame.f_locals["self"], frame.f_locals["neighbor"]
            if neighbor in rib._sent:
                self.cow_copies["AdjRibOut table"] += 1
        elif code is OUT_OWN_INDEX:
            self.cow_copies["AdjRibOut index"] += 1
        elif code is OWN_ORIGINATED:
            if frame.f_locals["self"]._originated_shared:
                self.cow_copies["originated"] += 1

    def restore(self, network, state) -> None:
        RESTORE(network, state)
        self.restores += 1
        self.restore_copies += _unshared_tables(network, state)

    def capture(self, network, fingerprint=None):
        state = CAPTURE(network, fingerprint)
        self.captures += 1
        self.capture_copies += _unshared_tables(network, state)
        return state


RESTORE = snapshot.restore_snapshot
CAPTURE = snapshot.capture_snapshot


def _unshared_tables(network, state) -> int:
    """How many of the network's tables are not the snapshot's own dicts."""
    held = 0
    for name, router_state in state.routers.items():
        router = network.routers[name]
        held += router.adj_rib_in._table is not router_state.adj_rib_in
        held += router.loc_rib._table is not router_state.loc_rib
        held += router.adj_rib_out._sent is not router_state.adj_rib_out
        held += router.originated is not router_state.originated
    return held


@pytest.fixture(scope="module")
def established():
    scenario = build_live_federation(4, seed=42)
    registry = FederationRegistry(scenario)
    counts = EstablishCounts()
    monkeypatch = pytest.MonkeyPatch()
    strip = router_module.strip_private_asns

    def recorded_strip(asns):
        result = strip(asns)
        counts.strips.append((asns, result))
        return result

    monkeypatch.setattr(router_module, "strip_private_asns", recorded_strip)
    monkeypatch.setattr(snapshot, "restore_snapshot", counts.restore)
    monkeypatch.setattr(snapshot, "capture_snapshot", counts.capture)
    sys.setprofile(counts.profile)
    try:
        registry.establish()
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    yield registry, counts
    registry.stop()


def test_no_stdlib_network_hash_during_establish(established):
    _, counts = established
    assert counts.stdlib_hashes == 0


def test_no_dataclasses_replace_from_bgp_during_establish(established):
    _, counts = established
    assert counts.bgp_replaces == 0


def test_strip_private_returns_a_clean_path_itself(established):
    _, counts = established
    clean = [
        (asns, result)
        for asns, result in counts.strips
        if not any(is_private_asn(a) for a in asns)
    ]
    assert clean, "establish() exported no path"
    assert all(result is asns for asns, result in clean)
    assert len(clean) < len(counts.strips), "no export held a private ASN"


def test_an_export_builds_no_transient_path(established):
    _, counts = established
    assert counts.paths_built == PATHS_BUILT


def test_route_values_compare_by_identity_first(established):
    _, counts = established
    assert counts.value_eqs == VALUE_EQS


def test_every_rib_key_is_an_interned_prefix(established):
    registry, _ = established
    keys = 0
    for router in registry.bgp.routers.values():
        for table in (
            router.originated,
            router.loc_rib.snapshot(),
            router.adj_rib_in.snapshot(),
        ):
            plain = [p for p in table if type(p) not in INTERNED]
            assert not plain, f"{router.name}: plain prefix keys {plain}"
            keys += len(table)
    assert keys > 0


def test_no_dataclass_generated_init_for_slot_init_classes(established):
    _, counts = established
    assert counts.stock_inits == 0
    assert counts.fast_inits == FAST_INITS


def test_restore_and_capture_copy_no_dict(established):
    _, counts = established
    assert (counts.restores, counts.captures) == (31, 13)
    assert counts.restore_copies == 0
    assert counts.capture_copies == 0


def test_copy_on_write_copies_are_counted_exactly(established):
    _, counts = established
    assert counts.cow_copies == COW_COPIES


def test_no_ipaddress_eq_or_enum_hash_during_establish(established):
    _, counts = established
    assert (counts.ipaddress_eqs, counts.enum_hashes) == (0, 0)


def _held_values(registry) -> dict:
    """(objects, distinct values) per type, over everything the
    federation's BGP network holds."""
    values = registry.bgp.values
    held = held_bundles(
        registry.bgp.routers.values(), registry.snapshots._snapshots.values()
    )
    bundles = {id(a): a for a in (*held, *values._bundles.values())}
    paths = {id(a.as_path): a.as_path for a in bundles.values()}
    paths.update((id(p), p) for p in values._paths.values())
    return {
        "RouteAttributes": (len(bundles), len(set(bundles.values()))),
        "AsPath": (len(paths), len(set(paths.values()))),
    }


def test_the_network_holds_one_object_per_value(established):
    registry, _ = established
    assert _held_values(registry) == CENSUS


def test_fluid_rows_concatenate_each_array_once_per_layout(monkeypatch):
    registry = FederationRegistry(build_live_federation(4, seed=42))
    registry.establish()
    own_code = {
        f.__code__ for f in vars(FluidRows).values() if hasattr(f, "__code__")
    }
    calls = []
    concatenate = np.concatenate

    def counted(*args, **kwargs):
        if sys._getframe(1).f_code in own_code:
            calls.append(1)
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    names = registry.scenario.member_names
    late = (names[-1], names[0])
    for src in names:
        for dst in names:
            if src != dst and (src, dst) != late:
                registry.start_traffic(src, dst)
    assert len(calls) == 0  # nothing is folded before the rows step
    registry.sim.run(until=1.0)
    assert len(calls) == ROWS_ARRAYS
    # A direction joining at a step instant is folded in at the next one.
    registry.start_traffic(*late)
    registry.sim.run(until=1.15)
    assert len(calls) == 2 * ROWS_ARRAYS
    assert registry.engines[late].steps == 1
    registry.stop()
