"""Counted, not timed: establishing a federation pays for routing, not
for ``ipaddress`` or for copies nobody changed.

During ``establish()`` of the N=4 live federation (seed 42):

* no call reaches the stdlib's ``ipaddress._BaseNetwork.__hash__`` — a
  RIB, Adj-RIB-Out or origination lookup hashes an interned prefix,
  whose hash was taken once;
* no ``dataclasses.replace`` call comes from ``repro.bgp``;
* ``AsPath.strip_private`` hands back the path itself whenever it holds
  no private ASN;
* every ``originated``, Loc-RIB and Adj-RIB-In key is an interned prefix.

Then traffic starts on 11 of the 12 directions, one after another, and
the rows step: :class:`~repro.traffic.vector.FluidRows` concatenates
each of its row, bucket and peak arrays once, at that layout change, not
once per joining direction.  The twelfth, joining at a later step
instant, costs one more concatenation per array.

Exact on any host.  At the parent commit establishment made 8,313
stdlib hash calls and 491 ``replace`` calls from ``repro.bgp``, every
export built a new path, the scenario's prefixes were plain networks,
and the 11 directions concatenated 19 x 10 = 190 arrays as they joined.
"""

import dataclasses
import ipaddress
import sys

import numpy as np
import pytest

from repro.bgp.attributes import AsPath, is_private_asn
from repro.bgp.messages import InternedIPv4Network, InternedIPv6Network
from repro.federation import FederationRegistry
from repro.scenarios.topologies import build_live_federation
from repro.traffic.vector import FluidRows

INTERNED = (InternedIPv4Network, InternedIPv6Network)
STDLIB_HASH = ipaddress._BaseNetwork.__hash__.__code__
REPLACE = dataclasses.replace.__code__

#: FluidRows' arrays: 12 per row (capacity, bits, service, buffer delay,
#: buffer, clock offset, loss-until, backlog, two carries, delay and
#: loss values), 6 per bucket (rate, arrival, duration, day curve,
#: flows, hashed streams) and 1 per direction (peak).
ROWS_ARRAYS = 19


class EstablishCounts:
    """What ``establish()`` did, counted by a profile hook and a wrapper."""

    def __init__(self) -> None:
        self.stdlib_hashes = 0
        self.bgp_replaces = 0
        #: ``(path, result)`` of every strip_private call.
        self.strips: list[tuple[AsPath, AsPath]] = []

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


@pytest.fixture(scope="module")
def established():
    scenario = build_live_federation(4, seed=42)
    registry = FederationRegistry(scenario)
    counts = EstablishCounts()
    monkeypatch = pytest.MonkeyPatch()
    strip = AsPath.strip_private

    def recorded_strip(path):
        result = strip(path)
        counts.strips.append((path, result))
        return result

    monkeypatch.setattr(AsPath, "strip_private", recorded_strip)
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
        (path, result)
        for path, result in counts.strips
        if not any(is_private_asn(a) for a in path.asns)
    ]
    assert clean, "establish() exported no path"
    assert all(result is path for path, result in clean)


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
