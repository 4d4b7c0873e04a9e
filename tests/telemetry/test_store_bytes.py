"""Counted, not timed: the bytes of arrays the measurement stores hold.

A series holds about the rows written to it: 128 rows first, doubling
after.  A column block outlives a batch for some of its paths, and the
paths a relay outage blackholed move on together to a block of their
own.  Exact on any host:

* the golden N=4 live federation (mirrors, control plane, traffic on all
  12 directions, the relay dark from t=3 to t=6), run to t=10: its stores
  hold 67,584 bytes of arrays in six column blocks and the lone series
  beside them.  At the parent every series held 1,024 rows (598,016
  bytes), and the outage's first subset batch dissolved every block.
* a 10-minute ``ny`` campaign at 10 ms: each of its two stores is one
  column block of 65,536 rows (one time column, the four paths' values
  once), 5,242,880 bytes in all.  At the parent each of the eight series
  held its own time column: 8,388,608 bytes.
"""

import gc
import types

import numpy as np

from repro.scenarios.vultr import VultrDeployment
from repro.telemetry.store import MeasurementStore
from tests.federation.test_golden_live import build_federation_live


def reachable_stores(root: object) -> list[MeasurementStore]:
    """Every store ``root`` reaches, once each."""
    seen, stack, stores = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType, np.ndarray)
        ):
            continue
        seen.add(id(obj))
        if isinstance(obj, MeasurementStore):
            stores.append(obj)
        stack.extend(gc.get_referents(obj))
    return stores


def array_bytes(stores: list[MeasurementStore]) -> int:
    """Bytes of the arrays the stores' series hold (a block's once)."""
    arrays = {}
    for store in stores:
        for series in store._series.values():
            block = series._columns
            held = (series._times, series._values) if block is None else (
                block.times,
                block.values,
            )
            arrays.update((id(array), array.nbytes) for array in held)
    return sum(arrays.values())


def blocks_of(store: MeasurementStore) -> list:
    found = {id(s._columns): s._columns for s in store._series.values()}
    return [block for key, block in found.items() if block is not None]


def test_the_live_federation_holds_the_rows_it_wrote():
    registry = build_federation_live()
    registry.sim.run(until=10.0)
    stores = reachable_stores(registry)
    for store in stores:
        store.path_ids()  # every staged row written
    assert len(stores) == 10
    assert array_bytes(stores) == 67_584
    blocks = [block for store in stores for block in blocks_of(store)]
    assert sorted((len(b.ids), b.rows, b.capacity) for b in blocks) == [
        (2, 69, 128),
        (2, 69, 128),
        (2, 100, 128),
        (2, 100, 128),
        (4, 100, 128),
        (6, 69, 128),
    ]


def test_a_campaign_holds_each_store_as_one_block():
    deployment = VultrDeployment()
    deployment.establish()
    measured, true = deployment.run_fast_campaign("ny", 0.0, 600.0, interval_s=0.01)
    assert array_bytes([measured, true]) == 5_242_880
    for store in (measured, true):
        (block,) = blocks_of(store)
        assert sorted(block.ids) == store.path_ids()
        assert block.rows == 60_000 and block.values.shape == (65_536, 4)
