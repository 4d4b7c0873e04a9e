"""Counted, not timed: the bytes of arrays the measurement stores hold.

A series holds about the rows written to it: 128 rows first, doubling
after.  A series is a column of a block (a lone one of width 1), and a
batch for some of a block's paths splits it, at its capacity, into the
named and the unnamed paths.  Exact on any host:

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
            if block is not None:
                arrays[id(block.times)] = block.times.nbytes
                arrays[id(block.values)] = block.values.nbytes
    return sum(arrays.values())


def blocks_of(store: MeasurementStore) -> list:
    """The store's blocks of two or more paths: the ids of their columns,
    their rows, their capacity and their value matrix."""
    ids_of = {}
    for path_id, series in store._series.items():
        block = series._columns
        if block is not None and len(block.members) > 1:
            ids_of.setdefault(id(block), (block, {}))[1][id(series)] = path_id
    return [
        types.SimpleNamespace(
            ids=[ids[id(member)] for member in block.members],
            rows=block.rows,
            capacity=block.capacity,
            values=block.values,
        )
        for block, ids in ids_of.values()
    ]


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
