"""Counted, not timed: a wide fluid step reads no link unless one changed.

A 64-tunnel stand-in pair whose links count every read of their
``delay`` and ``loss``.  Once the rows have classified their models, a
step reads neither of them on any link; a model swap announced through
:func:`~repro.netsim.links.replace_models` costs exactly one rescan —
one read of each model on every link — at the next step, however many
swaps landed since the last one, and nothing after it.  Exact on any
host; a step that re-checks every row's models reads 128 of them per
step.

Also counted: the bytes a wide writer's samples hold.  A 256-path store
written 9,000 rows by one aggregate writer keeps one time column and
one 256-wide value matrix of 16,384 rows (its doubling capacity), not
256 pairs of columns.
"""

import tracemalloc

import numpy as np
import pytest

from repro.netsim.delaymodels import GaussianJitterDelay
from repro.netsim.events import Simulator
from repro.netsim.links import ConstantLoss, OverrideLoss, replace_models
from repro.telemetry.store import MeasurementStore
from repro.traffic.demand import DemandModel, standard_flow_classes
from repro.traffic.vector import VectorFluidEngine
from tests.traffic.standin import SyntheticDeployment

WIDTH = 64
STEP_S = 0.1
RESCAN = 2 * WIDTH  # one delay and one loss read per link


class CountingLink:
    """A stand-in link that counts reads of its models."""

    __slots__ = ("_delay", "_loss", "reads")

    def __init__(self, link) -> None:
        self._delay, self._loss = link.delay, link.loss
        self.reads = 0

    @property
    def delay(self):
        self.reads += 1
        return self._delay

    @delay.setter
    def delay(self, model) -> None:
        self._delay = model

    @property
    def loss(self):
        self.reads += 1
        return self._loss

    @loss.setter
    def loss(self, model) -> None:
        self._loss = model


class Counted:
    """A started 64-tunnel engine on counting links, stepped one step at
    a time; ``step()`` returns the link reads that step made."""

    def __init__(self) -> None:
        self.deployment = SyntheticDeployment(
            Simulator(), WIDTH, capacity_bps=0.9e9 / WIDTH
        )
        self.deployment._links = {
            label: CountingLink(link) for label, link in self.deployment._links.items()
        }
        self.links = list(self.deployment._links.values())
        demand = DemandModel(classes=standard_flow_classes(50_000.0), seed=42)
        self.fluid = VectorFluidEngine(
            self.deployment,
            "a",
            demand,
            step_s=STEP_S,
            default_capacity_bps=self.deployment.capacity_bps,
        )
        self.fluid.start()

    def step(self) -> int:
        for link in self.links:
            link.reads = 0
        self.deployment.sim.run(until=(self.fluid.steps + 1.5) * STEP_S)
        return sum(link.reads for link in self.links)


@pytest.fixture
def counted():
    rows = Counted()
    assert rows.step() == RESCAN  # the first step classifies every row
    return rows


def test_a_steady_state_step_reads_no_link(counted):
    assert [counted.step() for _ in range(50)] == [0] * 50
    assert counted.fluid.steps == 51


def test_each_announced_swap_costs_one_rescan(counted):
    link = counted.links[5]
    swaps = [
        lambda: replace_models(
            link, loss=OverrideLoss.blackhole(link._loss, 1.0, 1.5)
        ),
        lambda: replace_models(
            link, delay=GaussianJitterDelay(0.03, 2e-4, seed=5)
        ),
        lambda: replace_models(link, loss=ConstantLoss(0.01)),
    ]
    reads = []
    for swap in swaps:
        swap()
        reads += [counted.step(), counted.step(), counted.step()]
    assert reads == [RESCAN, 0, 0] * len(swaps)

    # Several swaps between two steps: still one rescan.
    for swap in swaps:
        swap()
    assert [counted.step(), counted.step()] == [RESCAN, 0]


def test_a_swap_elsewhere_costs_one_rescan_and_changes_nothing(counted):
    other = SyntheticDeployment(Simulator(), 1)
    before = counted.fluid._rows._delay_plan
    replace_models(other.wan_link("a", "p0"), loss=ConstantLoss(1.0))
    assert [counted.step(), counted.step()] == [RESCAN, 0]
    assert counted.fluid._rows._delay_plan is before


def test_a_wide_writer_holds_its_samples_once():
    # numpy reports its data buffers to tracemalloc in a domain of its
    # own: the exact bytes the store's arrays hold, on any host.
    width, rows = 256, 9_000
    ids, row = list(range(width)), np.zeros(width)
    tracemalloc.start()
    try:
        store = MeasurementStore()
        for step in range(rows):
            store.record_aggregate_many(ids, step * 0.1, row + step)
        assert store.path_ids() == ids  # a read: every staged row written
        domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        traces = tracemalloc.take_snapshot().filter_traces([domain]).traces
    finally:
        tracemalloc.stop()
    # (1 + 256) columns of 16,384 float64s: one time column and one value
    # matrix.  A column pair per path held 2 * 256 * 16,384 * 8 =
    # 67,108,864 bytes.
    assert sum(trace.size for trace in traces) == 33_685_504
    assert all(len(store.series(p)) == rows for p in ids)
