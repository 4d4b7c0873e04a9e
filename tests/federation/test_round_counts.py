"""Counted, not timed: a steady federation round recomputes nothing.

The N=4 golden live federation (``test_golden_live.py``), stepped one
round at a time after a 1 s warm-up, over K = 256 steady steps:

* a member whose data selector is a :class:`GuardedSelector` over a
  :class:`StaticSelector` is asked to ``select`` once per direction at
  the step after its quarantine set changed and never otherwise — the
  split resolver replays the cached choice while the set's version
  stands (the relay outage from t=3 to t=6 supplies the changes);
* the focused member's guard wraps a weighted split selector, whose
  choice no token names: it still selects once per direction per step
  (the fidelity finding EXPERIMENTS.md records; a later change declares
  it);
* each :class:`GaussianJitterRows` draws ``ceil(K / 256)`` blocks;
* a loss sample writes to no store.

Exact on any host.  At the parent commit every guarded direction
selected at every step (3 x 4 x 256), the jitter rows drew once per
step (256) and every loss sample wrote one aggregate row (4 per round).
"""

import math

import pytest

import repro.netsim.delaymodels as delaymodels
from repro.core.policy import GuardedSelector, StaticSelector
from repro.netsim.delaymodels import GaussianJitterRows
from repro.telemetry.loss import LossMonitor
from repro.telemetry.store import MeasurementStore
from tests.federation.test_golden_live import build_federation_live

STEP_S = 0.1
WARM_UP_STEPS = 10
K = 256
BLOCK = 256


class Counts:
    """What the run did, counted by wrapping the product's methods."""

    def __init__(self, monkeypatch) -> None:
        #: GuardedSelector.select calls per guard (by id).
        self.selects: dict[int, int] = {}
        #: Normal draws per GaussianJitterRows (by id), and the rows in use.
        self.jitter_draws: dict[int, int] = {}
        self._jitter: list[int] = []
        #: Store writes made from inside LossMonitor.sample.
        self.loss_store_writes = 0
        self._sampling = 0

        select = GuardedSelector.select

        def counted_select(guard, tunnels, packet, now):
            self.selects[id(guard)] = self.selects.get(id(guard), 0) + 1
            return select(guard, tunnels, packet, now)

        monkeypatch.setattr(GuardedSelector, "select", counted_select)

        delays_at = GaussianJitterRows.delays_at

        def counted_delays_at(rows, t):
            self.jitter_draws.setdefault(id(rows), 0)
            self._jitter.append(id(rows))
            try:
                return delays_at(rows, t)
            finally:
                self._jitter.pop()

        monkeypatch.setattr(GaussianJitterRows, "delays_at", counted_delays_at)
        for name in ("normal_grid", "normal_across_seeds"):
            draw = getattr(delaymodels, name, None)
            if draw is not None:
                monkeypatch.setattr(delaymodels, name, self._counted_draw(draw))

        sample = LossMonitor.sample

        def counted_sample(monitor, now):
            self._sampling += 1
            try:
                return sample(monitor, now)
            finally:
                self._sampling -= 1

        monkeypatch.setattr(LossMonitor, "sample", counted_sample)
        for name in ("record", "extend", "record_aggregate_many"):
            write = getattr(MeasurementStore, name)
            monkeypatch.setattr(MeasurementStore, name, self._counted_write(write))

    def _counted_draw(self, draw):
        def counted(*args):
            if self._jitter:
                self.jitter_draws[self._jitter[-1]] += 1
            return draw(*args)

        return counted

    def _counted_write(self, write):
        def counted(store, *args):
            if self._sampling:
                self.loss_store_writes += 1
            return write(store, *args)

        return counted


@pytest.fixture(scope="module")
def rounds():
    """Per steady round: guard selects, quarantine changes seen by its
    step, jitter draws per rows, loss-store writes; plus the guards."""
    monkeypatch = pytest.MonkeyPatch()
    try:
        counts = Counts(monkeypatch)
        registry = build_federation_live()
        sim = registry.sim
        members = sorted(registry.controllers)
        guards = {m: registry.gateways[m].selector for m in members}
        sets = {m: registry.controllers[m].quarantined for m in members}

        def run_round(k):
            sim.run(until=(k + 0.5) * STEP_S)

        for k in range(1, WARM_UP_STEPS + 1):
            run_round(k)
        assert registry.traffic._steps == WARM_UP_STEPS
        contents = {m: frozenset(sets[m]) for m in members}
        out = []
        for k in range(WARM_UP_STEPS + 1, WARM_UP_STEPS + K + 1):
            # The step at round k reads the sets the controllers left at
            # round k - 1: a change there is what it must re-select for.
            selects_before = dict(counts.selects)
            draws_before = dict(counts.jitter_draws)
            writes_before = counts.loss_store_writes
            run_round(k)
            out.append(
                {
                    "selects": {
                        m: counts.selects.get(id(g), 0)
                        - selects_before.get(id(g), 0)
                        for m, g in guards.items()
                    },
                    "changed": {
                        m: frozenset(sets[m]) != contents[m] for m in members
                    },
                    "draws": {
                        rows: n - draws_before.get(rows, 0)
                        for rows, n in counts.jitter_draws.items()
                    },
                    "loss_writes": counts.loss_store_writes - writes_before,
                }
            )
            # The sets as the controllers leave them this round.
            contents = {m: frozenset(sets[m]) for m in members}
        assert registry.traffic._steps == WARM_UP_STEPS + K
        yield registry, guards, out
        registry.stop()
    finally:
        monkeypatch.undo()


def directions_of(registry, member):
    return [d for d in registry.engines if d[0] == member]


def test_a_static_guard_selects_only_after_its_quarantine_set_changed(rounds):
    registry, guards, out = rounds
    static = [m for m, g in guards.items() if type(g.inner) is StaticSelector]
    assert len(static) == 3  # every member but the focused one
    quiet = changed = 0
    for previous, this in zip(out, out[1:]):
        for m in static:
            moved = previous["changed"][m]
            expected = len(directions_of(registry, m)) if moved else 0
            assert this["selects"][m] == expected
            changed += moved
            quiet += not moved
    # The relay outage moves the sets; most rounds leave them alone.
    assert changed > 0 and quiet > 200 * len(static)


def test_a_guarded_split_selector_still_selects_every_step(rounds):
    registry, guards, out = rounds
    (focused,) = [
        m for m, g in guards.items() if type(g.inner) is not StaticSelector
    ]
    per_step = len(directions_of(registry, focused))
    assert [r["selects"][focused] for r in out] == [per_step] * K


def test_each_jitter_rows_draws_once_per_block_of_steps(rounds):
    _, _, out = rounds
    served = {rows for r in out for rows in r["draws"]}
    assert len(served) == 1  # no re-plan in this run
    (rows,) = served
    assert sum(r["draws"][rows] for r in out) == math.ceil(K / BLOCK)


def test_a_loss_sample_writes_no_store(rounds):
    _, _, out = rounds
    assert [r["loss_writes"] for r in out] == [0] * K
