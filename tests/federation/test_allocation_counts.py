"""Counted, not timed: a lookup in the feedback loop never allocates.

``dict.setdefault(path_id, TimeSeries())`` built (and threw away) a
two-array series on *every* record / sync / loss sample; the same idiom
built a ``_PathState`` per tracker observation.  These tests count
constructions over a live run and require them to equal the objects
still alive at the end — exact on any host, and off by three orders of
magnitude if the idiom comes back.
"""

import gc

import pytest

from repro.dataplane import seqnum
from repro.scenarios.vultr import VultrDeployment
from repro.telemetry.store import TimeSeries
from tests.federation.test_golden_live import build_federation_live


def federation_live():
    """The golden N=4 live federation, 5 sim-s (the relay dies at 3)."""
    registry = build_federation_live()
    return registry, lambda: registry.sim.run(until=5.0)


def vultr_packets():
    """Two-party packet mode: per-packet ``record`` / ``observe``."""
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.start_path_probes("ny")
    deployment.start_path_probes("la")
    return deployment, lambda: deployment.net.run(until=1.0)


def alive(cls) -> int:
    gc.collect()
    return sum(type(obj) is cls for obj in gc.get_objects())


@pytest.mark.parametrize("build", [federation_live, vultr_packets])
def test_constructions_equal_objects_alive_at_the_end(build, monkeypatch):
    holder, run = build()
    built = {TimeSeries: 0, seqnum._PathState: 0}
    for cls in built:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            built[_cls] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    before = {cls: alive(cls) for cls in built}
    run()
    kept = {cls: alive(cls) - before[cls] for cls in built}
    assert built == kept
    assert all(count > 0 for count in built.values())
    assert holder is not None  # the run's state is still referenced here
