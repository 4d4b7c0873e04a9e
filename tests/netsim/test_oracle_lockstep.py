"""The event loop and the probe streams against their oracles.

``tests/netsim/oracle.py`` keeps the heap of ``Event.__lt__`` objects and
the one-generator-per-tunnel probe loop.  Random schedule / cancel /
pause / resume programs (enough cancellations to compact the heap) must
fire the same callbacks at the same times on both loops, and a Vultr run
must send the same probes, in the same order, from one generator per
edge as from one generator per tunnel.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import events
from repro.scenarios.vultr import VultrDeployment
from tests.netsim import oracle

#: Offsets and intervals from a small set, so firings tie often.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.5])
INTERVALS = st.sampled_from([0.25, 0.5, 1.0])

OPS = st.one_of(
    st.tuples(st.just("at"), DELAYS),
    st.tuples(st.just("chain"), DELAYS, DELAYS),
    st.tuples(st.just("cancel_from_callback"), DELAYS, st.integers(0, 50)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("cancel_last"), st.integers(1, 12)),
    st.tuples(
        st.just("every"), INTERVALS, st.none() | DELAYS, st.none() | DELAYS
    ),
    st.tuples(st.sampled_from(["pause", "resume", "stop"]), st.integers(0, 10)),
    st.tuples(st.just("run"), DELAYS),
    st.tuples(st.just("run_max"), st.integers(0, 6)),
    st.tuples(st.just("step")),
)


class Driver:
    """Applies one program to one event loop and logs what fires."""

    def __init__(self, module) -> None:
        self.sim = module.Simulator()
        self.handles: list = []
        self.tasks: list = []
        self.log: list[tuple[int, float]] = []

    def _logger(self, label: int):
        return lambda: self.log.append((label, self.sim.now))

    def apply(self, label: int, op: tuple) -> None:
        sim, kind = self.sim, op[0]
        if kind == "at":
            self.handles.append(sim.schedule_at(sim.now + op[1], self._logger(label)))
        elif kind == "chain":
            after = op[2]

            def chained() -> None:
                self.log.append((label, sim.now))
                self.handles.append(sim.schedule_in(after, self._logger(-label)))

            self.handles.append(sim.schedule_in(op[1], chained))
        elif kind == "cancel_from_callback":
            victim = op[2]

            def cancelling() -> None:
                self.log.append((label, sim.now))
                if self.handles:
                    self.handles[victim % len(self.handles)].cancel()

            self.handles.append(sim.schedule_in(op[1], cancelling))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "cancel_last":
            for handle in self.handles[-op[1]:]:
                handle.cancel()
        elif kind == "every":
            interval, start, end = op[1], op[2], op[3]
            self.tasks.append(
                sim.call_every(
                    interval,
                    self._logger(label),
                    start=None if start is None else sim.now + start,
                    end=None if end is None else sim.now + end,
                )
            )
        elif kind in ("pause", "resume", "stop"):
            if self.tasks:
                getattr(self.tasks[op[1] % len(self.tasks)], kind)()
        elif kind == "run":
            sim.run(until=sim.now + op[1])
        elif kind == "run_max":
            sim.run(max_events=op[1])
        elif kind == "step":
            sim.step()

    def state(self) -> tuple:
        sim = self.sim
        return (
            sim.now,
            sim.pending,
            sim.live_pending,
            sim.events_processed,
            sim.compactions,
            sim.tombstones_reaped,
        )


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_event_loop_fires_like_the_oracle(program):
    product, reference = Driver(events), Driver(oracle)
    for label, op in enumerate(program, start=1):
        product.apply(label, op)
        reference.apply(label, op)
        assert product.log == reference.log
        assert product.state() == reference.state()
    # Drain what is left; periodic tasks run until a bound.
    product.sim.run(until=product.sim.now + 5.0)
    reference.sim.run(until=reference.sim.now + 5.0)
    assert product.log == reference.log
    assert product.state() == reference.state()


def compaction_program() -> list[tuple]:
    """Twenty events, sixteen cancelled: the heap compacts."""
    return [("at", 1.0)] * 20 + [("cancel_last", 16), ("run", 2.5)]


def test_the_lockstep_program_reaches_compaction():
    product, reference = Driver(events), Driver(oracle)
    for label, op in enumerate(compaction_program(), start=1):
        product.apply(label, op)
        reference.apply(label, op)
    assert product.sim.compactions == reference.sim.compactions > 0
    assert product.log == reference.log
    assert len(product.log) == 4


#: Mid-run, between two probe rounds.
STOP_AT_S = 1.005
UNTIL_S = 2.0


def probe_run(per_tunnel: bool):
    """Both edges probing every path for 2 s, stopped mid-run.

    Returns the probes in send order as ``(edge, created_at,
    flow_label)``, plus the per-path one-way delays each gateway
    measured and the link counters, to show nothing downstream moved.
    """
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    sent = []
    sender_for = deployment.sender_for

    def recording_sender(edge):
        send = sender_for(edge)

        def record(packet):
            sent.append((edge, packet.created_at, packet.flow_label))
            send(packet)

        return record

    deployment.sender_for = recording_sender
    generators = []
    for edge in ("ny", "la"):
        if per_tunnel:
            generators += oracle.start_path_probes(deployment, edge)
        else:
            generators.append(deployment.start_path_probes(edge))

    def stop() -> None:
        if per_tunnel:
            for generator in generators:
                generator.stop()
        else:
            deployment.stop_probes()

    deployment.sim.schedule_at(STOP_AT_S, stop)
    deployment.net.run(until=UNTIL_S)
    delays = {
        edge: {
            path_id: gateway.inbound.series(path_id).values.tolist()
            for path_id in gateway.inbound.path_ids()
        }
        for edge, gateway in deployment.gateways.items()
    }
    links = {
        name: (link.stats.transmitted, link.stats.delivered, link.stats.dropped_loss)
        for name, link in deployment.net.links.items()
    }
    return sent, delays, links, sum(g.sent for g in generators)


def test_one_generator_per_edge_sends_what_one_per_tunnel_sent():
    sent, delays, links, count = probe_run(per_tunnel=False)
    oracle_sent, oracle_delays, oracle_links, oracle_count = probe_run(
        per_tunnel=True
    )
    assert sent == oracle_sent
    assert delays == oracle_delays
    assert links == oracle_links
    assert count == oracle_count == len(sent)
    # Four paths per edge, two edges, rounds at 0.00 .. 1.00 s.
    assert len(sent) == 2 * 4 * 101
    assert max(created for _, created, _ in sent) < STOP_AT_S
