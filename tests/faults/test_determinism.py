"""Replay determinism: the property the whole subsystem is built on.

Two layers: the :class:`OverrideLoss` wrapper as a pure function of
``(seed, t, nonce)``, and a full packet-level deployment where replaying
one plan with one seed must drop exactly the same packets.
"""

from hypothesis import given, strategies as st

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.netsim.links import ConstantLoss, OverrideLoss
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment


class TestOverrideLossProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        t=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        nonce=st.integers(min_value=0, max_value=10_000),
    )
    def test_drops_is_a_pure_function(self, seed, t, nonce):
        loss = OverrideLoss.burst(ConstantLoss(0.0), 10.0, 20.0, rate=0.5, seed=9)
        assert loss.drops(seed, t, nonce) == loss.drops(seed, t, nonce)

    @given(t=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_outside_windows_delegates_to_inner(self, t):
        inner = ConstantLoss(0.3)
        loss = OverrideLoss.burst(inner, 10.0, 20.0, rate=0.9, seed=9)
        if not 10.0 <= t < 20.0:
            assert loss.drops(7, t, 1) == inner.drops(7, t, 1)
            assert loss.loss_probability(t) == inner.loss_probability(t)

    @given(
        t=st.floats(min_value=10.0, max_value=19.999, allow_nan=False),
        nonce=st.integers(min_value=0, max_value=1000),
    )
    def test_blackhole_window_always_drops(self, t, nonce):
        loss = OverrideLoss.blackhole(ConstantLoss(0.0), 10.0, 20.0)
        assert loss.drops(0, t, nonce)
        assert loss.loss_probability(t) == 1.0


def run_campaign(plan_seed):
    """One fresh deployment + burst plan; returns per-packet outcomes."""
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    plan = FaultPlan(
        name="burst",
        seed=plan_seed,
        events=(
            # NTT is the default path, so the un-steered data stream
            # below rides straight through the burst.
            FaultEvent(
                "loss_burst",
                at=1.0,
                duration=2.0,
                params={"src": "ny", "path": "NTT", "rate": 0.5},
            ),
        ),
    )
    FaultInjector(deployment, plan).arm()

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(4)),
        dst=str(deployment.pairing.b.host_address(4)),
        flow_label=9,
    )
    send = deployment.sender_for("ny")
    sent = []
    delivered = []

    def emit():
        packet = factory.build()
        packet.meta["n"] = len(sent)
        sent.append(packet)
        send(packet)

    def on_delivery(packet, now):
        delivered.append((packet.meta["n"], round(now, 9)))

    deployment.hosts["la"].bind(9, on_delivery)
    deployment.sim.call_every(0.005, emit)
    deployment.net.run(until=4.0)
    return len(sent), delivered


class TestCampaignReplay:
    def test_same_seed_drops_exactly_the_same_packets(self):
        count1, outcome1 = run_campaign(plan_seed=42)
        count2, outcome2 = run_campaign(plan_seed=42)
        assert count1 == count2
        assert outcome1 == outcome2
        # The burst actually bit: some packets were dropped.
        assert len(outcome1) < count1

    def test_different_seed_drops_different_packets(self):
        _, outcome1 = run_campaign(plan_seed=42)
        _, outcome2 = run_campaign(plan_seed=43)
        assert outcome1 != outcome2
