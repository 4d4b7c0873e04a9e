"""Announced link-model swaps are seen at the step they land.

A wide fluid step re-checks its rows' link models only when the
process-wide swap epoch (:func:`repro.netsim.links.swap_epoch`) has
moved.  These runs hold the product in lockstep with
:class:`tests.traffic.scan_reference.ScanningRows`, which checks every
row on every step, under random :func:`~repro.netsim.links.replace_models`
swaps — loss overrides (blackhole, flap, burst), delay overlays, and a
delay switching between constant and plain Gaussian jitter — at random
instants on and between steps: every step's arrays and every written
byte must be equal.  A third simulation stepped in between, whose links
nobody swaps, rescans on the others' swaps and must write exactly what
it writes alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.delaymodels import (
    AsymmetryEvent,
    ConstantDelay,
    GaussianJitterDelay,
    overlay,
)
from repro.netsim.events import Simulator
from repro.netsim.links import ConstantLoss, OverrideLoss, replace_models
from repro.traffic.demand import DemandModel, standard_flow_classes
from repro.traffic.vector import VectorFluidEngine
from tests.traffic.scan_reference import scanning_engine
from tests.traffic.standin import SyntheticDeployment

STEP_S = 0.1
STEPS = 30
KINDS = ("blackhole", "flap", "burst", "overlay", "constant", "jitter")


def build(width, engine=VectorFluidEngine, seed=42):
    """A ``width``-tunnel stand-in pair driven near capacity (a surge
    overloads it): every other link jittered and lossy."""
    deployment = SyntheticDeployment(Simulator(), width, capacity_bps=0.9e9 / width)
    for tunnel in deployment.tunnels("a")[1::2]:
        replace_models(
            deployment.wan_link("a", tunnel.short_label),
            delay=GaussianJitterDelay(0.03, 2e-4, seed=tunnel.path_id),
            loss=ConstantLoss(0.01),
        )
    demand = DemandModel(classes=standard_flow_classes(50_000.0), seed=seed)
    demand.add_surge(1.0, 2.0, 2.5)
    fluid = engine(
        deployment,
        "a",
        demand,
        step_s=STEP_S,
        default_capacity_bps=deployment.capacity_bps,
    )
    fluid.start()
    return deployment, fluid


def swap(link, kind, start, seed):
    """One announced swap on ``link`` whose effect begins at ``start``."""
    if kind == "blackhole":
        replace_models(
            link, loss=OverrideLoss.blackhole(link.loss, start, start + 0.35)
        )
    elif kind == "flap":
        replace_models(
            link,
            loss=OverrideLoss.flapping(link.loss, start, start + 1.0, period=0.3),
        )
    elif kind == "burst":
        replace_models(
            link,
            loss=OverrideLoss.burst(link.loss, start, start + 0.5, 0.3, seed=seed),
        )
    elif kind == "overlay":
        event = AsymmetryEvent(start=start, duration=0.4, shift=0.01)
        replace_models(link, delay=overlay(link.delay, event))
    elif kind == "constant":
        replace_models(link, delay=ConstantDelay(0.025 + 1e-4 * seed))
    else:
        replace_models(link, delay=GaussianJitterDelay(0.03, 3e-4, seed=seed))


def written(fluid):
    """Everything ``fluid`` wrote: receiver series bytes and sender ledgers."""
    store = fluid.receiver.inbound
    series = {
        pid: (store.series(pid).times.tobytes(), store.series(pid).values.tobytes())
        for pid in store.path_ids()
    }
    return series, fluid.sender.tracker.all_paths()


def step_bytes(fluid):
    return [a.tobytes() for a in fluid._rows._step_arrays]


@st.composite
def programs(draw):
    width = draw(st.integers(1, 64))
    swaps = draw(
        st.lists(
            st.tuples(
                st.integers(1, STEPS - 2),  # step the swap lands at or after
                st.booleans(),  # on the step instant, or half a step later
                st.integers(0, width - 1),  # row
                st.sampled_from(KINDS),
                st.sampled_from((0.0, 0.05, 0.3)),  # effect delay
            ),
            max_size=10,
        )
    )
    bystander = draw(st.integers(1, 64))
    return width, swaps, bystander


@settings(derandomize=True, max_examples=60, deadline=None)
@given(programs())
def test_product_and_scanning_reference_stay_in_lockstep(program):
    width, swaps, bystander_width = program
    runs = [build(width), build(width, engine=scanning_engine)]
    bystander = build(bystander_width, seed=7)
    for k, (step, on_instant, row, kind, delay) in enumerate(swaps):
        at = (step + (0.0 if on_instant else 0.5)) * STEP_S
        for deployment, _ in runs:
            link = deployment.wan_link("a", f"p{row}")
            args = (link, kind, at + delay, k)
            deployment.sim.schedule_at(at, lambda args=args: swap(*args))
    for i in range(STEPS):
        until = (i + 1) * STEP_S + STEP_S / 4
        for deployment, _ in (*runs, bystander):
            deployment.sim.run(until=until)
        (_, product), (_, reference) = runs
        assert product.steps == reference.steps == i + 1
        assert step_bytes(product) == step_bytes(reference)
    assert written(runs[0][1]) == written(runs[1][1])

    alone, fluid = build(bystander_width, seed=7)
    alone.sim.run(until=STEPS * STEP_S + STEP_S / 4)
    assert fluid.steps == bystander[1].steps == STEPS
    assert written(fluid) == written(bystander[1])
