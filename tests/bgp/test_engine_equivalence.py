"""Engine-equivalence suite: the product's work queue vs the full-scan oracle.

The dirty-set work queue behind ``BgpNetwork.converge`` is an
optimization, not a semantics change: under Gao–Rexford policies with
deterministic tie-breaks the network has a unique fixpoint, so it must
land on bit-exact the state the full scan it replaced lands on, for any
sequence of operations.  The full scan is :mod:`tests.bgp.oracle`
(``"rounds"`` below); this suite drives every shipped scenario (Vultr,
enterprise, a live federation) through representative workloads under
each and compares:

* full RIB contents (adj-rib-in, loc-rib, adj-rib-out, originations),
* discovery results (the ``paths`` tuples — wave counts legitimately
  differ between the two),
* fault-replay recovery logs (byte-identical ``RecoveryLog.format()``),
* the work each does (E15): exact ``routers_scanned`` / ``decisions_run``
  / ``updates_delivered`` pins, host-independent, in place of the
  wall-clock ratio the two used to be raced for.
"""

import pytest

from repro.bgp.network import BgpNetwork
from repro.bgp.snapshot import SnapshotCache
from repro.cli import main
from repro.core.discovery import PathDiscovery
from repro.faults import FaultEvent, FaultPlan
from repro.federation import FederationRegistry
from repro.scenarios.enterprise import (
    BUSINESS_ISP_ASN,
    build_enterprise_bgp,
)
from repro.scenarios.topologies import build_live_federation
from repro.scenarios.vultr import VULTR_ASN, build_bgp_network
from tests.bgp.oracle import ENGINES, full_scan
from tests.bgp.test_golden_ribs import vultr_resets
from tests.faults.shapes import vultr_shape


def rib_dump(net: BgpNetwork) -> dict:
    """Canonical, comparable image of every routing table in the network."""
    dump = {}
    for name in sorted(net.routers):
        router = net.routers[name]
        dump[name] = {
            "adj_rib_in": router.adj_rib_in.snapshot(),
            "loc_rib": router.loc_rib.snapshot(),
            "adj_rib_out": router.adj_rib_out.snapshot(),
            "originated": dict(router.originated),
        }
    return dump


def run_vultr_workload() -> tuple[dict, list]:
    """Originations, discovery both ways, a session bounce, a withdrawal."""
    net = build_bgp_network()
    paths = []
    net.router("tango-la").originate("2001:db8:a0::/48")
    net.router("tango-ny").originate("2001:db8:b0::/48")
    net.converge()
    discovery = PathDiscovery(net, VULTR_ASN)
    for announcer, observer in (("tango-ny", "tango-la"), ("tango-la", "tango-ny")):
        result = discovery.discover(
            announcer=announcer,
            observer=observer,
            probe_prefix="2001:db8:fff::/48",
        )
        paths.append(result.paths)
    net.reset_session("vultr-ny", "ntt")
    net.router("tango-la").withdraw_origination("2001:db8:a0::/48")
    net.converge()
    return rib_dump(net), paths


def run_enterprise_workload() -> tuple[dict, list]:
    net = build_enterprise_bgp()
    net.router("tango-factory").originate("2001:db8:e100::/48")
    net.router("tango-hq").originate("2001:db8:e200::/48")
    net.converge()
    discovery = PathDiscovery(net, BUSINESS_ISP_ASN)
    result = discovery.discover(
        announcer="tango-hq",
        observer="tango-factory",
        probe_prefix="2001:db8:efff::/48",
    )
    net.reset_session("business-isp", "ntt")
    return rib_dump(net), [result.paths]


def run_mesh_workload() -> tuple[dict, list]:
    """A three-member federation establishes every pair (all-pairs
    discovery, pins) over one shared network; rerun one extra pair on
    top of the (deterministic) established state."""
    scenario = build_live_federation(3, seed=7, degraded_pair=False)
    FederationRegistry(scenario).establish()
    net = scenario.bgp
    discovery = PathDiscovery(net, 64901)
    result = discovery.discover(
        announcer="edge1",
        observer="edge0",
        probe_prefix="2001:db8:feed::/48",
    )
    return rib_dump(net), [result.paths]


WORKLOADS = {
    "vultr": run_vultr_workload,
    "enterprise": run_enterprise_workload,
    "mesh": run_mesh_workload,
}




@pytest.mark.parametrize("scenario", sorted(WORKLOADS))
def test_engines_agree_on_all_ribs_and_paths(scenario):
    workload = WORKLOADS[scenario]
    with full_scan():
        rounds_ribs, rounds_paths = workload()
    incr_ribs, incr_paths = workload()
    assert rounds_paths == incr_paths
    assert rounds_ribs == incr_ribs


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_reaches_same_fixpoint_as_fresh_converge(engine):
    """Idempotence: converging a converged network changes nothing and
    reports exactly one (verification) wave under either engine."""
    with ENGINES[engine]():
        net = build_bgp_network()
        net.router("tango-la").originate("2001:db8:a0::/48")
        net.converge()
        before = rib_dump(net)
        assert net.converge() == 1
        assert rib_dump(net) == before


def test_engine_argument_is_gone():
    """One propagation path: nothing to select, nothing to switch."""
    with pytest.raises(TypeError, match="engine"):
        BgpNetwork(engine="rounds")
    assert not hasattr(BgpNetwork(), "use_engine")


# -- E15: the work each engine does, counted ----------------------------------


def work_counts(net: BgpNetwork) -> dict:
    return {
        "routers_scanned": net.routers_scanned,
        "decisions_run": sum(r.decisions_run for r in net.routers.values()),
        "updates_delivered": net.updates_delivered,
        "convergences": net.convergence_count,
        "snapshot_restores": net.snapshot_restores,
    }


def rediscovery_cycle(snapshots) -> dict:
    """Both directions of the Section 4.1 discovery, three times over."""
    net = build_bgp_network()
    discovery = PathDiscovery(net, VULTR_ASN, snapshots=snapshots)
    for _ in range(3):
        for announcer, observer in (
            ("tango-ny", "tango-la"),
            ("tango-la", "tango-ny"),
        ):
            discovery.discover(
                announcer=announcer,
                observer=observer,
                probe_prefix="2001:db8:fff::/48",
            )
    return work_counts(net)


def test_rediscovery_cycle_work_counts():
    """What used to be "discovery >= 3x wall-clock over the full scan":
    the shipped configuration (work queue + snapshot cache) scans under
    a third of the routers the full scan without a cache does — 10.4x —
    and both totals are pinned, so a regression on either side shows."""
    product = rediscovery_cycle(SnapshotCache())
    with full_scan():
        oracle = rediscovery_cycle(None)
    assert product == {
        "routers_scanned": 114,
        "decisions_run": 123,
        "updates_delivered": 90,
        "convergences": 11,
        "snapshot_restores": 25,
    }
    assert oracle == {
        "routers_scanned": 1188,
        "decisions_run": 393,
        "updates_delivered": 291,
        "convergences": 36,
        "snapshot_restores": 0,
    }
    assert 3 * product["routers_scanned"] <= oracle["routers_scanned"]


def test_session_reset_work_counts():
    """Five bounces of the busiest transit session: the same decisions
    and the same updates either way, a third of the routers visited."""
    product = work_counts(vultr_resets())
    with full_scan():
        oracle = work_counts(vultr_resets())
    assert product["routers_scanned"] == 111
    assert oracle["routers_scanned"] == 351
    assert product["decisions_run"] == oracle["decisions_run"] == 110
    assert product["updates_delivered"] == oracle["updates_delivered"] == 85


# -- E15: fault replay ---------------------------------------------------------


def bench_fault_plan() -> FaultPlan:
    """A BGP-heavy plan: two session flaps plus a prefix withdrawal."""
    return FaultPlan(
        name="bench-bgp-replay",
        seed=11,
        events=(
            FaultEvent(
                "bgp_session_down",
                at=1.0,
                duration=1.0,
                params={"a": "vultr-ny", "b": "ntt"},
            ),
            FaultEvent(
                "prefix_withdraw",
                at=3.5,
                duration=1.0,
                params={"edge": "ny", "prefix_index": 0},
            ),
            FaultEvent(
                "bgp_session_down",
                at=6.0,
                duration=1.0,
                params={"a": "vultr-la", "b": "telia"},
            ),
        ),
    )


def test_bench_fault_plan_targets_exist_in_vultr():
    assert bench_fault_plan().check(vultr_shape()) == []


def fault_replay(tmp_path) -> str:
    """The bench plan through ``tango-repro faults run``: a fresh Vultr
    deployment with probes, 20 ms data both ways and quarantine
    controllers; returns the recovery log."""
    plan = bench_fault_plan()
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json(), encoding="utf-8")
    out = tmp_path / "log.txt"
    argv = ["faults", "run", "--plan", str(plan_file), "--out", str(out)]
    assert main([*argv, "--duration", str(plan.horizon + 2.0)]) == 0
    return out.read_text(encoding="utf-8")


def test_fault_replay_recovery_logs_identical(monkeypatch, tmp_path):
    """Byte-identical recovery logs between the shipped configuration
    and the full scan with every snapshot cache bypassed — the pre-PR 4
    control plane."""
    product_log = fault_replay(tmp_path)
    monkeypatch.setattr(
        SnapshotCache,
        "converge",
        lambda self, network, max_rounds=200: network.converge(max_rounds),
    )
    with full_scan():
        oracle_log = fault_replay(tmp_path)
    assert product_log.count("\n") > 3
    assert oracle_log == product_log
