"""Golden RIB dumps: control-plane optimisations must not move a route.

The sha256 digests under ``golden/`` were captured on the commit *before*
the prefix-indexed RIBs landed.  Each case dumps every router's
Adj-RIB-In / Loc-RIB / Adj-RIB-Out as canonical text through the RIBs'
public query surface only (so the dump does not depend on how a RIB
stores its rows) plus the network's delivery and decision counters — a
route heard from one more neighbor, an update delivered once more or a
decision run once less shows up here.  Both propagation engines were
frozen while both were in the product; the ``*/rounds`` digests are now
reproduced by the test-side full scan (:mod:`tests.bgp.oracle`), which
is what proves the oracle is the engine the product used to carry.

Regenerate (only when a change is *meant* to alter the control plane)::

    PYTHONPATH=src:. python tests/bgp/test_golden_ribs.py
"""

from pathlib import Path

import pytest

from repro.bgp.attributes import RouteAttributes
from repro.bgp.network import BgpNetwork
from repro.federation import FederationRegistry
from repro.scenarios.topologies import build_live_federation
from repro.scenarios.vultr import VultrDeployment, build_bgp_network
from tests import golden
from tests.bgp.oracle import ENGINES

GOLDEN = Path(__file__).parent / "golden" / "rib_dumps.json"


def _attrs(attrs: RouteAttributes) -> str:
    communities = ",".join(sorted(str(c) for c in attrs.communities))
    large = ",".join(sorted(str(c) for c in attrs.large_communities))
    return (
        f"[{attrs.as_path}] origin={int(attrs.origin)} lp={attrs.local_pref} "
        f"med={attrs.med} c={communities} lc={large}"
    )


def dump_network(net: BgpNetwork) -> str:
    """Every routing table and work counter of ``net``, one line each."""
    lines = []
    for name in sorted(net.routers):
        router = net.routers[name]
        lines.append(f"router {name} AS{router.asn}")
        for prefix in sorted(router.originated, key=str):
            lines.append(f"  orig {prefix} {_attrs(router.originated[prefix])}")
        for prefix in sorted(router.adj_rib_in.prefixes(), key=str):
            for entry in router.adj_rib_in.candidates(prefix):
                lines.append(
                    f"  in {prefix} from {entry.neighbor} "
                    f"{entry.relationship.name} {_attrs(entry.attributes)}"
                )
        for prefix, entry in sorted(
            router.loc_rib.snapshot().items(), key=lambda kv: str(kv[0])
        ):
            lines.append(
                f"  loc {prefix} via {entry.neighbor} {_attrs(entry.attributes)}"
            )
        for neighbor in sorted(router.neighbors):
            for prefix in sorted(router.adj_rib_out.prefixes_to(neighbor), key=str):
                sent = router.adj_rib_out.last_sent(neighbor, prefix)
                lines.append(f"  out {neighbor} {prefix} {_attrs(sent.attributes)}")
    lines.append(f"updates_delivered {net.updates_delivered}")
    lines.append(f"withdrawals_delivered {net.withdrawals_delivered}")
    lines.append(f"total_rounds {net.total_rounds}")
    lines.append(f"routers_scanned {net.routers_scanned}")
    decisions = sum(r.decisions_run for r in net.routers.values())
    lines.append(f"decisions_run {decisions}")
    return "\n".join(lines) + "\n"


def vultr_establish() -> BgpNetwork:
    deployment = VultrDeployment()
    deployment.establish()
    return deployment.bgp


def vultr_resets() -> BgpNetwork:
    net = build_bgp_network()
    net.router("tango-la").originate("2001:db8:a0::/48")
    net.router("tango-ny").originate("2001:db8:b0::/48")
    net.converge()
    for _ in range(5):
        net.reset_session("vultr-ny", "ntt")
    return net


def federation_8_stitched() -> BgpNetwork:
    scenario = build_live_federation(8, seed=42)
    registry = FederationRegistry(scenario)
    registry.establish()
    registry.stitch_pair(*scenario.degraded_pair)
    return scenario.bgp


def federation_12() -> BgpNetwork:
    scenario = build_live_federation(12, seed=42)
    FederationRegistry(scenario).establish()
    return scenario.bgp


CASES = {
    "vultr_establish": vultr_establish,
    "vultr_reset_x5": vultr_resets,
    "federation_8_stitched": federation_8_stitched,
    "federation_12": federation_12,
}
KEYS = [f"{case}/{engine}" for case in sorted(CASES) for engine in ENGINES]


def digest(key: str) -> dict:
    case, engine = key.split("/")
    with ENGINES[engine]():
        return golden.digest(dump_network(CASES[case]()))


@pytest.mark.parametrize("key", KEYS)
def test_rib_dump_is_byte_identical_to_golden(key):
    assert digest(key) == golden.load(GOLDEN)[key]


if __name__ == "__main__":
    golden.regenerate(GOLDEN, {key: digest(key) for key in KEYS})
