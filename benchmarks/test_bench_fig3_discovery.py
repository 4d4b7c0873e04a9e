"""E1 / Figure 3 — path discovery between the Vultr DCs.

Paper: "we found that the LA and the NY DCs are connected by at least
four paths in each direction ... Traffic from LA to NY can be routed
through (in order of preference by Vultr's routers): (i) NTT; (ii) Telia;
(iii) GTT; and (iv) NTT and Cogent ... Traffic from NY to LA can be
routed through: (i) NTT; (ii) Telia; (iii) GTT; and (iv) Level3."

The benchmark reruns the iterative suppression algorithm on the modeled
control plane and regenerates the figure's path/community table; the
timed section is one full bidirectional discovery.
"""

from conftest import emit

from repro.analysis.report import format_table
from repro.core.discovery import PathDiscovery
from repro.scenarios.vultr import VULTR_ASN, build_bgp_network

PAPER_LA_TO_NY = ["NTT", "Telia", "GTT", "Cogent"]
PAPER_NY_TO_LA = ["NTT", "Telia", "GTT", "Level3"]


def run_discovery():
    bgp = build_bgp_network()
    discovery = PathDiscovery(bgp, VULTR_ASN)
    la_to_ny = discovery.discover(
        announcer="tango-ny", observer="tango-la", probe_prefix="2001:db8:f1::/48"
    )
    ny_to_la = discovery.discover(
        announcer="tango-la", observer="tango-ny", probe_prefix="2001:db8:f2::/48"
    )
    return la_to_ny, ny_to_la


def test_fig3_path_discovery(benchmark):
    la_to_ny, ny_to_la = benchmark(run_discovery)

    rows = []
    for direction, result, paper in (
        ("LA->NY", la_to_ny, PAPER_LA_TO_NY),
        ("NY->LA", ny_to_la, PAPER_NY_TO_LA),
    ):
        for path, expected in zip(result.paths, paper):
            rows.append(
                {
                    "direction": direction,
                    "rank": path.index + 1,
                    "paper": expected,
                    "measured": path.short_label,
                    "as_path": path.label,
                    "communities": len(path.communities),
                }
            )
    emit(format_table(rows, title="Fig. 3 — discovered paths per direction"))

    assert [p.short_label for p in la_to_ny.paths] == PAPER_LA_TO_NY
    assert [p.short_label for p in ny_to_la.paths] == PAPER_NY_TO_LA
    # "at least four paths in each direction", then unreachable.
    assert la_to_ny.path_count == 4
    assert ny_to_la.path_count == 4
    # Community sets grow by one per rank: the recorded recipe.
    for result in (la_to_ny, ny_to_la):
        assert [len(p.communities) for p in result.paths] == [0, 1, 2, 3]

    # Section 6's alternative knob: AS-path poisoning needs no provider
    # support but kills the poisoned transit everywhere in the topology,
    # so the fourth path (it re-traverses NTT) is lost.
    poisoning = PathDiscovery(build_bgp_network(), VULTR_ASN).discover(
        announcer="tango-la",
        observer="tango-ny",
        probe_prefix="2001:db8:f2::/48",
        method="poisoning",
    )
    emit(
        f"E1 NY->LA by suppression method: communities {ny_to_la.path_count} "
        f"paths ({', '.join(p.short_label for p in ny_to_la.paths)}), "
        f"poisoning {poisoning.path_count} "
        f"({', '.join(p.short_label for p in poisoning.paths)})"
    )
    assert poisoning.path_count < ny_to_la.path_count
