"""From Tango of 2 to Tango of N — a *live* federation.

Every row comes from a running federation: N gateways over one shared
BGP network, every pairwise session established through one shared
convergence cache (``repro.federation.FederationRegistry``), and the
diversity/delay-gain analytics projected from the *established
tunnels'* calibrated delays.  The rows are
``repro.federation.experiment.tango_of_n_rows``, the same table E9,
E20's scaling section and ``tango-repro mesh`` report.  The shared-cache
hit rate is printed per row — the dedup that lets one process establish
dozens of pairs.

Run:
    python examples/tango_of_n.py
"""

from repro.analysis.report import format_table
from repro.federation import FederationRegistry
from repro.federation.experiment import tango_of_n_rows
from repro.scenarios.topologies import build_live_federation


def main() -> None:
    rows = tango_of_n_rows((2, 3, 4, 5, 6), degraded_pair=False)
    print(format_table(rows, title="Tango of N — diversity and delay gains"))

    registry = FederationRegistry(build_live_federation(5, degraded_pair=False))
    registry.establish()
    print("\nexample composite routes, edge0->edge3 (best first):")
    for route in registry.analytical_mesh().routes("edge0", "edge3")[:5]:
        relays = ",".join(route.relays) or "direct"
        print(
            f"  {route.total_delay_s * 1e3:7.3f} ms  via {relays:10s}  {route.label}"
        )
    registry.stop()
    print(
        "\nEach member added multiplies usable route combinations; the"
        "\npairwise Tango session is the building block, and the shared"
        "\nsnapshot cache keeps N-site establishment affordable."
    )


if __name__ == "__main__":
    main()
