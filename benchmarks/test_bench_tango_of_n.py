"""E9 / Section 6 (future work) — from Tango of 2 to Tango of N.

Paper: "We envision Tango of two to be the building block of an open and
robust wide-area overlay composed of more networks and of more PoPs of
the same network.  Doing so will expose a larger path diversity to Tango
participants using RON-like techniques."

The benchmark establishes a live federation of N cooperating edges
(pairwise discovery over one shared provider/transit network, every
tunnel calibrated) and measures, per N: exposed route diversity per
pair, and best-route delay improvement over the pair's BGP default when
one relay hop is allowed.  The rows are ``tango_of_n_rows`` — the same
table E20's scaling section and ``tango-repro mesh`` report.
"""

from conftest import emit

from repro.analysis.report import format_table
from repro.federation.experiment import tango_of_n_rows

N_RANGE = (2, 3, 4, 5, 6)


def run_sweep():
    return tango_of_n_rows(N_RANGE, degraded_pair=False)


def test_tango_of_n_diversity(benchmark):
    rows = benchmark(run_sweep)
    emit(
        format_table(
            rows,
            title="E9 — path diversity and delay gain vs mesh size N",
        )
    )

    by_n = {row["n"]: row for row in rows}
    # N=2 is the paper's pairing: direct paths only, no relays.
    assert by_n[2]["mean_routes_per_pair"] == by_n[2]["mean_direct_routes"]
    # Diversity grows strictly with every added member...
    relayed = [by_n[n]["mean_routes_per_pair"] for n in N_RANGE]
    assert all(a < b for a, b in zip(relayed, relayed[1:]))
    # ...while direct diversity stays flat (it is a pair property).
    direct = [by_n[n]["mean_direct_routes"] for n in N_RANGE]
    assert max(direct) - min(direct) < 1e-9
    # And the extra routes are *useful*: mean best-delay gain grows.
    assert by_n[6]["mean_gain_ms"] > by_n[3]["mean_gain_ms"]
    assert by_n[6]["max_gain_ms"] > 1.0  # at least one pair gains > 1 ms
