"""What a process pays for is what it runs: scipy at the first normal draw.

The delay models' one use of scipy is ``ndtri``, the normal inverse CDF.
It is imported by the first normal draw, not by ``import``, so a process
that builds and establishes a federation — BGP convergence and path
discovery, no delay draw — never loads scipy.  Each check runs in a fresh
interpreter, since the suite's own process has drawn long before.
"""

import json
import os
import subprocess
import sys

import pytest

from tests.test_reachability import REPO

#: ``u`` at the two clip edges, at ``exp(-2)`` from either end, and 0.5.
EDGE_US = "[1e-12, 1.0 - 1e-12, math.exp(-2.0), 1.0 - math.exp(-2.0), 0.5]"


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_establishing_a_federation_never_imports_scipy():
    out = fresh(
        """
import json, sys
import repro.cli, repro.federation, repro.scenarios.topologies
from repro.federation import FederationRegistry
from repro.scenarios.topologies import build_live_federation
registry = FederationRegistry(build_live_federation(4, seed=42))
registry.establish()
print(json.dumps({
    "sessions": len(registry.sessions),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""
    )
    assert out == {"sessions": 6, "scipy": []}


#: Each entry point's first draw, fed ``us`` by replacing the uniform it
#: would hash, as a list of floats; then scipy's own values for them.
FIRST_DRAWS = {
    "deterministic_normal": """
delaymodels.deterministic_uniform = lambda seed, times: np.array(us)
drawn = delaymodels.deterministic_normal(7, np.zeros(len(us))).tolist()
from scipy.special import ndtri as scipy_ndtri
expected = scipy_ndtri(np.array(us)).tolist()
""",
    "normal_grid": """
delaymodels._unit_interval = lambda mixed: np.array(us)[:, None]
seeds = delaymodels.hash_seeds([7])
drawn = delaymodels.normal_grid(seeds, np.zeros(len(us)))[:, 0].tolist()
from scipy.special import ndtri as scipy_ndtri
expected = scipy_ndtri(np.array(us)).tolist()
""",
    "normal_at": """
drawn = []
for u in us:
    delaymodels.uniform_at = lambda seed, t, u=u: u
    drawn.append(delaymodels.normal_at(7, 0.0))
from scipy.special import ndtri as scipy_ndtri
expected = [float(scipy_ndtri(u)) for u in us]
""",
    "GaussianJitterDelay.delay_at": """
model = delaymodels.GaussianJitterDelay(base=100.0, sigma=1.25, seed=7)
drawn = []
for k, u in enumerate(us):
    delaymodels._uniform_hashed = lambda hashed, index, u=u: u
    drawn.append(model.delay_at(k * 1e-3))  # a new grid index each time
from scipy.special import ndtri as scipy_ndtri
expected = [100.0 + float(scipy_ndtri(u)) * 1.25 for u in us]
""",
}


@pytest.mark.parametrize("entry", sorted(FIRST_DRAWS))
def test_the_first_draw_is_scipys_ndtri_bit_for_bit(entry):
    out = fresh(
        f"""
import json, math, sys
import numpy as np
from repro.netsim import delaymodels
us = {EDGE_US}
loaded_before = "scipy" in sys.modules
first = delaymodels.ndtri
{FIRST_DRAWS[entry]}
print(json.dumps({{
    "loaded_before": loaded_before,
    "bound_before": first is scipy_ndtri,
    "bound_after": delaymodels.ndtri is scipy_ndtri,
    "drawn": [x.hex() for x in drawn],
    "expected": [x.hex() for x in expected],
}}))
"""
    )
    assert not out["loaded_before"] and not out["bound_before"]
    assert out["bound_after"]
    assert len(out["drawn"]) == 5
    assert out["drawn"] == out["expected"]


@pytest.mark.parametrize("scipy_first", [True, False], ids=["bound", "unbound"])
def test_a_counting_wrapper_counts_every_draw_either_way(scipy_first):
    """The packet-path row (1,794 ``ndtri`` calls over the live window)
    holds whether the wrapper replaced scipy's ufunc or the first-draw
    binder — which must then leave the wrapper in place."""
    out = fresh(
        f"""
import json, sys
from repro.core.policy import LowestDelaySelector
from repro.netsim import delaymodels
from tests.netsim.test_packet_path_counts import (
    UNTIL_S, WARM_UP_S, probing_deployment,
)
scipy_first = {scipy_first}
calls = [0]

def wrap():
    original = delaymodels.ndtri

    def counting(u):
        calls[0] += 1
        return original(u)

    delaymodels.ndtri = counting
    return original

deployment = probing_deployment()
deployment.set_data_policy(
    "ny", LowestDelaySelector(deployment.gateway("ny").outbound, window_s=1.0)
)
if not scipy_first:
    loaded = "scipy" in sys.modules
    wrapped = wrap()
deployment.net.run(until=WARM_UP_S)
if scipy_first:
    loaded = "scipy" in sys.modules
    wrapped = wrap()
before = calls[0]
deployment.net.run(until=UNTIL_S)
print(json.dumps({{
    "loaded": loaded,
    "wrapped_binder": wrapped is delaymodels._first_ndtri,
    "still_wrapped": delaymodels.ndtri.__name__ == "counting",
    "live_calls": calls[0] - before,
}}))
"""
    )
    assert out["loaded"] is scipy_first
    assert out["wrapped_binder"] is not scipy_first
    assert out["still_wrapped"]
    assert out["live_calls"] == 1794
