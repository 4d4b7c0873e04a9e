"""The status quo: single BGP best path, no measurement, no control.

What the paper's Figure 1 edge networks are stuck with: BGP picks one
path per prefix by policy (not performance), and the edge rides it
through route changes and instability alike.  Every experiment's
comparison anchor.
"""

from __future__ import annotations

from ..analysis.replay import PolicyReplay, ReplayResult
from ..core.policy import StaticSelector

__all__ = ["BgpDefaultBaseline"]


class BgpDefaultBaseline:
    """Always the provider-preferred path (discovery index 0)."""

    name = "bgp-default"

    def run(self, replay: PolicyReplay, t0: float, t1: float) -> ReplayResult:
        """Score the default path over [t0, t1)."""
        return replay.run(StaticSelector(0), t0, t1, name=self.name)
