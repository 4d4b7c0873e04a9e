"""ECMP reverse engineering (paper Section 6's other knob).

Beyond BGP-visible path diversity, backbone ECMP hides *additional*
parallel paths under each route.  They cannot be selected directly — the
hash is opaque — but they can be reverse-engineered: probe with many
source ports, cluster the resulting delays, and learn which ports land
on which physical sub-path.  Thereafter, picking a source port picks a
sub-path, and Tango's tunnel table can expose each cluster as an extra
tunnel (same outer prefix, different sport).

:class:`EcmpMapper` does the learning: feed it (sport, measured delay)
pairs; :meth:`build_map` 1-D-clusters the per-port mean delays (split at
gaps larger than ``cluster_gap_s``) and returns per-cluster statistics
with a representative port each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..validate import int_in, positive

__all__ = ["EcmpCluster", "EcmpMap", "EcmpMapper"]


@dataclass(frozen=True)
class EcmpCluster:
    """One inferred physical sub-path."""

    cluster_id: int
    mean_delay_s: float
    ports: tuple[int, ...]

    @property
    def representative_port(self) -> int:
        """A port known to hash onto this sub-path (the lowest)."""
        return self.ports[0]


@dataclass(frozen=True)
class EcmpMap:
    """The learned port → sub-path mapping."""

    clusters: tuple[EcmpCluster, ...]

    @property
    def sub_path_count(self) -> int:
        return len(self.clusters)

    @property
    def fastest(self) -> EcmpCluster:
        """The lowest-delay sub-path (clusters are sorted by delay)."""
        return self.clusters[0]

    def port_for_fastest(self) -> int:
        """A source port that pins traffic to the fastest sub-path."""
        return self.fastest.representative_port


class EcmpMapper:
    """Accumulates per-port delay observations and clusters them.

    Args:
        cluster_gap_s: two ports belong to different sub-paths when
            their mean delays differ by more than this.  Set it above
            the per-path jitter and below the smallest sub-path delay
            difference you care to distinguish (1 ms default suits
            backbone-scale disparities).
        min_samples_per_port: ports with fewer observations are ignored
            by :meth:`build_map` (noise guard).
    """

    def __init__(
        self, cluster_gap_s: float = 1e-3, min_samples_per_port: int = 1
    ) -> None:
        positive("cluster_gap_s", cluster_gap_s)
        int_in(1)("min_samples_per_port", min_samples_per_port)
        self.cluster_gap_s = cluster_gap_s
        self.min_samples_per_port = min_samples_per_port
        self._observations: dict[int, list[float]] = {}

    def observe(self, sport: int, delay_s: float) -> None:
        """Record one probe's measured delay for its source port."""
        self._observations.setdefault(sport, []).append(delay_s)

    def build_map(self) -> EcmpMap:
        """Cluster the per-port means into sub-paths.

        Raises:
            ValueError: if no port has enough samples.
        """
        means = {
            port: float(np.mean(samples))
            for port, samples in self._observations.items()
            if len(samples) >= self.min_samples_per_port
        }
        if not means:
            raise ValueError("no port has enough samples to map")
        ordered = sorted(means.items(), key=lambda item: item[1])
        groups: list[list[tuple[int, float]]] = [[ordered[0]]]
        for port, mean in ordered[1:]:
            if mean - groups[-1][-1][1] > self.cluster_gap_s:
                groups.append([])
            groups[-1].append((port, mean))
        clusters = tuple(
            EcmpCluster(
                cluster_id=index,
                mean_delay_s=float(np.mean([m for _, m in group])),
                ports=tuple(sorted(p for p, _ in group)),
            )
            for index, group in enumerate(groups)
        )
        return EcmpMap(clusters=clusters)
