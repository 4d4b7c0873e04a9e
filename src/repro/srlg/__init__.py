"""Shared-risk link groups: correlated-failure domains for Tango paths.

Tango's value proposition is steering across *disjoint* edge-to-edge
paths, but AS-level disjointness says nothing about the physical layer:
two transit providers can ride the same conduit out of a metro, share a
landing station, or sit in the same regional power grid.  When that
shared fate fails, it takes every "disjoint" tunnel down at once — the
dominant real-world multipath failure mode.

This package models those failure domains explicitly:

* :class:`SrlgRegistry` — names risk groups, maps links/routers into
  them, tracks the live up/draining/down state of each group
  (refcounted, so overlapping fault windows compose), and groups
  routers+groups into named :class:`Region` blast radii.
* :mod:`~repro.srlg.diversity` — SRLG-aware scoring over tunnel sets:
  pairwise :func:`shared_risk`, deterministic
  :func:`max_disjoint_backup` selection, and the
  :class:`FateAwareSelector` data-plane wrapper that refuses to place
  traffic on tunnels whose risk group is down or draining.
* :mod:`~repro.srlg.frr` — :class:`FastReroute`: precomputes a
  max-SRLG-disjoint backup per primary and installs it
  make-before-break (pin first, drain later) the moment a group goes
  down or starts draining.

Everything degrades to a no-op when no tags exist: untagged scenarios
keep today's behaviour bit-for-bit.
"""

from .diversity import (
    FateAwareSelector,
    max_disjoint_backup,
    shared_risk,
)
from .frr import FastReroute, FrrEvent
from .registry import Region, SrlgRegistry

__all__ = [
    "SrlgRegistry",
    "Region",
    "shared_risk",
    "max_disjoint_backup",
    "FateAwareSelector",
    "FastReroute",
    "FrrEvent",
]
