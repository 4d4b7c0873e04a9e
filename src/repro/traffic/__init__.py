"""Flow-level traffic engine: demand, fluid congestion, load-aware splits.

The packet-level simulator (:mod:`repro.netsim`) is exact but caps
scenarios at thousands of packets; serving "heavy traffic from millions
of users" (ROADMAP north star) needs an aggregate model.  This package
adds one:

* :mod:`repro.traffic.demand` — seeded traffic-matrix and flow-arrival
  generators (heavy-tailed sizes, diurnal curves, surge windows).
* :mod:`repro.traffic.fluid` — a deterministic fixed-step fluid engine
  pushing aggregate offered load through the Tango tunnels, computing
  per-link utilization, queueing delay inflation, and loss beyond
  capacity, and feeding the results into the existing telemetry stores
  so every selector and quarantine policy works unchanged.
* :mod:`repro.traffic.splitting` — load-aware split weights and a
  weighted-split path selector.
* :mod:`repro.traffic.equivalence` — the fluid-vs-packet validation
  harness.
* :mod:`repro.traffic.vector` — the array step kernel and
  ``create_fluid_engine``, which picks a kernel from the tunnel count.

The E16/E19 gates are ``benchmarks/test_bench_traffic.py``; wall-clock
trajectories belong to ``python -m bench run``.
"""

from .demand import DemandModel, FlowClass, SurgeWindow, standard_flow_classes
from .fluid import (
    FluidEngine,
    SplitResolver,
    TunnelLoad,
    fluid_overload_loss,
    fluid_wait_s,
)
from .splitting import LoadAwareWeights, SplitRebalancer, WeightedSplitSelector
from .vector import FluidRows, VectorFluidEngine, create_fluid_engine

__all__ = [
    "DemandModel",
    "FlowClass",
    "SurgeWindow",
    "standard_flow_classes",
    "FluidEngine",
    "SplitResolver",
    "TunnelLoad",
    "fluid_wait_s",
    "fluid_overload_loss",
    "LoadAwareWeights",
    "SplitRebalancer",
    "WeightedSplitSelector",
    "FluidRows",
    "VectorFluidEngine",
    "create_fluid_engine",
]
