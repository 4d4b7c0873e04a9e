"""Flow-level traffic engine: demand, fluid congestion, load-aware splits.

The packet-level simulator (:mod:`repro.netsim`) is exact but caps
scenarios at thousands of packets; serving "heavy traffic from millions
of users" (ROADMAP north star) needs an aggregate model.  This package
adds one:

* :mod:`repro.traffic.demand` — seeded traffic-matrix and flow-arrival
  generators (heavy-tailed sizes, diurnal curves, surge windows).
* :mod:`repro.traffic.fluid` — the congestion model's closed forms
  (M/D/1 wait, overload loss), the per-step load snapshot and the
  per-class split resolver.
* :mod:`repro.traffic.vector` — the deterministic fixed-step fluid
  engine: aggregate offered load pushed through the Tango tunnels on
  array state, per-link utilization, queueing delay inflation and loss
  beyond capacity fed into the existing telemetry stores so every
  selector and quarantine policy works unchanged.
* :mod:`repro.traffic.splitting` — load-aware split weights and a
  weighted-split path selector.
* :mod:`repro.traffic.equivalence` — the fluid-vs-packet validation
  harness.

The E16/E19 gates are ``benchmarks/test_bench_traffic.py``; wall-clock
trajectories belong to ``python -m bench run``.
"""

from .demand import DemandModel, FlowClass, SurgeWindow, standard_flow_classes
from .fluid import SplitResolver, TunnelLoad, fluid_overload_loss, fluid_wait_s
from .splitting import LoadAwareWeights, SplitRebalancer, WeightedSplitSelector
from .vector import FluidRows, VectorFluidEngine

__all__ = [
    "DemandModel",
    "FlowClass",
    "SurgeWindow",
    "standard_flow_classes",
    "SplitResolver",
    "TunnelLoad",
    "fluid_wait_s",
    "fluid_overload_loss",
    "LoadAwareWeights",
    "SplitRebalancer",
    "WeightedSplitSelector",
    "FluidRows",
    "VectorFluidEngine",
]
