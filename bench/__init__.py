"""The bench spine: end-to-end workloads, one schema, a per-layer budget.

``python -m bench run`` measures four end-to-end workloads of the Tango
reproduction (host seconds to get simulated answers) with tracing off,
and one extra traced repetition per workload gives the per-layer time
budget and work counts.  ``python -m bench compare A.json B.json``
judges two result files against the bounds in ``BENCHMARK.json``.

The harness drives the simulator only through layer public APIs and
builds its own plans and stand-ins here, so it survives the deletions
ROADMAP schedules for the older bench modules.  See ``README.md``.
"""
