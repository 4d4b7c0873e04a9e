"""Multiple points of presence per edge (paper footnote 1 + Section 6).

The paper's footnote: "If Tango is implemented with more than one sending
or receiving switch, all senders and receivers must have a form of
relative clock synchronization to accurately compare measurements that go
through different ingress/egress points."

With one switch per edge, the unknown clock offset is a single constant
that cancels in relative comparisons.  With several PoPs, each switch
pair has its *own* constant, so a path measured through PoP A is not
directly comparable to one measured through PoP B — unless the relative
offsets between the local PoPs are known.

:class:`MultiPopStore` presents a single, comparable measurement view
across PoPs by normalizing every series to a reference PoP, given each
PoP's offset from it.
"""

from __future__ import annotations

from ..telemetry.store import MeasurementStore

__all__ = ["MultiPopStore"]


class MultiPopStore:
    """A cross-PoP measurement view normalized to a reference PoP.

    Measurements recorded at PoP ``p`` are shifted by ``-offset(p)``
    (the calibrated ``clock_p - clock_reference``), after which delays
    measured at *any* PoP are mutually comparable — restoring the
    single-switch property the paper's relative-comparison argument
    needs.
    """

    def __init__(self, reference_pop: str) -> None:
        self.reference_pop = reference_pop
        self._offsets: dict[str, float] = {reference_pop: 0.0}
        self.store = MeasurementStore()

    def set_offset(self, pop: str, offset_s: float) -> None:
        """Register ``clock_pop - clock_reference`` (from calibration)."""
        self._offsets[pop] = offset_s

    def offset(self, pop: str) -> float:
        try:
            return self._offsets[pop]
        except KeyError:
            raise KeyError(
                f"PoP {pop!r} not calibrated; have {sorted(self._offsets)}"
            ) from None

    def record(self, pop: str, path_id: int, t: float, measured_owd_s: float) -> None:
        """Record a measurement taken at ``pop``, normalized."""
        self.store.record(path_id, t, measured_owd_s - self.offset(pop))
