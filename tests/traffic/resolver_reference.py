"""The split resolver before its select path replayed cached choices.

:class:`ReferenceResolver` is the parent's
:class:`~repro.traffic.fluid.SplitResolver` verbatim: on the select path
it calls ``select`` for every resolution and caches only the items.
``tests/traffic/test_choice_token.py`` drives it in lockstep with the
product, which skips the select while a ``choice_token`` stands and
replays the cached choice to the selector instead.
"""

from repro.netsim.packet import Packet
from repro.traffic.demand import FlowClass


class ReferenceResolver:
    """The parent's ``SplitResolver``: the select path asks the selector
    every step."""

    __slots__ = (
        "sender",
        "tunnels",
        "_packets",
        "_cache",
        "splits_recomputed",
    )

    def __init__(
        self,
        sender: object,
        tunnels: list,
        packets: dict[int, Packet],
    ) -> None:
        self.sender = sender
        self.tunnels = tunnels
        self._packets = packets
        # flow_label -> (selector, raw key, sorted (path_id, fraction) items)
        self._cache: dict[
            int, tuple[object, object, tuple[tuple[int, float], ...]]
        ] = {}
        self.splits_recomputed = 0

    def resolve(
        self, cls: FlowClass, now: float
    ) -> tuple[tuple[int, float], ...]:
        """Sorted ``(path_id, fraction)`` items for one class at ``now``."""
        selector = self.sender.selector
        weights_fn = getattr(selector, "split_weights", None)
        if callable(weights_fn):
            token_fn = getattr(selector, "split_token", None)
            if token_fn is not None:
                token = token_fn(self.tunnels, now)
                if token is not None:
                    cached = self._cache.get(cls.flow_label)
                    if (
                        cached is not None
                        and cached[0] is selector
                        and (cached[1] is token or cached[1] == token)
                    ):
                        return cached[2]
            raw = [max(0.0, float(w)) for w in weights_fn(self.tunnels, now)]
            total = sum(raw)
            if total > 0:
                key: object = tuple(raw)
                if token_fn is not None:
                    key = token_fn(self.tunnels, now) or key
                cached = self._cache.get(cls.flow_label)
                if (
                    cached is not None
                    and cached[0] is selector
                    and cached[1] == key
                ):
                    return cached[2]
                items = tuple(
                    sorted(
                        (t.path_id, w / total)
                        for t, w in zip(self.tunnels, raw)
                    )
                )
                self._remember(cls.flow_label, selector, key, items)
                return items
        chosen = selector.select(self.tunnels, self._packets[cls.flow_label], now)
        key = ("select", chosen.path_id)
        cached = self._cache.get(cls.flow_label)
        if cached is not None and cached[0] is selector and cached[1] == key:
            return cached[2]
        items = ((chosen.path_id, 1.0),)
        self._remember(cls.flow_label, selector, key, items)
        return items

    def _remember(
        self,
        flow_label: int,
        selector: object,
        key: object,
        items: tuple[tuple[int, float], ...],
    ) -> None:
        self._cache[flow_label] = (selector, key, items)
        self.splits_recomputed += 1
