"""BGP path attributes.

Only the attributes the Tango control plane actually exercises are modeled,
but they are modeled with real BGP semantics: AS paths with prepending and
loop detection, standard and large communities (Vultr's traffic-control
knobs are large communities of the form ``20473:6000:<asn>``), origin
codes, LOCAL_PREF, and MED.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..frozen import slot_init
from ..validate import check_fields, int_in

__all__ = [
    "Origin",
    "AsPath",
    "Community",
    "LargeCommunity",
    "RouteAttributes",
    "is_private_asn",
]

#: RFC 6996 private ASN range (16-bit block).
_PRIVATE_ASN_MIN = 64512
_PRIVATE_ASN_MAX = 65534


def is_private_asn(asn: int) -> bool:
    """True for RFC 6996 private-use ASNs (the prototype's tenant ASN)."""
    return _PRIVATE_ASN_MIN <= asn <= _PRIVATE_ASN_MAX


class Origin(enum.IntEnum):
    """BGP ORIGIN attribute; lower is preferred in the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


@slot_init
@dataclass(frozen=True, slots=True)
class AsPath:
    """An AS_PATH: a sequence of ASNs, most recent hop first.

    ``asns[0]`` is the neighbor that sent the route; ``asns[-1]`` is the
    origin AS (or a poisoned ASN).  Prepending repeats an ASN, lengthening
    the path without changing reachability.
    """

    asns: tuple[int, ...] = ()

    def prepend(self, asn: int, count: int = 1) -> "AsPath":
        """Return a path with ``asn`` prepended ``count`` times.

        Raises:
            ValueError: ``count`` is not an int >= 1 (a bool or a float
                is refused, not rounded).
        """
        if type(count) is not int or count < 1:
            raise ValueError(f"prepend count must be an int >= 1, got {count!r}")
        return AsPath((asn,) * count + self.asns)

    def contains(self, asn: int) -> bool:
        """Loop-detection test."""
        return asn in self.asns

    def strip_private(self) -> "AsPath":
        """Remove private ASNs (what Vultr does to tenant sessions).

        A path without one is returned as is: every export calls this,
        and the paths it sees rarely hold a private ASN."""
        for asn in self.asns:
            if _PRIVATE_ASN_MIN <= asn <= _PRIVATE_ASN_MAX:
                return AsPath(tuple(a for a in self.asns if not is_private_asn(a)))
        return self

    def without(self, asn: int) -> "AsPath":
        """Remove every occurrence of ``asn`` (used to present transit-only
        views of paths that traverse the provider's own ASN)."""
        return AsPath(tuple(a for a in self.asns if a != asn))

    @property
    def length(self) -> int:
        """AS_PATH length as the decision process counts it (with repeats)."""
        return len(self.asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns)

    def __len__(self) -> int:
        return len(self.asns)

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.asns) if self.asns else "<empty>"


@dataclass(frozen=True, order=True)
class Community(object):
    """A standard RFC 1997 community, rendered ``asn:value``."""

    asn: int = field(metadata={"check": int_in(0, 0xFFFF)})
    value: int = field(metadata={"check": int_in(0, 0xFFFF)})

    def __post_init__(self) -> None:
        check_fields(self)

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


@dataclass(frozen=True, order=True)
class LargeCommunity:
    """An RFC 8092 large community ``global_admin:data1:data2``.

    Vultr's traffic-control communities are large communities with
    ``global_admin == 20473``; every other AS treats them as opaque
    transitive baggage, exactly as on the real Internet.
    """

    global_admin: int = field(metadata={"check": int_in(0, 0xFFFFFFFF)})
    data1: int = field(metadata={"check": int_in(0, 0xFFFFFFFF)})
    data2: int = field(metadata={"check": int_in(0, 0xFFFFFFFF)})

    def __post_init__(self) -> None:
        check_fields(self)

    def __str__(self) -> str:
        return f"{self.global_admin}:{self.data1}:{self.data2}"


@slot_init
@dataclass(frozen=True, slots=True)
class RouteAttributes:
    """The attribute bundle carried with an announcement.

    LOCAL_PREF is *not* carried across eBGP in real BGP; we keep it here
    because import policy assigns it on receipt and the decision process
    reads it — announcements built for export always reset it.
    """

    as_path: AsPath = field(default_factory=AsPath)
    origin: Origin = Origin.IGP
    local_pref: int = 100
    med: int = 0
    communities: frozenset[Community] = frozenset()
    large_communities: frozenset[LargeCommunity] = frozenset()

    # The copies below name every field rather than going through
    # ``dataclasses.replace``: every import and export makes one.

    def with_path(self, as_path: AsPath) -> "RouteAttributes":
        return RouteAttributes(
            as_path,
            self.origin,
            self.local_pref,
            self.med,
            self.communities,
            self.large_communities,
        )

    def with_local_pref(self, local_pref: int) -> "RouteAttributes":
        return RouteAttributes(
            self.as_path,
            self.origin,
            local_pref,
            self.med,
            self.communities,
            self.large_communities,
        )

    def add_communities(
        self,
        communities: Iterable[Community] = (),
        large: Iterable[LargeCommunity] = (),
    ) -> "RouteAttributes":
        """Return attributes with extra communities attached."""
        return RouteAttributes(
            self.as_path,
            self.origin,
            self.local_pref,
            self.med,
            self.communities | frozenset(communities),
            self.large_communities | frozenset(large),
        )
