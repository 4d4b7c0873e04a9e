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
    "ValueTable",
    "is_private_asn",
    "strip_private_asns",
]

#: RFC 6996 private ASN range (16-bit block).
_PRIVATE_ASN_MIN = 64512
_PRIVATE_ASN_MAX = 65534


def is_private_asn(asn: int) -> bool:
    """True for RFC 6996 private-use ASNs (the prototype's tenant ASN)."""
    return _PRIVATE_ASN_MIN <= asn <= _PRIVATE_ASN_MAX


def strip_private_asns(asns: tuple[int, ...]) -> tuple[int, ...]:
    """``asns`` without private ASNs (what Vultr does to tenant sessions).

    A tuple without one is returned as is: every export calls this, and
    the paths it sees rarely hold a private ASN."""
    for asn in asns:
        if _PRIVATE_ASN_MIN <= asn <= _PRIVATE_ASN_MAX:
            return tuple(a for a in asns if not is_private_asn(a))
    return asns


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
        """Remove private ASNs (:func:`strip_private_asns`); a path
        without one is returned as is."""
        asns = strip_private_asns(self.asns)
        return self if asns is self.asns else AsPath(asns)

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
    # ``dataclasses.replace``.

    def with_path(self, as_path: AsPath) -> "RouteAttributes":
        return RouteAttributes(
            as_path,
            self.origin,
            self.local_pref,
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


class ValueTable:
    """One object per AS path and attribute bundle a BGP network builds.

    Discovery re-converges the same few routes over and over, and every
    import and export used to build its bundle afresh, so the RIBs and the
    snapshots sharing them held thousands of copies of a few hundred
    values.  A :class:`~repro.bgp.network.BgpNetwork` owns one table and
    hands it to each router it adds; a router built on its own has its
    own.  Nothing is module-wide, so a table lives exactly as long as its
    network.

    * :meth:`path` interns a path by its ASN tuple;
    * :meth:`exported` looks an exported bundle up by its path (the
      interned object), origin and community sets;
    * :meth:`imported` looks the LOCAL_PREF bundle up by the received
      bundle and the local-pref, and answers the received bundle itself
      when its local-pref is already that value;
    * :meth:`bundle` interns an origination by value.

    The export and import keys hold ``id()`` of an object, so each entry
    holds that object and a hit checks it with ``is``: in a copied,
    deep-copied or unpickled table those ids name nothing, a new object
    may be born at one of their addresses, and the check turns that
    into a miss rather than someone else's bundle.  A miss builds the
    bundle and takes the table's canonical copy of its value, so equal
    bundles the table hands out are one object.
    """

    __slots__ = ("_paths", "_bundles", "_exports", "_imports")

    def __init__(self) -> None:
        self._paths: dict[tuple[int, ...], AsPath] = {}
        #: Every bundle handed out, keyed by its value.
        self._bundles: dict[RouteAttributes, RouteAttributes] = {}
        #: ``(id(path), origin, communities, large)`` -> the exported
        #: bundle, whose ``as_path`` is that path.
        self._exports: dict[tuple, RouteAttributes] = {}
        #: ``(id(received), local_pref)`` -> ``(received, imported)``.
        self._imports: dict[
            tuple[int, int], tuple[RouteAttributes, RouteAttributes]
        ] = {}

    def path(self, asns: tuple[int, ...]) -> AsPath:
        """The table's path for ``asns``."""
        path = self._paths.get(asns)
        if path is None:
            path = self._paths[asns] = AsPath(asns)
        return path

    def bundle(self, attrs: RouteAttributes) -> RouteAttributes:
        """The table's bundle equal to ``attrs``, its path interned too."""
        found = self._bundles.get(attrs)
        if found is not None:
            return found
        path = self.path(attrs.as_path.asns)
        if path is not attrs.as_path:
            attrs = attrs.with_path(path)
        self._bundles[attrs] = attrs
        return attrs

    def exported(self, path: AsPath, attrs: RouteAttributes) -> RouteAttributes:
        """``attrs`` as sent over eBGP with ``path`` (a path of this
        table): LOCAL_PREF reset to 100, MED to 0."""
        key = (id(path), attrs.origin, attrs.communities, attrs.large_communities)
        found = self._exports.get(key)
        if found is not None and found.as_path is path:
            return found
        found = self.bundle(
            RouteAttributes(
                path,
                attrs.origin,
                100,  # LOCAL_PREF is not carried across eBGP
                0,
                attrs.communities,
                attrs.large_communities,
            )
        )
        self._exports[key] = found
        return found

    def imported(self, attrs: RouteAttributes, local_pref: int) -> RouteAttributes:
        """``attrs`` with the LOCAL_PREF import assigns."""
        if attrs.local_pref == local_pref:
            return attrs
        key = (id(attrs), local_pref)
        entry = self._imports.get(key)
        if entry is not None and entry[0] is attrs:
            return entry[1]
        found = self.bundle(
            RouteAttributes(
                attrs.as_path,
                attrs.origin,
                local_pref,
                attrs.med,
                attrs.communities,
                attrs.large_communities,
            )
        )
        self._imports[key] = (attrs, found)
        return found
