"""BGP UPDATE messages: announcements and withdrawals."""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Union

from ..frozen import slot_init
from .attributes import RouteAttributes

__all__ = [
    "Prefix",
    "InternedIPv4Network",
    "InternedIPv6Network",
    "Announcement",
    "Withdrawal",
    "as_ipv6_prefix",
    "as_prefix",
    "prefix_key",
]

Prefix = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


def _network_hash(network: Union[ipaddress.IPv4Network, ipaddress.IPv6Network]) -> int:
    """The stdlib's ``_BaseNetwork.__hash__``, evaluated once."""
    return hash(int(network.network_address) ^ int(network.netmask))


# The prefixes as_prefix hands out.  The stdlib hashes a network with a
# Python-level ``__hash__`` (two ``int()`` calls and an xor) on every
# dict or set lookup; these take the same value once, at construction,
# so an interned and a plain network of one prefix are one key in every
# dict and set, both ways.  ``repr`` names the plain type, pickling and
# copying go back through as_prefix, and everything else — ``str``,
# ordering, equality, ``subnets()``, ``supernet()`` — is the plain
# type's.


class InternedIPv4Network(ipaddress.IPv4Network):
    """An ``IPv4Network`` whose hash is taken once (see :func:`as_prefix`)."""

    __slots__ = ("_hash",)

    def __init__(self, address: Any, strict: bool = True) -> None:
        super().__init__(address, strict)
        self._hash = _network_hash(self)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        return as_prefix, (str(self),)


class InternedIPv6Network(ipaddress.IPv6Network):
    """An ``IPv6Network`` whose hash is taken once (see :func:`as_prefix`)."""

    __slots__ = ("_hash",)

    def __init__(self, address: Any, strict: bool = True) -> None:
        super().__init__(address, strict)
        self._hash = _network_hash(self)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IPv6Network({str(self)!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        return as_prefix, (str(self),)


#: Bound on each per-prefix cache below; a federation of 12 members uses
#: ~600 distinct prefixes.
_PREFIX_CACHE_SIZE = 8192


def _network(text: str) -> Union[InternedIPv4Network, InternedIPv6Network]:
    """``ipaddress.ip_network(text)``, of an interned type."""
    try:
        return InternedIPv4Network(text)
    except (ipaddress.AddressValueError, ipaddress.NetmaskValueError):
        pass
    try:
        return InternedIPv6Network(text)
    except (ipaddress.AddressValueError, ipaddress.NetmaskValueError):
        pass
    raise ValueError(f"{text!r} does not appear to be an IPv4 or IPv6 network")


@lru_cache(maxsize=_PREFIX_CACHE_SIZE)
def _parse_prefix(text: str) -> Union[InternedIPv4Network, InternedIPv6Network]:
    """The one interned object of ``text``'s prefix, however it is
    spelled (its ``str`` is the canonical spelling)."""
    network = _network(text)
    canonical = str(network)
    return network if canonical == text else _parse_prefix(canonical)


def as_prefix(value: Union[str, Prefix]) -> Prefix:
    """Normalize a prefix argument to an ``ip_network`` object.

    A string yields an interned prefix: equal strings give the *same*
    (immutable) object, so RIB lookups resolve by identity instead of
    the Python-level ``ipaddress`` ``__eq__``, and its hash was taken
    once.  A network passes through as is.

    Raises:
        TypeError: ``value`` is neither a string nor a network (an
            address or an int would otherwise become a RIB key).
        ValueError: the string is not a prefix.
    """
    if isinstance(value, str):
        return _parse_prefix(value)
    if isinstance(value, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
        return value
    raise TypeError(f"a prefix is a str or an ip_network, got {value!r}")


def as_ipv6_prefix(text: str) -> ipaddress.IPv6Network:
    """:func:`as_prefix` for a string that must name an IPv6 prefix (a
    Tango edge's host and route prefixes)."""
    prefix = _parse_prefix(text)
    if not isinstance(prefix, InternedIPv6Network):
        raise ValueError(f"{text!r} is not an IPv6 prefix")
    return prefix


@lru_cache(maxsize=_PREFIX_CACHE_SIZE)
def prefix_key(prefix: Prefix) -> str:
    """The canonical sort key of a prefix — ``str(prefix)``, formatted
    once per distinct prefix.  Every sort that fixes a delivery or
    fingerprint order uses it."""
    return str(prefix)


@slot_init
@dataclass(frozen=True, slots=True)
class Announcement:
    """A reachability announcement for one prefix.

    The attribute bundle's AS path already includes the sender's ASN
    (exports prepend before sending, as real BGP speakers do).
    """

    prefix: Prefix
    attributes: RouteAttributes

    def __str__(self) -> str:
        return f"{self.prefix} via [{self.attributes.as_path}]"


@slot_init
@dataclass(frozen=True, slots=True)
class Withdrawal:
    """Withdrawal of a previously announced prefix."""

    prefix: Prefix

    def __str__(self) -> str:
        return f"withdraw {self.prefix}"
