"""BGP UPDATE messages: announcements and withdrawals."""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .attributes import RouteAttributes

__all__ = ["Prefix", "Announcement", "Withdrawal", "as_prefix", "prefix_key"]

Prefix = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


#: Bound on each per-prefix cache below; a federation of 12 members uses
#: ~600 distinct prefixes.
_PREFIX_CACHE_SIZE = 8192

_parse_prefix = lru_cache(maxsize=_PREFIX_CACHE_SIZE)(ipaddress.ip_network)


def as_prefix(value: Union[str, Prefix]) -> Prefix:
    """Normalize a prefix argument to an ``ip_network`` object.

    Equal strings yield the *same* (immutable) object, so the RIB dicts
    keyed by prefix resolve lookups by identity instead of calling the
    Python-level ``ipaddress`` ``__eq__``.
    """
    if isinstance(value, str):
        return _parse_prefix(value)
    return value


@lru_cache(maxsize=_PREFIX_CACHE_SIZE)
def prefix_key(prefix: Prefix) -> str:
    """The canonical sort key of a prefix — ``str(prefix)``, formatted
    once per distinct prefix.  Every sort that fixes a delivery or
    fingerprint order uses it."""
    return str(prefix)


@dataclass(frozen=True)
class Announcement:
    """A reachability announcement for one prefix.

    The attribute bundle's AS path already includes the sender's ASN
    (exports prepend before sending, as real BGP speakers do).
    """

    prefix: Prefix
    attributes: RouteAttributes

    def __str__(self) -> str:
        return f"{self.prefix} via [{self.attributes.as_path}]"


@dataclass(frozen=True)
class Withdrawal:
    """Withdrawal of a previously announced prefix."""

    prefix: Prefix

    def __str__(self) -> str:
        return f"withdraw {self.prefix}"
