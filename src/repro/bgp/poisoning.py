"""AS-path poisoning.

An alternative (or complement) to provider communities for steering
propagation, mentioned in the paper's Sections 3 and 6: by *including a
target AS's number in the announced path*, the origin makes that AS reject
the route via standard loop detection, so the route only propagates along
paths avoiding the target.  Unlike communities, poisoning needs no
provider support — but it lengthens the path and some networks filter
poisoned announcements.
"""

from __future__ import annotations

from typing import Iterable

from .attributes import AsPath, RouteAttributes

__all__ = ["poisoned_attributes"]


def poisoned_attributes(
    targets: Iterable[int], base: RouteAttributes = RouteAttributes()
) -> RouteAttributes:
    """Build origination attributes whose path pre-contains ``targets``.

    The originating router prepends its own ASN at export, so the wire
    path becomes ``origin, target1, target2, ...`` — each target drops the
    route on loop detection while everyone else just sees a longer path.
    """
    target_list = tuple(targets)
    if not target_list:
        raise ValueError("need at least one target ASN to poison")
    return base.with_path(AsPath(target_list))
