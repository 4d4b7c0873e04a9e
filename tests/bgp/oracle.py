"""The full-scan propagation engine, kept as the equivalence oracle.

Until PR 19 this was ``BgpNetwork._converge_rounds`` /
``_propagate_round``, selectable with ``use_engine("rounds")``.  Under
Gao–Rexford policies with deterministic tie-breaks the fixpoint is
unique, so a second engine in the product could only ever agree with
the first; what it is still good for is *checking* that, so it lives
here, written against the routers' and RIBs' public calls, and is
patched over :meth:`BgpNetwork.converge` — class-wide, because the
scenario builders construct their own networks.  It re-diffs every
directed session every round: O(sessions × prefixes) per round however
small the change was.  Its output is frozen in the four ``*/rounds``
digests of ``golden/rib_dumps.json``.
"""

from contextlib import contextmanager, nullcontext
from typing import Iterator

import pytest

from repro.bgp.messages import Withdrawal, prefix_key
from repro.bgp.network import BgpNetwork, ConvergenceError


def full_scan_converge(net: BgpNetwork, max_rounds: int = 200) -> int:
    """Drop-in for :meth:`BgpNetwork.converge`: same counters, same
    return convention (the round that verifies the fixpoint counts)."""
    net.convergence_count += 1
    for round_number in range(1, max_rounds + 1):
        changed = _propagate_round(net)
        if not changed:
            # A full-scan fixpoint subsumes the product's work queue:
            # nothing is left to ripple, so queued markers are stale
            # (and ``capture_snapshot`` refuses a network that has any).
            for router in net.routers.values():
                router.clear_pending_exports()
            net._take_full_sync()
            net.total_rounds += round_number
            return round_number
    raise ConvergenceError(
        f"no fixpoint after {max_rounds} rounds; "
        "check relationships/policies for dispute wheels"
    )


def _propagate_round(net: BgpNetwork) -> bool:
    """One synchronous delivery wave.  Returns True if anything changed."""
    changed = False
    net.routers_scanned += len(net.routers)
    for sender_name, receiver_name in net.session_pairs():
        sender = net.routers[sender_name]
        receiver = net.routers[receiver_name]
        exports = sender.exports_for(receiver_name)
        previously_sent = sender.adj_rib_out.prefixes_to(receiver_name)
        for prefix, announcement in exports.items():
            if sender.adj_rib_out.last_sent(receiver_name, prefix) == announcement:
                continue
            sender.adj_rib_out.record(receiver_name, announcement)
            net.updates_delivered += 1
            if receiver.receive_announcement(sender_name, announcement):
                changed = True
        # Sorted so withdrawal delivery order never depends on set
        # iteration order (TNG005; the replay-determinism invariant).
        for prefix in sorted(previously_sent - set(exports), key=prefix_key):
            sender.adj_rib_out.forget(receiver_name, prefix)
            net.withdrawals_delivered += 1
            if receiver.receive_withdrawal(sender_name, Withdrawal(prefix)):
                changed = True
    return changed


@contextmanager
def full_scan() -> Iterator[None]:
    """Inside the block every :class:`BgpNetwork` converges by full scan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BgpNetwork, "converge", full_scan_converge)
        yield


#: How ``converge`` runs, by the names the golden fixture's keys use:
#: the product as shipped, or the oracle patched in.
ENGINES = {"incremental": nullcontext, "rounds": full_scan}
