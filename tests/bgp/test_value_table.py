"""A network's value table: one object per path and bundle, safe to copy.

:class:`repro.bgp.attributes.ValueTable` keys its export and import
lookups by ``id()`` of an object the entry holds, and re-checks a hit
with ``is``.  A copied, deep-copied or unpickled network carries those
keys over, but the ids name objects of the network it was copied from;
once that network is gone, new objects are born at its addresses.  The
copy-safety test drops the original, works the copy hard enough that
such addresses come back, and asks for the RIBs a network built fresh
the same way holds, and the full-scan oracle too.
"""

import copy
import gc
import pickle

import pytest

from repro.bgp.attributes import AsPath, LargeCommunity, RouteAttributes, ValueTable
from repro.bgp.communities import ACTION_PREPEND_TO, no_export_to
from repro.bgp.network import BgpNetwork
from repro.bgp.poisoning import poisoned_attributes
from repro.bgp.router import BgpRouter
from repro.core.discovery import PathDiscovery
from repro.scenarios.vultr import GTT, NTT, TELIA, VULTR_ASN, build_bgp_network
from tests.bgp.oracle import full_scan

COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda net: pickle.loads(pickle.dumps(net)),
}


def tables(net: BgpNetwork) -> dict:
    """Every router's Adj-RIB-In, Loc-RIB and Adj-RIB-Out, by value."""
    return {
        name: (
            router.adj_rib_in.snapshot(),
            router.loc_rib.snapshot(),
            router.adj_rib_out.snapshot(),
        )
        for name, router in sorted(net.routers.items())
    }


def converged() -> BgpNetwork:
    """The Vultr control plane after originations and one discovery,
    which builds and drops a bundle per suppression round."""
    net = build_bgp_network()
    net.router("tango-la").originate("2001:db8:a0::/48")
    net.router("tango-ny").originate("2001:db8:b0::/48")
    net.converge()
    PathDiscovery(net, VULTR_ASN).discover(
        announcer="tango-ny", observer="tango-la", probe_prefix="2001:db8:fff::/48"
    )
    return net


#: Copy, drop and work cycles per copier: each is another chance for a
#: new object to be born at an address a carried-over key names.
CYCLES = 4


def work(net: BgpNetwork, cycle: int) -> None:
    """Originate, re-originate, withdraw and bounce a session: every
    round builds bundles and paths the network has not held before."""
    la, ny = net.router("tango-la"), net.router("tango-ny")
    for round_number in range(6 * cycle, 6 * cycle + 6):
        for index, (provider, target) in enumerate(
            ((NTT, TELIA), (TELIA, GTT), (GTT, NTT))
        ):
            prefix = f"2001:db8:{0xc00 + 16 * round_number + index:x}::/48"
            large = [
                no_export_to(VULTR_ASN, provider),
                LargeCommunity(VULTR_ASN, ACTION_PREPEND_TO + 1 + index, target),
            ]
            poison = (3000 + round_number, 64600 + index)  # one private, stripped
            la.originate(
                prefix,
                poisoned_attributes(poison).add_communities(large=large[round_number % 2 :]),
            )
            ny.originate(prefix, RouteAttributes().add_communities(large=large[:1]))
        net.converge()
        ny.withdraw_origination(f"2001:db8:{0xc00 + 16 * round_number:x}::/48")
        if round_number % 2:
            la.originate("2001:db8:a0::/48", poisoned_attributes((round_number,)))
        net.converge()
    net.reset_session("vultr-ny", "ntt")
    net.reset_session("vultr-la", "telia")


def built() -> BgpNetwork:
    net = converged()
    for cycle in range(CYCLES):
        work(net, cycle)
    return net


@pytest.fixture(scope="module")
def fresh() -> dict:
    return tables(built())


@pytest.fixture(scope="module")
def oracle() -> dict:
    with full_scan():
        return tables(built())


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_a_copied_network_converges_as_a_fresh_one(copier, fresh, oracle):
    net = converged()
    for cycle in range(CYCLES):
        clone = COPIERS[copier](net)
        del net
        gc.collect()
        work(clone, cycle)
        net = clone
    assert tables(net) == fresh
    assert fresh == oracle


def test_equal_values_come_back_as_one_object():
    values = ValueTable()
    path = values.path((1, 2))
    assert values.path((1, 2)) is path
    source = RouteAttributes(AsPath((2,)), local_pref=300, med=5)
    sent = values.exported(path, source)
    assert (sent.as_path, sent.local_pref, sent.med) == (path, 100, 0)
    assert values.exported(path, source) is sent
    assert values.imported(sent, 100) is sent
    imported = values.imported(sent, 300)
    assert imported.local_pref == 300
    assert values.imported(sent, 300) is imported
    assert values.bundle(RouteAttributes(AsPath((1, 2)), local_pref=300)) is imported


def test_a_hit_is_rechecked_by_identity():
    """A key whose id now names another object is a miss."""
    values = ValueTable()
    sent = values.exported(values.path((7,)), RouteAttributes())
    other = values.path((8,))
    (key,) = values._exports
    values._exports[(id(other),) + key[1:]] = sent
    assert values.exported(other, RouteAttributes()).as_path is other
    other_sent = values.exported(other, RouteAttributes())
    values._imports[(id(other_sent), 300)] = (sent, values.imported(sent, 300))
    assert values.imported(other_sent, 300).as_path is other


def test_a_router_on_its_own_has_a_table_of_its_own():
    net = BgpNetwork()
    alone = BgpRouter("alone", 65010)
    joined = net.add_router(BgpRouter("joined", 65011))
    assert joined.values is net.values
    assert alone.values is not net.values
