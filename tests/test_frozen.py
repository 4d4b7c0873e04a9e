"""The value contract of every class built by ``repro.frozen.slot_init``.

The decorator swaps only ``__init__``; everything else a frozen
dataclass promises must hold as if it had not run.  Each class is
checked against a twin made by ``dataclasses.make_dataclass`` from the
same fields, built from the same values: equal eq, hash, repr and
order, ``FrozenInstanceError`` on assignment and deletion, the same
signature, defaults and fresh ``default_factory`` values, and ``copy``,
``deepcopy`` and ``pickle`` round trips.  The classes are found by
scanning ``src/repro`` for the decorator, so a new one fails here until
``SAMPLES`` gives it values.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle

import pytest

from repro.bgp.attributes import AsPath, LargeCommunity, Origin, RouteAttributes
from repro.bgp.communities import ExportAction
from repro.bgp.messages import Announcement, Withdrawal, as_prefix
from repro.bgp.policy import Relationship
from repro.bgp.rib import RibEntry
from repro.frozen import slot_init
from repro.netsim.packet import TangoHeader
from tests.test_reachability import SOURCE_FILES, module_name


def _decorated_classes() -> list[type]:
    found = []
    for path in SOURCE_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "slot_init"
                for d in node.decorator_list
            ):
                module = importlib.import_module(module_name(path))
                found.append(getattr(module, node.name))
    return found


CLASSES = _decorated_classes()

P = as_prefix("2001:db8:1::/48")
Q = as_prefix("192.0.2.0/24")
LONG = RouteAttributes(
    AsPath((3, 2, 1)),
    Origin.EGP,
    200,
    5,
    large_communities=frozenset({LargeCommunity(20473, 6000, 2914)}),
)

#: At least two unequal instances per class.
SAMPLES = {
    AsPath: [AsPath(), AsPath((1,)), AsPath((2914, 20473)), AsPath((1, 1))],
    RouteAttributes: [RouteAttributes(), RouteAttributes(AsPath((7,))), LONG],
    Announcement: [
        Announcement(P, RouteAttributes()),
        Announcement(Q, RouteAttributes()),
        Announcement(P, LONG),
    ],
    Withdrawal: [Withdrawal(P), Withdrawal(Q)],
    RibEntry: [
        RibEntry(P, RouteAttributes(), "ntt", Relationship.PROVIDER),
        RibEntry(P, LONG, "ntt", Relationship.PROVIDER),
        RibEntry(Q, LONG, "telia", Relationship.PEER),
    ],
    ExportAction: [ExportAction(), ExportAction(False), ExportAction(True, 2)],
    TangoHeader: [
        TangoHeader(1, 2, 3),
        TangoHeader(1, 2, 4),
        TangoHeader(timestamp_ns=0, seq=0, path_id=0, auth_tag=b"x" * 8),
    ],
}


def _twin(cls: type) -> type:
    """``cls`` rebuilt by ``make_dataclass``: the stock generated methods."""
    specs = []
    for f in dataclasses.fields(cls):
        kwargs = {"repr": f.repr, "compare": f.compare, "hash": f.hash}
        if f.default is not dataclasses.MISSING:
            kwargs["default"] = f.default
        if f.default_factory is not dataclasses.MISSING:
            kwargs["default_factory"] = f.default_factory
        specs.append((f.name, f.type, dataclasses.field(**kwargs)))
    params = cls.__dataclass_params__
    twin = dataclasses.make_dataclass(
        cls.__name__,
        specs,
        eq=params.eq,
        order=params.order,
        frozen=params.frozen,
        unsafe_hash=params.unsafe_hash,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


def _values(instance) -> dict:
    return {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance)}


def test_the_scan_finds_every_hot_value_class():
    assert set(CLASSES) == set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueContract:
    def test_assignment_and_deletion_raise(self, cls):
        instance = SAMPLES[cls][0]
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.not_a_field = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del instance.not_a_field

    def test_eq_hash_repr_and_order_match_a_stock_twin(self, cls):
        twin = _twin(cls)
        pairs = [(x, twin(**_values(x))) for x in SAMPLES[cls]]
        for x, t in pairs:
            assert repr(x) == repr(t)
            assert hash(x) == hash(t)
        for (a, ta), (b, tb) in itertools.product(pairs, repeat=2):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
            if cls.__dataclass_params__.order:
                assert (a < b) == (ta < tb)
                assert (a >= b) == (ta >= tb)
            else:
                with pytest.raises(TypeError):
                    a < b
        assert len({x for x, _ in pairs}) == len(pairs)

    def test_signature_defaults_and_factories_are_the_dataclass_ones(self, cls):
        ours = inspect.signature(cls).parameters
        stock = inspect.signature(_twin(cls)).parameters
        assert [(p.name, p.kind) for p in ours.values()] == [
            (p.name, p.kind) for p in stock.values()
        ]
        required = {
            f.name: getattr(SAMPLES[cls][-1], f.name)
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        }
        first, second = cls(**required), cls(**required)
        assert repr(first) == repr(_twin(cls)(**required))
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                assert getattr(first, f.name) is f.default
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(first, f.name) == f.default_factory()
                assert getattr(first, f.name) is not getattr(second, f.name)

    def test_positional_and_keyword_construction_agree(self, cls):
        for x in SAMPLES[cls]:
            values = _values(x)
            assert cls(*values.values()) == cls(**values) == x

    def test_copy_deepcopy_and_pickle_round_trip(self, cls):
        for x in SAMPLES[cls]:
            for clone in (
                copy.copy(x),
                copy.deepcopy(x),
                pickle.loads(pickle.dumps(x)),
            ):
                assert type(clone) is cls
                assert clone == x
                assert hash(clone) == hash(x)
                assert repr(clone) == repr(x)


def test_route_attributes_get_a_fresh_path_each():
    first, second = RouteAttributes(), RouteAttributes()
    assert first.as_path == AsPath()
    assert first.as_path is not second.as_path


@dataclasses.dataclass(frozen=True)
class _Unslotted:
    x: int


@dataclasses.dataclass(slots=True)
class _Unfrozen:
    x: int


@dataclasses.dataclass(frozen=True, slots=True)
class _PostInit:
    x: int

    def __post_init__(self) -> None:
        pass


@dataclasses.dataclass(frozen=True, slots=True)
class _Derived:
    x: int
    y: int = dataclasses.field(init=False, default=0)


@dataclasses.dataclass(frozen=True, slots=True)
class _KeywordOnly:
    x: int = dataclasses.field(kw_only=True)


@pytest.mark.parametrize(
    "cls", [_Unslotted, _Unfrozen, _PostInit, _Derived, _KeywordOnly, int]
)
def test_slot_init_refuses_what_it_cannot_build(cls):
    init = cls.__init__
    with pytest.raises(TypeError, match="slot_init"):
        slot_init(cls)
    assert cls.__init__ is init
