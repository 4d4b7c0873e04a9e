"""Every numeric parameter check a config declares, walked.

``repro.validate`` has five helpers; a dataclass declares which one
guards each field as ``field(metadata={"check": ...})``.  This walk
finds every such declaration in ``repro`` and feeds the field NaN, ±inf,
-1 and 0 (plus 1.5 and ``True`` where the check is ``int_in``).  Each
input must construct, or raise a ``ValueError`` whose message starts
with the field name; NaN and ±inf never construct.  A config whose
required fields this file cannot fill fails the walk, so a new one is
added to ``_required()`` rather than skipped.
"""

import dataclasses
import importlib
import ipaddress
import math
import pkgutil
import re

import pytest

import repro
from repro.validate import finite, int_in, non_negative, positive, probability

NAN, INF = math.nan, math.inf


def _all_modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def _declaring_dataclasses() -> list[type]:
    found = {}
    for module in _all_modules():
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__.startswith("repro.")
                and any("check" in f.metadata for f in dataclasses.fields(value))
            ):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return [found[name] for name in sorted(found)]


def _edge(name: str, third: int):
    from repro.core.config import EdgeConfig

    return EdgeConfig(
        name=name,
        tenant_router=f"{name}-t",
        tenant_asn=64512 + third,
        provider_router="vultr",
        provider_asn=20473,
        host_prefix=ipaddress.IPv6Network(f"2001:db8:{third}::/48"),
        route_prefixes=(ipaddress.IPv6Network(f"2001:db8:{third + 100}::/48"),),
    )


def _required() -> dict:
    """Valid values for the fields that have no default, by class name."""
    from repro.netsim.links import ConstantLoss
    from repro.telemetry.store import MeasurementStore

    edge_a = _edge("a", 1)
    return {
        "EdgeConfig": {
            f.name: getattr(edge_a, f.name)
            for f in dataclasses.fields(edge_a)
            if f.default is dataclasses.MISSING
        },
        "PairingConfig": {"a": edge_a, "b": _edge("b", 2)},
        "MeshPath": {"src": "a", "dst": "b", "label": "p", "delay_s": 0.01},
        "FlowClass": {
            "name": "web",
            "flow_label": 1,
            "arrival_rate_per_s": 10.0,
            "mean_size_bytes": 1e4,
            "rate_bps": 1e5,
        },
        "SurgeWindow": {"start": 0.0, "end": 1.0, "factor": 2.0},
        "DegradedModeConfig": {"estimates": MeasurementStore()},
        "OverrideLoss": {"inner": ConstantLoss(), "windows": ()},
        "GaussianJitterDelay": {"base": 0.01, "sigma": 0.001},
        "DiurnalVariation": {"amplitude": 0.001},
        "SpikeProcess": {
            "rate_per_second": 1.0,
            "min_magnitude": 0.0,
            "max_magnitude": 0.01,
        },
        "InstabilityEvent": {"start": 0.0},
        "RouteChangeEvent": {"start": 0.0},
        "AsymmetryEvent": {"start": 0.0, "duration": 1.0, "shift": 0.01},
        "Community": {"asn": 1, "value": 1},
        "LargeCommunity": {"global_admin": 1, "data1": 1, "data2": 1},
    }


CLASSES = _declaring_dataclasses()
CASES = [
    (cls, f.name, f.metadata["check"])
    for cls in CLASSES
    for f in dataclasses.fields(cls)
    if "check" in f.metadata
]


def _is_int_check(check) -> bool:
    return check.__qualname__.startswith("int_in.")


def _inputs(check) -> list:
    """``(value, must_refuse)`` pairs."""
    pairs = [(NAN, True), (INF, True), (-INF, True), (-1, False), (0, False)]
    if _is_int_check(check):
        pairs += [(1.5, True), (True, True)]
    return pairs


def test_the_walk_finds_the_configs_it_was_written_for():
    names = {cls.__name__ for cls in CLASSES}
    assert {
        "QuarantinePolicy",
        "PeerTrustPolicy",
        "SupervisorPolicy",
        "ChannelConfig",
        "FlowClass",
        "PairingConfig",
        "CampaignConfig",
    } <= names


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_every_declaring_config_builds_from_the_walks_values(cls):
    required = _required().get(cls.__name__, {})
    missing = [
        f.name
        for f in dataclasses.fields(cls)
        if f.init
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
        and f.name not in required
    ]
    assert not missing, f"add {cls.__name__}'s {missing} to _required()"
    cls(**required)


@pytest.mark.parametrize(
    "cls, name, check",
    CASES,
    ids=[f"{cls.__qualname__}.{name}" for cls, name, _ in CASES],
)
def test_declared_field_refuses_by_name_or_constructs(cls, name, check):
    base = _required().get(cls.__name__, {})
    for value, must_refuse in _inputs(check):
        try:
            cls(**{**base, name: value})
        except ValueError as exc:
            assert str(exc).startswith(name), (value, str(exc))
        else:
            assert not must_refuse, f"{cls.__name__}.{name} took {value!r}"


@pytest.mark.parametrize(
    "check, good, bad",
    [
        (finite, [-1, 0, 2.5], [NAN, INF, -INF, True, "1", None, 10**400]),
        (positive, [1, 0.5], [0, -1, NAN, INF, True]),
        (non_negative, [0, 0.0, 3], [-1e-9, NAN, INF, False]),
        (probability, [0, 0.5, 1], [-0.1, 1.1, NAN, True]),
        (int_in(1, 3), [1, 3], [0, 4, 1.5, 2.0, True, NAN, "2"]),
    ],
)
def test_helpers_return_the_value_or_name_it(check, good, bad):
    for value in good:
        assert check("knob", value) is value
    for value in bad:
        message = r"^knob must .*, got " + re.escape(repr(value)) + "$"
        with pytest.raises(ValueError, match=message):
            check("knob", value)
