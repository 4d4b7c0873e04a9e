"""Simulation time has one writer.

``Simulator.now`` is a plain attribute read per packet, not a read-only
property, so only this scan keeps every other module from writing it:
an AST walk of ``src/repro`` finds each write of an attribute named
``now`` — an assignment of any form, a loop or ``with`` target, a
``del``, a ``setattr`` — and allows them only in ``repro/netsim/events.py``,
the event loop.  ``Packet.tunneled``, the tunnel flag the switch programs
read per packet, is held to ``repro/netsim/packet.py`` the same way.
"""

import ast
from pathlib import Path

from tests.test_reachability import SRC

#: Attribute name -> the one module under ``src/`` that may write it.
WRITERS = {
    "now": "repro/netsim/events.py",
    "tunneled": "repro/netsim/packet.py",
}


def _targets(node: ast.AST) -> list:
    """The expressions ``node`` stores to or deletes."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(
        node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor, ast.comprehension)
    ):
        return [node.target]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.optional_vars for item in node.items if item.optional_vars]
    if isinstance(node, ast.Delete):
        return node.targets
    return []


def _stored_attributes(target: ast.AST):
    """Attribute names written through ``target``, unpacking included."""
    if isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _stored_attributes(element)
    elif isinstance(target, ast.Starred):
        yield from _stored_attributes(target.value)


def _setattr_name(node: ast.AST):
    """The attribute a ``setattr(x, "name", v)`` or
    ``object.__setattr__(x, "name", v)`` call writes, if constant."""
    if not isinstance(node, ast.Call) or len(node.args) < 2:
        return None
    func = node.func
    named = (isinstance(func, ast.Name) and func.id == "setattr") or (
        isinstance(func, ast.Attribute) and func.attr == "__setattr__"
    )
    name = node.args[1]
    if named and isinstance(name, ast.Constant) and isinstance(name.value, str):
        return name.value
    return None


def writes(path: Path) -> list:
    """``(attribute, line)`` of every write of a :data:`WRITERS` name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for target in _targets(node):
            found.extend((n, target.lineno) for n in _stored_attributes(target))
        name = _setattr_name(node)
        if name is not None:
            found.append((name, node.lineno))
    return [(name, line) for name, line in found if name in WRITERS]


def test_simulation_time_and_the_tunnel_flag_have_one_writer():
    stray = []
    seen = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for name, line in writes(path):
            if WRITERS[name] == module:
                seen.add(name)
            else:
                stray.append(f"{module}:{line} writes .{name}")
    assert not stray, "only the owning module may write these:\n" + "\n".join(stray)
    # The scan reads the owners' own writes, so it is looking.
    assert seen == set(WRITERS)


def test_the_write_walk_sees_every_form_of_write(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "sim.now = 1.0\n"
        "sim.now += 1.0\n"
        "sim.now: float = 2.0\n"
        "a, (b, sim.now) = 1, (2, 3)\n"
        "first, *sim.now = [1, 2]\n"
        "for sim.now in (1.0, 2.0):\n"
        "    pass\n"
        "with clock() as sim.now:\n"
        "    pass\n"
        "[0 for sim.now in ()]\n"
        "del sim.now\n"
        "setattr(sim, 'now', 3.0)\n"
        "object.__setattr__(packet, 'tunneled', True)\n"
        "now = sim.now\n"
        "sim.now_ns = 4\n"
        "setattr(sim, name, 5.0)\n",
        encoding="utf-8",
    )
    assert sorted(writes(probe), key=lambda write: write[1]) == [
        ("now", line) for line in (1, 2, 3, 4, 5, 6, 8, 10, 11, 12)
    ] + [("tunneled", 13)]
