"""Fast construction for frozen value types.

A frozen dataclass's generated ``__init__`` sets every field with
``object.__setattr__(self, name, value)``, a lookup by name per field,
and on the values the control plane and the packet path build by the
thousand that is most of their cost.  :func:`slot_init` replaces it, on
a ``@dataclass(frozen=True, slots=True)`` class, with an ``__init__``
that hands each value straight to its field's slot descriptor::

    @slot_init
    @dataclass(frozen=True, slots=True)
    class Point:
        x: int
        y: int = 0

The signature, defaults and ``default_factory`` are the dataclass's;
eq, hash, repr, order and pickling are its own methods, untouched, and
so are ``__setattr__`` / ``__delattr__``, which raise
``FrozenInstanceError`` once re-pointed at the slotted class.  A class whose
construction needs more than storing its arguments (``__post_init__``,
``init=False`` or keyword-only fields) is refused: it keeps the stock
``__init__``.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Any, TypeVar

__all__ = ["slot_init"]

_T = TypeVar("_T", bound=type)


def slot_init(cls: _T) -> _T:
    """Give the frozen, slotted dataclass ``cls`` a slot-descriptor
    ``__init__`` in place of the generated one.

    Raises:
        TypeError: ``cls`` is not ``@dataclass(frozen=True, slots=True)``,
            or it has a ``__post_init__``, an ``init=False`` or a
            keyword-only field.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in vars(cls):
        raise TypeError(
            f"{cls.__name__}: slot_init needs @dataclass(frozen=True, "
            "slots=True) beneath it"
        )
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: slot_init cannot run __post_init__")
    # Dunder names, so no field's argument can shadow them.
    namespace: dict[str, Any] = {"__missing__": MISSING}
    args, body = ["self"], []
    for f in fields(cls):
        name = f.name
        if not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{name}: slot_init sets init fields only")
        namespace[f"__set_{name}__"] = vars(cls)[name].__set__
        if f.default is not MISSING:
            namespace[f"__default_{name}__"] = f.default
            args.append(f"{name}=__default_{name}__")
        elif f.default_factory is not MISSING:
            namespace[f"__factory_{name}__"] = f.default_factory
            args.append(f"{name}=__missing__")
            body.append(f"    if {name} is __missing__: {name} = __factory_{name}__()")
        else:
            args.append(name)
        body.append(f"    __set_{name}__(self, {name})")
    source = f"def __init__({', '.join(args)}):\n" + "\n".join(body or ["    pass"])
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    setattr(cls, "__init__", init)
    # ``slots=True`` builds a new class, but the frozen ``__setattr__`` /
    # ``__delattr__`` still close over the class it replaced, so an
    # attribute that is not a field raised ``TypeError`` from ``super()``
    # instead of ``FrozenInstanceError``.  Point them at this class.
    for method in (cls.__setattr__, cls.__delattr__):
        for cell in method.__closure__ or ():
            old = cell.cell_contents
            if old is not cls and getattr(old, "__qualname__", "") == cls.__qualname__:
                cell.cell_contents = cls
    return cls
