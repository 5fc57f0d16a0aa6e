"""A cheaper constructor for the frozen slotted dataclasses messages are.

Every call builds requests, responses and records, and a frozen dataclass's
generated ``__init__`` stores each field with ``object.__setattr__(self,
name, value)`` -- its own ``__setattr__`` refuses -- which looks the name up
on the type once per field. A slotted class already holds one member
descriptor per field, and that descriptor's ``__set__`` stores the value in
one C call with no lookup. :func:`slot_init` gives a class an ``__init__``
that does exactly that and nothing else: the same parameters in the same
order with the same defaults. The frozen guard, ``__eq__``, ``__hash__``,
``__repr__``, pickling and ``dataclasses.replace`` stay the dataclass's own.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Any, TypeVar

__all__ = ["slot_init"]

T = TypeVar("T", bound=type)


def slot_init(cls: T) -> T:
    """Replace a frozen slotted dataclass's ``__init__`` with one that sets
    each slot through its member descriptor; returns ``cls`` (a decorator,
    applied above ``@dataclass``).

    Only plain fields qualify: a class with ``__post_init__``, or a field
    with a ``default_factory``, ``init=False`` or ``kw_only``, is refused,
    because the generated ``__init__`` would have to do more than store.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in vars(cls):
        raise TypeError(f"{cls.__name__} is not a frozen slotted dataclass")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has __post_init__")
    namespace: dict[str, Any] = {}
    parameters = []
    body = []
    for field in fields(cls):
        name = field.name
        if field.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{name} has a default_factory")
        if not field.init or getattr(field, "kw_only", False):
            raise TypeError(f"{cls.__name__}.{name} is not a positional field")
        namespace[f"__set_{name}"] = vars(cls)[name].__set__
        if field.default is MISSING:
            parameters.append(name)
        else:
            namespace[f"__default_{name}"] = field.default
            parameters.append(f"{name}=__default_{name}")
        body.append(f"    __set_{name}(self, {name})\n")
    source = f"def __init__(self, {', '.join(parameters)}):\n" + "".join(body)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(vars(cls)["__init__"].__annotations__)
    setattr(cls, "__init__", init)
    return cls
