"""Pylite object model: CPython-style objects in simulated memory.

Every Pylite value is an object in the simulated address space with a
CPython-like header: the reference count and the GC linked-list pointer
are co-located with the data — the very design decision that §5.2/§6.4
show to be expensive under isolation, because updating the refcount of
an object in a read-only module requires a controlled switch to a
trusted environment.

Layout (all fields 8 bytes):

    +0   refcount
    +8   type id
    +16  gc_next          (generational GC list linkage, §5.2)
    +24  payload...

Payloads: int -> value; bool -> value; none -> nothing;
str -> len, bytes; list -> len, cap, items_ptr (array of object addrs).
"""

from __future__ import annotations

from repro.errors import PyliteError

OFF_REFCOUNT = 0
OFF_TYPE = 8
OFF_GC_NEXT = 16
OFF_PAYLOAD = 24

TYPE_NONE = 0
TYPE_INT = 1
TYPE_BOOL = 2
TYPE_STR = 3
TYPE_LIST = 4

TYPE_NAMES = {
    TYPE_NONE: "NoneType",
    TYPE_INT: "int",
    TYPE_BOOL: "bool",
    TYPE_STR: "str",
    TYPE_LIST: "list",
}

HEADER_SIZE = OFF_PAYLOAD


def type_name(type_id: int) -> str:
    try:
        return TYPE_NAMES[type_id]
    except KeyError:
        raise PyliteError(f"corrupt object: type id {type_id}") from None
