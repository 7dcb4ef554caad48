"""The immutable base of the value types (``Partition``, ``Composition``,
``SkewShape`` and ``QPoly``).

A subclass declares its ``__slots__``, names its public fields in
``_fields`` (the arguments of its constructor, in order) and sets them
once in ``__init__`` through ``object.__setattr__``.  Instances compare
and hash by those fields, print as ``Name(field=value, ...)``, pickle by
calling the constructor again, and raise ``AttributeError`` on any
assignment or deletion.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
