"""Slotted value types with a dataclass's equality, hash and repr, and no
code generated at import: no exec, no eval, no inspect."""

from operator import attrgetter

_set = object.__setattr__


class Record:
    """The base of the library's value types.

    A subclass lists its fields in ``__slots__`` (names that begin with
    ``_`` are caches, not fields) and writes its own ``__init__``; the
    class keywords ``fields`` narrow what the repr shows and ``compare``
    what equality and the hash read.  Fields are read by one
    ``operator.attrgetter`` per class, in C.

    The contract is the one ``@dataclass`` gave these types:
    - ``a == b`` only for two instances of one class whose compared fields
      are equal; any other operand gets NotImplemented.
    - ``hash(a)`` of a ``FrozenRecord`` is ``hash`` of the tuple of its
      compared fields, the frozen-dataclass formula, taken once and kept; a
      mutable ``Record`` is unhashable.
    - ``repr(a)`` is ``Name(field=value!r, ...)`` over the shown fields.
    - A ``FrozenRecord`` refuses assignment and deletion with
      AttributeError; its ``__init__`` sets the slots with ``_set``.
    Equal hashes and equal equality give every set and dict of records the
    order it had, and that order, with the reprs, is what the reports and
    CSV files are written from, so their bytes stay the same.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, fields=None, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if fields is None:
            if "__slots__" not in cls.__dict__:
                return
            fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        compare = fields if compare is None else compare
        key = attrgetter(*compare) if compare else lambda self: ()
        cls._fields = fields
        # attrgetter gives a lone field bare: hash its 1-tuple
        cls._astuple = staticmethod(key if len(compare) != 1 else lambda self: (key(self),))

        def __eq__(self, other):
            if other is self:
                return True
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class FrozenRecord(Record):
    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._astuple(self)))
            return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
