"""The base of the package's immutable slotted value classes.

A value class lists its fields as its public __slots__; private slots, such
as indexes a constructor derives from the fields, stay out of equality, hash,
repr and pickling. Instances are immutable after __init__ (which sets fields
with object.__setattr__), compare equal only to instances of exactly the same
class with equal fields, and hash as the tuple of their fields.

Unlike a NamedTuple, a value equals no plain tuple; unlike a frozen dataclass,
loading it does not import dataclasses (and inspect with it), which every plab
process would otherwise pay for.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        # one field comes back bare, several as a tuple; both compare the same
        get = attrgetter(*fields)
        key = get if len(fields) > 1 else lambda self: (get(self),)

        def __eq__(self, other) -> bool:
            if other.__class__ is not cls:
                return NotImplemented
            return get(self) == get(other)

        def __hash__(self) -> int:
            return hash(key(self))

        def __reduce__(self):
            return cls, key(self)

        cls.__eq__, cls.__hash__, cls.__reduce__ = __eq__, __hash__, __reduce__

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r}: {type(self).__name__} is immutable"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r}: {type(self).__name__} is immutable"
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
