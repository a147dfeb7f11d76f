"""The base of the package's value classes, in place of ``dataclasses``.

A subclass names its fields in ``_fields``, and its ``__init__`` stores them
in the instance dict.  Equality holds between instances of the same class
whose fields are equal, the hash is that of the tuple of fields, and the repr
is ``Name(field=value, ...)``, all as ``@dataclass`` gives them; values kept
in the instance dict outside the fields, such as a cached property, take no
part.  Instances are frozen unless the class is declared with
``frozen=False``, which also makes it unhashable.
"""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
