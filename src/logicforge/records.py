"""Value classes: equality, hash and repr over the fields ``__init__`` takes.

A record's fields are the parameters of its ``__init__``, in order, read off
its code object when the class is made; equality, hash and repr leave out
those a class names in ``_hidden``. Records of different classes never
compare equal, and a record hashes as the tuple of its compared fields. A
class that is mutated after it is built sets ``__hash__`` to None; a
``Frozen`` one refuses assignment.
"""


class Record:
    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._compared = tuple(name for name in cls._fields if name not in cls._hidden)

    def __init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose ``__init__`` sets its fields through ``vars(self)``, and
    which refuses any later assignment."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
