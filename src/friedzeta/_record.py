"""``@record``: what ``dataclass(frozen=True)`` gives a class, from methods compiled once with this module.

Fields are the class's own annotations in order, defaults the class attributes of those names.  A
method the class defines itself is kept; ``eq=False`` keeps identity equality and hashing.
"""


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a record."""


def record(cls=None, *, eq: bool = True):
    """Make ``cls`` a frozen record; used as ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda c: record(c, eq=eq)
    names = cls.__record_fields__ = tuple(cls.__dict__.get("__annotations__", {}))
    cls.__record_defaults__ = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls.__record_post__ = hasattr(cls, "__post_init__")
    methods = dict(__init__=_init, __repr__=_repr, __setattr__=_frozen, __delattr__=_frozen)
    for name, method in {**methods, **(dict(__eq__=_eq, __hash__=_hash) if eq else {})}.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _init(self, *args, **kwargs):
    names = self.__record_fields__
    if kwargs or len(args) != len(names):  # every field by position skips the binding
        given = {**self.__record_defaults__, **dict(zip(names, args)), **kwargs}
        if len(given) < len(names) or len(args) > len(names) or any(
                key in names[:len(args)] or key not in names for key in kwargs):  # missing, extra, repeated
            raise TypeError(f"{type(self).__name__}() takes {names}; got {len(args)} by position, {[*kwargs]}")
        args = map(given.__getitem__, names)
    self.__dict__.update(zip(names, args))
    if self.__record_post__:
        self.__post_init__()


def _values(self) -> tuple:
    return tuple(map(self.__dict__.__getitem__, self.__record_fields__))


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self.__record_fields__, _values(self)))})"


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen(self, name, value=None):
    raise FrozenRecordError(f"cannot assign to or delete field {name!r}")


def fields(obj) -> tuple[str, ...]:
    return obj.__record_fields__


def asdict(obj) -> dict:
    """Field name to value, one level deep: values are neither converted nor copied."""
    return dict(zip(obj.__record_fields__, _values(obj)))


def replace(obj, **changes):
    return obj.__class__(**{**asdict(obj), **changes})
