"""Record classes: the plan, the state, the verdicts and the reports.

A record class states its fields as annotations in its body, in order, and
a field's default as the class attribute of the same name.  `record` makes
the class a frozen record and `mutable_record` a mutable one.  Each installs
an __init__ that takes the fields by position or by name and then runs the
class's __post_init__, if it has one, and the __eq__, __hash__ and __repr__
of a dataclass with the same options:

- two records are equal when they are of the same class and their field
  tuples are equal; a record of another class, or a tuple, is not compared;
- a frozen record hashes its field tuple, and a mutable one is unhashable;
- the repr is `QualName(field=value, ...)`;
- assigning or deleting an attribute of a frozen record raises
  FrozenInstanceError.

No source code is generated: the methods are closures over the field names.
`_fields` holds the names in order, so callers walk the fields with it.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import FrozenInstanceError


def _install(cls):
    """Set _fields, __init__, __eq__ and __repr__ on cls; return its key,
    the function from a record to its field tuple."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    count, fields = len(names), frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    key = get if count > 1 else (lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        if kwargs or len(args) != count:
            # a call that leaves a field to its default or names one: it is
            # valid when it sets each field once
            values.update(defaults)
            values.update(kwargs)
            values.update(zip(names, args))
            if (values.keys() != fields or len(args) > count or args and kwargs
                    and not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__qualname__}() sets each of {names} once "
                                f"or leaves it to its default; got {len(args)} "
                                f"positional arguments and {sorted(kwargs)}")
        else:
            values.update(zip(names, args))
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({body})"

    cls._fields = names
    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    return key


def frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen, hashable record."""
    key = _install(cls)

    def __hash__(self):
        return hash(key(self))

    cls.__hash__ = __hash__
    cls.__setattr__, cls.__delattr__ = frozen_setattr, frozen_delattr
    return cls


def mutable_record(cls):
    """Make cls a mutable, unhashable record."""
    _install(cls)
    cls.__hash__ = None
    return cls


def replace(obj, **changes):
    """A record of obj's class with obj's fields, but for those in changes;
    the class's __post_init__ runs on it."""
    values = {name: getattr(obj, name) for name in obj._fields}
    values.update(changes)
    return obj.__class__(**values)
