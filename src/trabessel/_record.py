"""Immutable records: the base of the package's parameter and result types.

A subclass declares its fields as its own class annotations, in order
(records do not extend one another); a class attribute is a field's
default, and a `{}` default is copied for each instance.  Every record
shares one `__init__` (positional or keyword arguments, then
`__post_init__` when the class has one), prints as `Name(field=value, ...)`,
compares and hashes by the tuple of its field values (only against its own
class), and refuses assignment and deletion.  These are the methods
`dataclass(frozen=True)` generates, written once, so that creating a record
class compiles no code.
"""


_setattr = object.__setattr__  # not self.__dict__, which would slow every later field read


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        attrs = vars(cls)
        cls._fields = tuple(attrs.get("__annotations__", ()))
        cls._defaults = {name: attrs[name] for name in cls._fields if name in attrs}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        for name, value in zip(cls._fields, args):
            _setattr(self, name, value)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values in order, from positional and keyword arguments
        and the defaults; TypeError for a missing, unknown or repeated one."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                value = cls._defaults[name]
                values.append(dict(value) if type(value) is dict else value)
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            if name in fields:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        return values

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        return (type(self).__qualname__ + "("
                + ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields]) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
