"""Immutable records without dataclasses, whose import and code generation slow start-up."""


class Record:
    """Fields named in __slots__ bind by position or keyword, else from _defaults, then
    __post_init__ checks them; assignment raises AttributeError; equal fields, equal records."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(self._defaults, **dict(zip(names, args)), **kwargs)
        if len(args) > len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _immutable(self, name, value=None):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # the default would restore the slots through __setattr__, which raises
        return type(self), self._values()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
