"""Frozen records built from plain closures, so that defining one generates
no code at import."""


def _same(x, y) -> bool:
    """Equal field values: the same object, or the same shape and == everywhere."""
    equal = x is y or (getattr(x, "shape", None) == getattr(y, "shape", None) and x == y)
    return equal if isinstance(equal, bool) else bool(equal.all())


def record(cls):
    """Make ``cls`` a frozen record of the fields annotated in its own body, in
    order; a class attribute named like a field is that field's default.  It
    takes its fields by position or keyword, then runs ``__post_init__``; it
    prints as ``Name(field=value, ...)``, compares (arrays element by element)
    and hashes by its field values and refuses assignment."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = dict(zip(names, args))
        for name in kwargs:
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unknown or repeated field {name!r}")
        values = {**defaults, **values, **kwargs}
        if len(args) > len(names) or len(values) < len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        vars(self).update((name, values[name]) for name in names)
        if post_init is not None:
            post_init(self)

    def astuple(self):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, astuple(self), astuple(other)))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def frozen(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(astuple(self))
    cls.__setattr__ = cls.__delattr__ = frozen
    cls.__record_fields__ = names
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes``, checked like a new one."""
    fields = {name: getattr(obj, name) for name in type(obj).__record_fields__}
    return type(obj)(**{**fields, **changes})
