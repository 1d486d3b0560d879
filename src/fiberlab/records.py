"""The one base of fiberlab's validated value types.

A validated value (an alphabet, a word, a chain or fiber spec, a sampled
trajectory, an orbit name, a codebook, a coded stream or a config) checks
and converts its fields once, in __post_init__, and never changes after.
FrozenRecord gives each such class the value semantics of a frozen
dataclass from one set of methods that every subclass shares: the class
is read once, when it is defined, and no code is generated or compiled
for it, so importing fiberlab costs no per-class compile.  The result
bundles that validate nothing are typing.NamedTuple classes instead.
"""


class FrozenRecord:
    """An immutable record whose fields are its class's own annotations, in order.

    A field's default is the class attribute of its name.  A subclass
    names in _uncompared the fields left out of ==, hash and repr.  The
    constructor takes the fields by position or keyword, fills in the
    defaults, sets every field and then calls __post_init__, which may
    replace a field by object.__setattr__; any other assignment or
    deletion raises AttributeError.  Two records are equal when they are
    of one class and their compared fields are equal as tuples, and a
    record hashes as that tuple.
    """

    _uncompared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._compared = tuple(name for name in cls._fields if name not in cls._uncompared)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # set one at a time, as __dict__ itself would trade the instance's inline
        # values for a dict, and every read of a field would then take a slower path
        for i, name in enumerate(fields):
            object.__setattr__(self, name, args[i])
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value in order, from arguments bound as a call's parameters are, or TypeError."""
        call = f"{cls.__qualname__}()"
        if len(args) > len(cls._fields):
            raise TypeError(f"{call} takes {len(cls._fields)} positional arguments but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in cls._fields if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{call} missing required arguments: {', '.join(map(repr, missing))}")
        return [values[name] if name in values else cls._defaults[name] for name in cls._fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._compared, self._key()))
        return f"{self.__class__.__qualname__}({fields})"
