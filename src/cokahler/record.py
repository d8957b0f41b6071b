"""Record classes: the package's stand-in for ``@dataclass``, whose module
imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``); that import and
the decorator's per-class work were half of ``import cokahler`` (29-40 ms
against 15-16 ms without them, in-process, byte-compiled).  Fields are the
class annotations, inherited ones first, and ``__init__`` is generated once
per class, as a dataclass's is.  ``==`` compares class and fields, so records
are unhashable unless ``frozen=True``, which blocks assignment and hashes by
fields.  ``vars(record)`` holds exactly the fields.
"""

from __future__ import annotations


class Fresh:
    """A default made anew for each instance, as ``Fresh(list)``."""

    def __init__(self, factory):
        self.factory = factory


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen: bool = False):
        own = vars(cls).get("__annotations__", {})
        cls._fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {**cls._defaults,
                         **{f: vars(cls)[f] for f in own if f in vars(cls)}}
        env, args, body = {"_setattr": object.__setattr__}, [], []
        for f in cls._fields:
            value = f
            args.append(f"{f}=_d_{f}" if f in cls._defaults else f)
            default = env[f"_d_{f}"] = cls._defaults.get(f)
            if isinstance(default, Fresh):
                env[f"_new_{f}"] = default.factory
                value = f"_new_{f}() if {f} is _d_{f} else {f}"
            body.append(f"_setattr(self, {f!r}, {value})" if frozen
                        else f"self.{f} = {value}")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        src = (f"def __init__(self, {', '.join(args)}):\n    "
               + "\n    ".join(body))
        if frozen:
            fields = "".join(f"self.{f}, " for f in cls._fields)
            src += f"\ndef __hash__(self):\n    return hash(({fields}))"
            cls.__setattr__ = cls.__delattr__ = Record._frozen
        exec(src, env)
        for name in ("__init__", "__hash__")[:1 + frozen]:
            env[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, env[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")
