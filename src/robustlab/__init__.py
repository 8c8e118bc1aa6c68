"""Robustness measures of low-dimensional quantum states: engines for
absolute and global robustness against configurable free sets, empirical
continuity audits, and the planar constructions showing where continuity
fails.

The package's public names are those in the ``__all__`` of its modules,
and each is loaded on first use (PEP 562), so importing the package costs
nothing and a caller pays only for the submodules it touches: the planar
engine and the Bell-diagonal closed forms, for two, run without numpy.
``dir()`` and ``__all__`` load every module.
"""

from importlib import import_module

__version__ = "0.1.0"

# A name is looked up in the ``__all__`` of these modules, in this order.
# The ones that run without numpy come first, so that looking up one of
# their names never imports a module that needs it.
_MODULES = ("config", "errors", "bds", "geometry2d", "qstates", "free_sets", "engines", "audit")
# a submodule name is not a public name: ``from robustlab import cli`` then
# imports the submodule alone, without a search through the others
_SUBMODULES = frozenset(_MODULES) | {"operator_core", "cli"}


def _module(name: str):
    return import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name == "__all__":
        value = list(dict.fromkeys(n for m in _MODULES for n in _module(m).__all__))
    else:
        owner = None
        if name not in _SUBMODULES and not name.startswith("_"):
            owner = next((m for m in map(_module, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
