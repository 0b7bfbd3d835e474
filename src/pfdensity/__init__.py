"""Invariant densities of bounded polynomial iterations.

Subpackages: poly (root finding substrate), bell (generating-chain
polynomials and the triangular coefficient system), saddle (steepest
descent zero/invariant densities), quadform (symmetric eigen-decomposition,
an oracle for lorenz), empirical (orbit and zero-set statistics), odeiter
(differential iteration), lorenz (case study), cli.

Importing the package compiles none of its modules.  Each name of
__all__ is bound to a module registered in sys.modules whose source is
compiled and run on the first import of it or read, write or delete of
one of its attributes; a CLI command thus compiles only the modules it
runs.  A module-level __getattr__ (PEP 562) would defer as much, but
would leave the modules out of sys.modules until first use, where the
benchmark's tracer (perfbench/tracing.py) looks up the functions it
wraps.  importlib.util.LazyLoader would register them too, but before
Python 3.12.3 it marks a module loaded before running it, so a second
thread can read the half-run module; here every load runs under one
lock and a module is marked loaded only once its source has run.

numpy and mpmath load on first use too, so `hermite gen` and `ode euler`
run without numpy and most processes never import mpmath (about 40 ms of
start-up).  quadform, saddle and empirical, whose every function handles
arrays, import numpy at the top; any other module that needs it binds
np = _OnFirstUse("numpy", globals(), "np"), as poly and saddle bind
mpmath.  The first read of an attribute of that stand-in imports the
module and rebinds the name to it, so from then on np.x is a plain global
lookup of numpy: a proxy that forwarded every read made lorenz run 4.6 %
slower.
"""

import importlib.util
import math
import sys
import threading
import types

__all__ = ["bell", "empirical", "errors", "lorenz", "odeiter", "poly",
           "quadform", "saddle"]
__version__ = "0.1.0"

_load_lock = threading.RLock()
# name -> namespace at registration, for each module not yet being loaded
_unloaded: dict = {}


def _load(module) -> None:
    """Run a registered module's source unless it ran or is running."""
    with _load_lock:
        name = types.ModuleType.__getattribute__(module, "__name__")
        blank = _unloaded.pop(name, None)
        if blank is None:  # loaded, or being loaded by this thread
            return
        try:
            module.__spec__.loader.exec_module(module)
        except BaseException:
            # back to registered and unloaded, so the next use runs it again
            namespace = module.__dict__
            namespace.clear()
            namespace.update(blank)
            _unloaded[name] = blank
            raise
        object.__setattr__(module, "__class__", types.ModuleType)


class _LazyModule(types.ModuleType):
    """A registered module; any use of one of its attributes loads it."""

    def __getattribute__(self, attr):
        _load(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _load(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _load(self)
        types.ModuleType.__delattr__(self, attr)


class _OnFirstUse:
    """namespace[alias] until the first read of an attribute, which imports
    the module `name`, binds it as namespace[alias] and reads it there."""

    def __init__(self, name: str, namespace: dict, alias: str):
        self._name, self._namespace, self._alias = name, namespace, alias

    def __getattr__(self, attr):
        module = importlib.import_module(self._name)
        self._namespace[self._alias] = module
        return getattr(module, attr)


def _finite(x) -> bool:
    """math.isfinite(x), False for an int beyond the double range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    _unloaded[spec.name] = dict(module.__dict__)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


for _name in __all__:
    globals()[_name] = _register_lazily(_name)
del _name
