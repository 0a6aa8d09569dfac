"""ratdiff: dynamics of a guarded second-order rational recurrence in C.

The library simulates z[n+1] = (a + a*z[n] + b*z[n-1]) / (1 + z[n]) with
complex parameters and seeds, classifies its equilibria and orbits,
certifies bounded regions, detects cycles, estimates Lyapunov exponents,
and scans parameter space.  The `ratdiff` CLI front end emits CSV, JSON,
and SVG artifacts.
"""

from importlib import import_module

__version__ = "0.1.0"

# the modules whose public names __all__ lists, in order; each loads on first use
_MODULES = ("core", "stability", "invariants", "analysis", "lanes", "scan", "serialize")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":  # VERDICT_UNBOUNDED is shared by two modules
        return list(dict.fromkeys(["__version__", *(
            public for module in _MODULES for public in __getattr__(module).__all__)]))
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
