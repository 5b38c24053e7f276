"""Quantify test-time scaling capability from per-sample evaluation trajectories.

The package scores how a model's accuracy responds to added inference
compute: the ARISE score rewards accuracy gained cheaply and penalizes
accuracy lost after spending more tokens, while the pairwise scaling
metric reports the average accuracy-per-token gradient. An adaptive
sampling loop keeps drawing trials per (sample, level) configuration
until the combined coefficient of variation falls below a threshold,
so noisy configurations get more trials than stable ones.

Every name in a submodule's `__all__`, its one export list, is `arise.<name>`.
The HTTP backend's names (and with them `requests`) load on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("metrics", "sampling", "simulator", "store")


def _export(module_name: str) -> list[str]:
    module = _import_module(f".{module_name}", __name__)
    globals().update((name, getattr(module, name)) for name in module.__all__)
    return module.__all__


_EAGER = ["__version__", *(name for module_name in _MODULES for name in _export(module_name))]


def __getattr__(name: str) -> object:
    """Serve a missing name, `__all__` included, by loading `arise.backend` (PEP 562)."""
    namespace = globals()
    if "__all__" not in namespace:
        namespace["__all__"] = [*_EAGER, *_export("backend")]
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
