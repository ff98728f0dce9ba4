"""Desk-scale commutative unital C*-algebras, computably.

Two concrete models (functions on a finite space, the algebra generated by
one normal matrix), their characters and Gelfand transform, spectral
calculus through honest truncated series, the contravariant functors to
and from finite spaces with verified naturality, and the ideal/quotient
correspondence with its Zariski topology.

The public names are the data modules' ``__all__``, imported on first use
(PEP 562) so that a command line run loads only the modules it runs.
"""

import importlib.util

_DATA_MODULES = ("algebra", "duality", "errors", "gelfand", "ideals", "interchange",
                 "spaces", "spectra", "spectral")

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, or else the public name a data module declares, imported now."""
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = [public for m in _DATA_MODULES for public in __getattr__(m).__all__]
    else:
        for module in map(__getattr__, _DATA_MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
