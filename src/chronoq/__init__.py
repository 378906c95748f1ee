"""chronoq: dense quantum-information simulations — states, entanglement,
temporal protocols, a quantum blockchain with theta-protocol consensus, and
foundations results (Gleason reconstruction, Leggett-Garg inequalities).

``import chronoq`` loads no submodule.  Each one loads on first access,
``chronoq.chain`` as well as ``from chronoq import chain``, so a program (or
a ``chronoq`` command) pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "chain",
    "consensus",
    "entangle",
    "foundations",
    "games",
    "infotheory",
    "qcore",
    "temporal",
)

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # import_module binds the submodule here, so this runs once per name.
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
