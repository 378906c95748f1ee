"""chronoq: dense quantum-information simulations — states, entanglement,
temporal protocols, a quantum blockchain with theta-protocol consensus, and
foundations results (Gleason reconstruction, Leggett-Garg inequalities).
"""

from . import (  # noqa: F401
    chain,
    consensus,
    entangle,
    foundations,
    games,
    infotheory,
    qcore,
    temporal,
)

__version__ = "0.1.0"

__all__ = [
    "chain",
    "consensus",
    "entangle",
    "foundations",
    "games",
    "infotheory",
    "qcore",
    "temporal",
    "__version__",
]
