"""Limits and defaults that the CLI reads when it declares its options.

They are defined here, in a module that imports nothing, so that
``import chronoq.cli`` and ``chronoq --help`` load neither numpy nor
``qcore``.  ``qcore`` re-exports each of them, and ``consensus``
and ``infotheory`` take the protocol defaults from ``qcore`` under the same
names.
"""

MAX_QUBITS = 20
DEFAULT_ROUNDS = 100
DEFAULT_THRESHOLD = 0.99
MAX_CODEC_BLOCK = 24

_BELL_ALIASES = {
    "phi+": "phi+", "Φ+": "phi+", "phi_plus": "phi+", "00": "phi+",
    "phi-": "phi-", "Φ-": "phi-", "phi_minus": "phi-", "10": "phi-",
    "psi+": "psi+", "Ψ+": "psi+", "psi_plus": "psi+", "01": "psi+",
    "psi-": "psi-", "Ψ-": "psi-", "psi_minus": "psi-", "11": "psi-",
}
