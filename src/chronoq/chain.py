"""Quantum blockchain: superdense-coded blocks fused into a temporal GHZ chain,
plus a classical hash-chain baseline for the tamper-contrast property.

Each block carries a 2-bit record (r1, r2) encoded into the temporal Bell
state ``(1/sqrt(2)) (|0>|r2> + (-1)^r1 |1>|r2-bar>)``.  Appending fuses a
fresh encoded pair onto the last chain photon through a PBS, yielding a
2n-photon state with exactly two amplitude branches that are bit-complements
of each other; the relative sign carries r1 of the first record while every
other record bit appears literally in the leading branch.

The register holds that state as a ``qcore._SparseKet``: its two branches,
or after a tamper on the live photon at most four entries.  Appends, decode
and fidelity read and write those entries; the dense 2^n vector is built
only on request (``state.amplitudes``).  An append is one fused step
(``temporal.fuse_fresh_pair``): each chain entry keeps the one entry of the
fresh pair that the PBS lets through, and the register takes the new state,
modes and events only once a post-selection draw succeeds.

Temporal discipline: all photons remain part of the state, but only photons
at the chain's current (latest) time step are physically present; tampering
with an earlier photon raises :class:`TemporalInaccessible` — that is the
security feature itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    PAULI_X,
    RandomSource,
    StateVector,
    _INV_SQRT2,
    _SparseKet,
    _branch_index,
    branch_pair,
)
from .temporal import (
    TemporalError,
    TemporalRegister,
    apply_op,
    create_pair,
    delay,
    fuse_fresh_pair,
)

FUSION_RETRY_CAP = 64
VALIDITY_FIDELITY = 1.0 - 1e-6

_MASK64 = (1 << 64) - 1


class ChainError(ValueError):
    pass


class DecodeMismatch(ChainError):
    """DECODE_MISMATCH: the register state is not the expected chain state."""


class TemporalInaccessible(ChainError):
    """TEMPORAL_INACCESSIBLE: the targeted photon is in the past and no longer exists."""


@dataclass(frozen=True)
class Record:
    r1: int
    r2: int

    def __post_init__(self):
        if self.r1 not in (0, 1) or self.r2 not in (0, 1):
            raise ChainError("record bits must be 0 or 1")

    @classmethod
    def parse(cls, text: str) -> "Record":
        """A record from exactly two 0/1 characters, r1 first."""
        if len(text) != 2 or any(c not in "01" for c in text):
            raise ChainError(f"a record is two 0/1 characters, got {text!r}")
        return cls(int(text[0]), int(text[1]))

    @property
    def bits(self) -> str:
        return f"{self.r1}{self.r2}"


def encode_block(record: Record, t: int = 0) -> TemporalRegister:
    """Fresh register holding the record's temporal Bell state at times (t, t+1)."""
    reg = TemporalRegister()
    create_pair(reg, record.bits, ("p1", "p2"), t=t)
    delay(reg, "p2", 1)
    return reg


class QuantumChain:
    """A growing temporal-GHZ record chain."""

    def __init__(self):
        self.register = TemporalRegister()
        self.records: list[Record] = []
        self.valid = True

    # -- derived views --

    @property
    def timestamps(self) -> list[int]:
        return [m.time_step for m in self.register.live_modes]

    @property
    def current_time(self) -> int:
        return max(self.timestamps) if self.records else 0

    @property
    def record_string(self) -> str:
        return "".join(r.bits for r in self.records)

    def _expected_branch(self) -> tuple[list[int], int]:
        """Leading-branch bits and relative sign of the expected chain state,
        which :meth:`fidelity` reads at two indices and :meth:`expected_state`
        builds as a dense vector."""
        if not self.records:
            raise ChainError("empty chain")
        # The leading branch starts at 0 and then lists every record bit but
        # the first r1, which is the relative sign.
        bits = [0, self.records[0].r2]
        for rec in self.records[1:]:
            bits += [rec.r1, rec.r2]
        return bits, (-1) ** self.records[0].r1

    def expected_state(self) -> StateVector:
        """The target chain state for the stored record string."""
        return branch_pair(*self._expected_branch())

    def fidelity(self) -> float:
        """|<expected|psi>|^2, read from psi at the two branch indices only."""
        if not self.records:
            return 1.0
        bits, sign = self._expected_branch()
        lead = _branch_index(bits)
        state = self.register.state
        last = (1 << state.num_qubits) - 1
        overlap = _INV_SQRT2 * state.entry(lead) + sign * _INV_SQRT2 * state.entry(last - lead)
        return float(abs(overlap) ** 2)


def append(chain: QuantumChain, record: Record, rng: RandomSource) -> QuantumChain:
    """Extend the chain by one record via PBS fusion.

    The fresh pair is prepared so that the post-selected fusion yields the
    extended chain state exactly: the pair encodes (0, r2 xor last-bit), and
    when r1 of the new record differs from the chain's leading-branch last
    bit, an X correction is applied to the first new photon after fusion.
    Post-selection failures are retried with fresh randomness, up to
    FUSION_RETRY_CAP draws.  Every retry would rebuild the same candidate, so
    the fused, corrected state is built once, without touching the register,
    and each retry is one draw against the same success probability; the
    register changes only on a success.  Past the cap ChainError is raised
    and the chain is as it was.
    """
    if not chain.valid:
        raise ChainError("cannot append to an invalidated chain")
    if not chain.records:
        chain.register = encode_block(record, t=0)
        chain.register.state = _SparseKet.from_state(chain.register.state)
        chain.records.append(record)
        return chain

    k = len(chain.records)
    last_bit = chain.records[-1].r2
    pair = Record(0, record.r2 ^ last_bit)
    new_pair = (f"p{2 * k + 1}", f"p{2 * k + 2}")
    fused = fuse_fresh_pair(
        chain.register, pair.bits, new_pair, k, f"p{2 * k}", rng, FUSION_RETRY_CAP,
        flip=record.r1 != last_bit,
    )
    if not fused:
        raise ChainError("fusion retry cap exceeded")
    chain.records.append(record)
    return chain


def build_chain(records, rng: RandomSource) -> QuantumChain:
    chain = QuantumChain()
    for rec in records:
        append(chain, Record.parse(rec) if isinstance(rec, str) else rec, rng)
    return chain


def decode(chain: QuantumChain) -> str:
    """Read the record string back out of the register state.

    The decoder is simulator-privileged: it inspects the stored amplitudes
    directly.  It verifies the two-branch chain structure and that the
    extracted string matches the stored records; any deviation raises
    :class:`DecodeMismatch`.
    """
    if not chain.records:
        raise ChainError("empty chain")
    state = chain.register.state
    if state is None:
        raise DecodeMismatch("register state missing")
    n = state.num_qubits
    branch = np.abs(state.values) > 1e-8
    if np.count_nonzero(branch) != 2:
        raise DecodeMismatch("state does not have exactly two branches")
    (i, j), (amp_i, amp_j) = state.indices[branch].tolist(), state.values[branch]
    if i + j != (1 << n) - 1:
        raise DecodeMismatch("branches are not bit-complements")
    lead, amp_lead, amp_other = (i, amp_i, amp_j) if not (i >> (n - 1)) & 1 else (j, amp_j, amp_i)
    if abs(abs(amp_lead) - _INV_SQRT2) > 1e-8:
        raise DecodeMismatch("branch amplitudes are not balanced")
    ratio = amp_other / amp_lead
    if abs(ratio - 1.0) <= 1e-8:
        r1 = 0
    elif abs(ratio + 1.0) <= 1e-8:
        r1 = 1
    else:
        raise DecodeMismatch("relative branch phase is not +-1")
    branch_bits = [(lead >> (n - 1 - q)) & 1 for q in range(n)]
    extracted = [r1] + branch_bits[1:]
    decoded = "".join(str(b) for b in extracted)
    if decoded != chain.record_string:
        raise DecodeMismatch("decoded record string does not match the chain")
    return decoded


def tamper(chain: QuantumChain, spatial: str, op: np.ndarray) -> QuantumChain:
    """Apply an operator to a photon, if that photon still exists.

    Photons earlier than the chain's current time step are gone; touching
    them raises :class:`TemporalInaccessible`.  The validity flag is
    recomputed from fidelity with the expected chain state.
    """
    if not chain.records:
        raise ChainError("empty chain")
    try:
        idx = chain.register._find(spatial)
    except TemporalError as exc:
        raise ChainError(str(exc)) from exc
    mode = chain.register.modes[idx][0]
    if mode.time_step < chain.current_time:
        raise TemporalInaccessible(
            f"photon {spatial!r} (t={mode.time_step}) no longer exists "
            f"at chain time {chain.current_time}"
        )
    apply_op(chain.register, op, [spatial])
    chain.valid = chain.fidelity() >= VALIDITY_FIDELITY
    return chain


# ---------------------------------------------------------------------------
# Classical hash-chain baseline
# ---------------------------------------------------------------------------


def mix(x: int) -> int:
    """64-bit avalanche mixing function (splitmix-style finalizer).

    mix(x): z = (x + 0x9E3779B97F4A7C15) mod 2^64; z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9; z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31.  A toy stand-in for a cryptographic hash; the contrast
    property needs only determinism and sensitivity.
    """
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _digest(prev_digest: int, record: Record) -> int:
    return mix(((prev_digest << 2) | (record.r1 << 1) | record.r2) & _MASK64)


class ClassicalChain:
    """Toy hash chain: digest_k = mix(prev_digest_k || record_k)."""

    GENESIS = 0

    def __init__(self):
        self.blocks: list[dict] = []

    def append(self, record: Record) -> "ClassicalChain":
        prev = self.blocks[-1]["digest"] if self.blocks else self.GENESIS
        self.blocks.append(
            {"record": record, "prev_digest": prev, "digest": _digest(prev, record)}
        )
        return self

    def tamper_record(self, index: int, new_record: Record) -> "ClassicalChain":
        if not 0 <= index < len(self.blocks):
            raise ChainError("tamper index out of range")
        self.blocks[index]["record"] = new_record
        return self

    def verify(self) -> list[bool]:
        """Per-block consistency, recomputed from genesis over stored records."""
        out = []
        running = self.GENESIS
        for block in self.blocks:
            running = _digest(running, block["record"])
            out.append(running == block["digest"])
        return out


def classical_chain_tamper_contrast(
    n_blocks: int, tamper_index: int, rng: RandomSource
) -> dict:
    """Tamper the same record position in both chain flavors and compare damage."""
    if not 0 <= tamper_index < n_blocks:
        raise ChainError("tamper index out of range")
    records = [Record(int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(n_blocks)]

    classical = ClassicalChain()
    for rec in records:
        classical.append(rec)
    flipped = Record(records[tamper_index].r1 ^ 1, records[tamper_index].r2)
    classical.tamper_record(tamper_index, flipped)
    verdicts = classical.verify()
    broken = [i for i, ok in enumerate(verdicts) if not ok]

    quantum = build_chain(records, rng)
    last_photon = f"p{2 * n_blocks}"
    past_access = None
    if tamper_index < n_blocks - 1:
        try:
            tamper(quantum, f"p{2 * (tamper_index + 1)}", PAULI_X)
        except TemporalInaccessible:
            past_access = "TEMPORAL_INACCESSIBLE"
    tamper(quantum, last_photon, PAULI_X)
    try:
        decode(quantum)
        quantum_destroyed = False
    except DecodeMismatch:
        quantum_destroyed = True

    return {
        "invalidated_range_classical": [min(broken), n_blocks] if broken else [],
        "invalidated_range_quantum": [0, n_blocks] if quantum_destroyed else [],
        "past_mode_access": past_access,
        "quantum_fidelity_after_tamper": quantum.fidelity(),
    }
