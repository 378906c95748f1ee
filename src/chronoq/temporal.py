"""Temporal-mode bookkeeping: pair creation, delay lines, Bell measurement,
and polarizing-beam-splitter (PBS) fusion.

A :class:`TemporalRegister` tracks photonic modes that exist at different
time steps.  Polarization h/v maps to the computational |0>/|1> basis.  Time
steps are dimensionless integers; only their ordering matters.  Consumed
(measured) modes are dropped from the state vector rather than kept as dead
tensor factors, which is what lets protocols entangle photons that never
coexist while staying inside the dense-simulation qubit budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    MAX_QUBITS,
    BELL_LABELS,
    DensityOperator,
    RandomSource,
    StateVector,
    bell_state,
    branch_pair,
)


class TemporalError(ValueError):
    pass


@dataclass(frozen=True)
class ModeId:
    spatial: str
    time_step: int


@dataclass(frozen=True)
class BellOutcome:
    label: str  # one of BELL_LABELS
    probability: float


class TemporalRegister:
    """Single-owner mutable register of temporal modes.

    ``modes`` is an ordered list of ``[ModeId, consumed]`` entries; the state
    vector covers the live (unconsumed) modes in list order.  ``event_log``
    is append-only with non-decreasing time steps.  ``valid`` flips to False
    when a fusion attempt fails (post-selection miss); retry policy belongs
    to the caller, who should work from a :meth:`snapshot`.
    """

    def __init__(self):
        self.state: StateVector | None = None
        self.modes: list[list] = []  # [ModeId, consumed]
        self.event_log: list[dict] = []
        self.valid: bool = True

    # -- bookkeeping helpers --

    @property
    def last_event_time(self) -> int:
        return self.event_log[-1]["t"] if self.event_log else 0

    @property
    def live_modes(self) -> list[ModeId]:
        return [m for m, consumed in self.modes if not consumed]

    def _find(self, spatial: str) -> int:
        for i, (mode, _) in enumerate(self.modes):
            if mode.spatial == spatial:
                return i
        raise TemporalError(f"unknown mode {spatial!r}")

    def _live_index(self, spatial: str) -> int:
        """Index of a live mode within the state vector's qubit order."""
        idx = self._find(spatial)
        if self.modes[idx][1]:
            raise TemporalError(f"mode {spatial!r} already consumed")
        return sum(1 for m, consumed in self.modes[:idx] if not consumed)

    def _log(self, event: str, spatials: Sequence[str], t: int):
        if self.event_log and t < self.last_event_time:
            raise TemporalError("event time ordering violated")
        self.event_log.append({"event": event, "modes": sorted(spatials), "t": int(t)})

    def snapshot(self) -> "TemporalRegister":
        """Independent copy: its own mode entries, event log and validity flag.

        The immutable :class:`StateVector` is shared, not copied; every
        operation replaces ``state`` rather than writing into it.
        """
        copy = TemporalRegister()
        copy.state = self.state
        copy.modes = [list(entry) for entry in self.modes]
        copy.event_log = [dict(e, modes=list(e["modes"])) for e in self.event_log]
        copy.valid = self.valid
        return copy

    def event_log_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.event_log)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def create_pair(
    reg: TemporalRegister, label: str, spatial_pair: Sequence[str], t: int
) -> TemporalRegister:
    """Add two fresh live modes in the chosen Bell state at time step t."""
    if not reg.valid:
        raise TemporalError("register invalidated by a failed fusion")
    if len(spatial_pair) != 2 or spatial_pair[0] == spatial_pair[1]:
        raise TemporalError("need two distinct spatial labels")
    for s in spatial_pair:
        if any(m.spatial == s for m, _ in reg.modes):
            raise TemporalError(f"spatial label {s!r} already in use")
    if t < reg.last_event_time:
        raise TemporalError("cannot create a pair before the last event")
    n_live = len(reg.live_modes)
    if n_live + 2 > MAX_QUBITS:
        raise TemporalError(f"register would exceed {MAX_QUBITS} qubits")
    pair = bell_state(label)
    reg.state = pair if reg.state is None else reg.state.tensor(pair)
    for s in spatial_pair:
        reg.modes.append([ModeId(s, int(t)), False])
    reg._log("create", spatial_pair, t)
    return reg


def delay(reg: TemporalRegister, spatial: str, dt: int) -> TemporalRegister:
    """Shift a live mode later in time; amplitudes are untouched."""
    if dt <= 0:
        raise TemporalError("delay must be positive")
    idx = reg._find(spatial)
    mode, consumed = reg.modes[idx]
    if consumed:
        raise TemporalError(f"mode {spatial!r} already consumed")
    new_t = mode.time_step + int(dt)
    reg.modes[idx][0] = ModeId(mode.spatial, new_t)
    # The delay line is entered at the mode's original time step.
    reg._log("delay", [spatial], max(mode.time_step, reg.last_event_time))
    return reg


def apply_op(reg: TemporalRegister, op: np.ndarray, spatials: Sequence[str]) -> TemporalRegister:
    """Apply a unitary to the given live modes (not logged: local instantaneous op)."""
    if not reg.valid:
        raise TemporalError("register invalidated by a failed fusion")
    targets = [reg._live_index(s) for s in spatials]
    reg.state = reg.state.apply(np.asarray(op, dtype=np.complex128), targets)
    return reg


def _drop_modes(reg: TemporalRegister, spatials: Sequence[str], kept_state: np.ndarray):
    for s in spatials:
        reg.modes[reg._find(s)][1] = True
    if kept_state.size > 1:
        reg.state = StateVector(kept_state, normalize=True)
    else:
        reg.state = None


def measure_mode(
    reg: TemporalRegister,
    spatial: str,
    rng: RandomSource,
    *,
    forced_outcome: int | None = None,
) -> int:
    """Z-basis measurement of one live mode; the mode is consumed."""
    if not reg.valid:
        raise TemporalError("register invalidated by a failed fusion")
    q = reg._live_index(spatial)
    mode = reg.modes[reg._find(spatial)][0]
    t = max(mode.time_step, reg.last_event_time)
    n = reg.state.num_qubits
    psi = np.moveaxis(reg.state.amplitudes.reshape([2] * n), q, 0)
    probs = [float(np.sum(np.abs(psi[b]) ** 2)) for b in (0, 1)]
    if forced_outcome is None:
        outcome = rng.choice_index(probs)
    else:
        outcome = int(forced_outcome)
        if probs[outcome] <= 1e-12:
            raise TemporalError("forced outcome has zero probability")
    kept = psi[outcome].reshape(-1)
    _drop_modes(reg, [spatial], kept)
    reg._log("measure", [spatial], t)
    return outcome


def bell_measure(
    reg: TemporalRegister,
    s1: str,
    s2: str,
    rng: RandomSource,
    *,
    forced_label: str | None = None,
) -> BellOutcome:
    """Bell-state measurement on two live modes; both are consumed."""
    if not reg.valid:
        raise TemporalError("register invalidated by a failed fusion")
    if s1 == s2:
        raise TemporalError("cannot Bell-measure a mode against itself")
    q1, q2 = reg._live_index(s1), reg._live_index(s2)
    t = max(
        reg.modes[reg._find(s1)][0].time_step,
        reg.modes[reg._find(s2)][0].time_step,
        reg.last_event_time,
    )
    n = reg.state.num_qubits
    psi = reg.state.amplitudes.reshape([2] * n)
    rest = [i for i in range(n) if i not in (q1, q2)]
    psi = np.transpose(psi, [q1, q2] + rest).reshape(4, -1)
    branches = {}
    probs = []
    for label in BELL_LABELS:
        bra = bell_state(label).amplitudes.conj()
        branch = bra @ psi  # amplitudes of the remaining modes
        branches[label] = branch
        probs.append(float(np.sum(np.abs(branch) ** 2)))
    if forced_label is None:
        label = BELL_LABELS[rng.choice_index(probs)]
    else:
        if forced_label not in BELL_LABELS:
            raise TemporalError(f"unknown Bell label {forced_label!r}")
        label = forced_label
        if probs[BELL_LABELS.index(label)] <= 1e-12:
            raise TemporalError("forced outcome has zero probability")
    prob = probs[BELL_LABELS.index(label)]
    _drop_modes(reg, [s1, s2], branches[label])
    reg._log("measure", [s1, s2], t)
    return BellOutcome(label, prob)


def _project_equal_bits(buffer: np.ndarray, n_qubits: int, q1: int, q2: int) -> None:
    """Apply the diagonal F = |hh><hh| + |vv><vv| on qubits (q1, q2) in place:
    zero the entries of a contiguous 2^n buffer where the two bits differ."""
    a, b = sorted((q1, q2))
    blocks = buffer.reshape(1 << a, 2, 1 << (b - a - 1), 2, 1 << (n_qubits - b - 1))
    blocks[:, 0, :, 1] = 0
    blocks[:, 1, :, 0] = 0


def pbs_fuse(reg: TemporalRegister, s1: str, s2: str, rng: RandomSource) -> bool:
    """Post-selected PBS fusion F = |hh><hh| + |vv><vv| on two live modes.

    On success the state is projected and renormalized; both modes stay
    live.  On failure the register is marked invalid — retrying is the
    caller's policy (typically from a prior snapshot).
    """
    return _post_selected_fuse(reg, s1, s2, rng, attempts=1)


def _post_selected_fuse(
    reg: TemporalRegister, s1: str, s2: str, rng: RandomSource, attempts: int
) -> bool:
    """:func:`pbs_fuse` retried up to ``attempts`` times on the same input.

    F|psi> and p_success = <psi|F|psi> are computed once; each attempt is one
    ``rng.uniform()`` draw, which succeeds below p_success.  The draws, the
    one "fuse" event and the resulting register are those of calling
    :func:`pbs_fuse` on fresh snapshots of ``reg`` until one succeeds.
    """
    if not reg.valid:
        raise TemporalError("register invalidated by a failed fusion")
    if s1 == s2:
        raise TemporalError("cannot fuse a mode with itself")
    q1, q2 = reg._live_index(s1), reg._live_index(s2)
    t = max(
        reg.modes[reg._find(s1)][0].time_step,
        reg.modes[reg._find(s2)][0].time_step,
        reg.last_event_time,
    )
    projected = reg.state.amplitudes.copy()
    _project_equal_bits(projected, reg.state.num_qubits, q1, q2)
    p_success = float(np.vdot(projected, projected).real)
    reg._log("fuse", [s1, s2], t)
    if not any(rng.uniform() < p_success for _ in range(attempts)):
        reg.valid = False
        return False
    reg.state = StateVector._adopt(projected, normalize=True)
    return True


# ---------------------------------------------------------------------------
# Closed forms and the recursive density construction
# ---------------------------------------------------------------------------


def ghz_density_recursive(pair_rho: DensityOperator, n_pairs: int) -> DensityOperator:
    """Fuse n identical two-photon density operators into a 2n-photon state.

    Applies the PBS projector between each adjacent pair boundary and
    renormalizes; on pure Bell-pair inputs this matches repeated
    :func:`pbs_fuse` successes.
    """
    if pair_rho.dim != 4:
        raise TemporalError("pair_rho must be a 2-qubit density operator")
    if n_pairs < 1:
        raise TemporalError("need at least one pair")
    n_qubits = 2 * n_pairs
    if n_qubits > MAX_QUBITS:
        raise TemporalError(f"register would exceed {MAX_QUBITS} qubits")
    # F is diagonal, so F rho F keeps only the rows and columns where every
    # fusion boundary agrees: 2^(n_pairs+1) of them.  On that block each
    # entry is the product of the per-pair entries, taken left to right as
    # the Kronecker product would.
    keep = np.ones(1 << n_qubits, dtype=bool)
    for k in range(1, n_pairs):
        _project_equal_bits(keep, n_qubits, 2 * k - 1, 2 * k)
    support = np.flatnonzero(keep)
    block = np.ones((support.size, support.size), dtype=np.complex128)
    for k in range(n_pairs):
        digit = (support >> (n_qubits - 2 - 2 * k)) & 3
        block *= pair_rho.matrix[digit[:, None], digit[None, :]]
    tr = float(np.real(np.trace(block)))
    if tr <= 1e-15:
        raise TemporalError("fusion annihilated the state")
    # FρF/tr of a validated rho needs no second check.
    rho = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=np.complex128)
    rho[np.ix_(support, support)] = block / tr
    return DensityOperator(rho, validate=False)


def temporal_ghz_closed_form(n_pairs: int) -> StateVector:
    """The state produced by fusing n psi+ pairs: (|h (vvhh)* ...> + complement)/sqrt(2).

    Within a pair the two photons are opposite (psi+); across a fusion
    boundary they are equal, so photon k carries bit ((k + 1) // 2) mod 2.
    """
    return branch_pair([(k + 1) // 2 % 2 for k in range(2 * n_pairs)])


def swap_demo(rng: RandomSource, forced_label: str | None = None) -> dict:
    """Two-pair entanglement swap with full event logging.

    Photon 1 is measured at time 0, before pair 2 even exists; the middle
    Bell measurement at time 1 still correlates photons 1 and 4.  Returns the
    event log plus a conditional-fidelity check computed on a twin register
    where photon 1 is left unmeasured.
    """
    from .entangle import fidelity  # local import to avoid a cycle at import time

    # Register A: the strict temporal ordering, photon 1 consumed first.
    reg = TemporalRegister()
    create_pair(reg, "psi-", ("p1", "p2"), t=0)
    delay(reg, "p2", 1)
    outcome1 = measure_mode(reg, "p1", rng)
    create_pair(reg, "psi-", ("p3", "p4"), t=1)
    delay(reg, "p4", 1)
    middle = bell_measure(reg, "p2", "p3", rng, forced_label=forced_label)
    outcome4 = measure_mode(reg, "p4", rng)

    # Register B: identical layout but photon 1 kept, to evaluate the
    # conditional outer-pair state.
    twin = TemporalRegister()
    create_pair(twin, "psi-", ("p1", "p2"), t=0)
    delay(twin, "p2", 1)
    create_pair(twin, "psi-", ("p3", "p4"), t=1)
    delay(twin, "p4", 1)
    bell_measure(twin, "p2", "p3", rng, forced_label=middle.label)
    outer = twin.state.to_density()
    fid = fidelity(outer, bell_state(middle.label).to_density())

    events = reg.event_log
    consumed_p1_at = next(
        e["t"] for e in events if e["event"] == "measure" and e["modes"] == ["p1"]
    )
    created_p4_at = next(
        e["t"] for e in events if e["event"] == "create" and "p4" in e["modes"]
    )
    return {
        "middle_outcome": middle.label,
        "photon1_outcome": outcome1,
        "photon4_outcome": outcome4,
        "outer_pair_fidelity": fid,
        "photon1_consumed_before_photon4_created": consumed_p1_at < created_p4_at,
        "event_log": events,
    }
