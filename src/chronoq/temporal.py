"""Temporal-mode bookkeeping: pair creation, delay lines, Bell measurement,
and polarizing-beam-splitter (PBS) fusion.

A :class:`TemporalRegister` tracks photonic modes that exist at different
time steps.  Polarization h/v maps to the computational |0>/|1> basis.  Time
steps are dimensionless integers; only their ordering matters.  Consumed
(measured) modes are dropped from the state vector rather than kept as dead
tensor factors, which is what lets protocols entangle photons that never
coexist while staying inside the dense-simulation qubit budget.

The register's state is a :class:`qcore.StateVector`, or a
``qcore._SparseKet`` that holds only its nonzero entries.  A dense register
grows by :func:`create_pair`; a sparse one, the temporal chain's two
complementary branches, grows only by :func:`fuse_fresh_pair`, the PBS
fusion of a fresh pair.  One-mode operators and measurements take either
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    MAX_QUBITS,
    BELL_LABELS,
    I2,
    DensityOperator,
    QcoreError,
    RandomSource,
    StateVector,
    _project_equal_bits,
    _SparseKet,
    bell_state,
    branch_pair,
    collapse,
    is_integer,
    is_unitary,
)


class TemporalError(ValueError):
    pass


# Rows are the bras <phi+|, <phi-|, <psi+|, <psi-| on two modes.
_BELL_BRAS = np.array([bell_state(label).amplitudes.conj() for label in BELL_LABELS])


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
    covers the live (unconsumed) modes in list order.  ``event_log``
    is append-only with non-decreasing time steps.  An operation that
    raises, or a fusion whose every post-selection draw misses, leaves the
    register as it was.

    Two indexes spare the operations a scan of ``modes``: each spatial label
    maps to its entry's position, and each live label to its qubit in the
    state.  :func:`create_pair` and :func:`fuse_fresh_pair` add to both, the
    measurements renumber the live qubits as they consume modes, and
    assigning ``modes`` rebuilds both.
    """

    def __init__(self):
        self.state: StateVector | _SparseKet | None = None
        self.modes = []
        self.event_log: list[dict] = []

    @property
    def modes(self) -> list[list]:
        return self._modes

    @modes.setter
    def modes(self, entries: list[list]):
        self._modes = entries
        self._position = {mode.spatial: i for i, (mode, _) in enumerate(entries)}
        self._renumber_live()

    def _renumber_live(self):
        self._qubit = {mode.spatial: q for q, mode in enumerate(self.live_modes)}

    # -- bookkeeping helpers --

    @property
    def last_event_time(self) -> int:
        return self.event_log[-1]["t"] if self.event_log else 0

    @property
    def live_modes(self) -> list[ModeId]:
        return [m for m, consumed in self._modes if not consumed]

    def _find(self, spatial: str) -> int:
        try:
            return self._position[spatial]
        except KeyError:
            raise TemporalError(f"unknown mode {spatial!r}") from None

    def _live_index(self, spatial: str) -> int:
        """Index of a live mode within the state vector's qubit order."""
        q = self._qubit.get(spatial)
        if q is None:
            self._find(spatial)
            raise TemporalError(f"mode {spatial!r} already consumed")
        return q

    def _log(self, event: str, spatials: Sequence[str], t: int):
        if self.event_log and t < self.last_event_time:
            raise TemporalError("event time ordering violated")
        self.event_log.append({"event": event, "modes": sorted(spatials), "t": int(t)})


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _event_time(reg: TemporalRegister, spatials: Sequence[str]) -> int:
    """An operation on ``spatials`` happens at the latest of their time steps
    and the last logged event."""
    return max([reg.modes[reg._find(s)][0].time_step for s in spatials] + [reg.last_event_time])


def create_pair(
    reg: TemporalRegister, label: str, spatial_pair: Sequence[str], t: int
) -> TemporalRegister:
    """Add two fresh live modes in the chosen Bell state at time step t.

    The register holds no state or a dense one; a sparse ket grows only by
    :func:`fuse_fresh_pair`."""
    _check_new_pair(reg, spatial_pair, t)
    if isinstance(reg.state, _SparseKet):
        raise TemporalError("a register holding a sparse ket grows only by fuse_fresh_pair")
    pair = bell_state(label)
    reg.state = pair if reg.state is None else reg.state.tensor(pair)
    _add_pair_modes(reg, spatial_pair, (t, t))
    reg._log("create", spatial_pair, t)
    return reg


def _check_new_pair(reg: TemporalRegister, spatial_pair: Sequence[str], t: int):
    """Raise unless a pair can be created on ``spatial_pair`` at time step t."""
    if len(spatial_pair) != 2 or spatial_pair[0] == spatial_pair[1]:
        raise TemporalError("need two distinct spatial labels")
    for s in spatial_pair:
        if s in reg._position:
            raise TemporalError(f"spatial label {s!r} already in use")
    if not is_integer(t):
        raise TemporalError(f"time step must be an integer, got {t!r}")
    if t < reg.last_event_time:
        raise TemporalError("cannot create a pair before the last event")
    if len(reg._qubit) + 2 > MAX_QUBITS:
        raise TemporalError(f"register would exceed {MAX_QUBITS} qubits")


def _add_pair_modes(reg: TemporalRegister, spatial_pair: Sequence[str], times: Sequence[int]):
    """Append two live modes, the last qubits of the state, to both indexes."""
    for s, t in zip(spatial_pair, times):
        reg._position[s] = len(reg.modes)
        reg._qubit[s] = len(reg._qubit)
        reg.modes.append([ModeId(s, int(t)), False])


def delay(reg: TemporalRegister, spatial: str, dt: int) -> TemporalRegister:
    """Shift a live mode later in time; amplitudes are untouched."""
    if not is_integer(dt) or dt <= 0:
        raise TemporalError(f"delay must be a positive integer, got {dt!r}")
    idx = reg._find(spatial)
    mode, consumed = reg.modes[idx]
    if consumed:
        raise TemporalError(f"mode {spatial!r} already consumed")
    # The delay line is entered at the mode's original time step.
    t = _event_time(reg, [spatial])
    reg.modes[idx] = [ModeId(mode.spatial, mode.time_step + int(dt)), False]
    reg._log("delay", [spatial], t)
    return reg


def apply_op(reg: TemporalRegister, op: np.ndarray, spatials: Sequence[str]) -> TemporalRegister:
    """Apply a unitary to the given live modes (not logged: local instantaneous op).

    A sparse state takes one mode at a time."""
    mat = np.asarray(op, dtype=np.complex128)
    if not is_unitary(mat):
        raise TemporalError("operator is not unitary")
    targets = [reg._live_index(s) for s in spatials]
    reg.state = reg.state.apply(mat, targets)
    return reg


def _measure(
    reg: TemporalRegister, spatials: Sequence[str], bras: np.ndarray, rng: RandomSource, forced
) -> tuple[int, float]:
    """:func:`qcore.collapse` on live modes, which are consumed and dropped
    from the state vector: row k of ``bras`` is the k-th outcome's bra on
    ``spatials``.  Returns ``(row, probability)``."""
    targets = [reg._live_index(s) for s in spatials]
    t = _event_time(reg, spatials)
    try:
        row, prob, kept = collapse(reg.state, targets, bras, rng, forced)
    except QcoreError as exc:
        raise TemporalError(str(exc)) from exc
    for s in spatials:
        idx = reg._find(s)
        reg.modes[idx] = [reg.modes[idx][0], True]
    reg._renumber_live()
    reg.state = StateVector._adopt(kept, normalize=True, norm_sq=prob) if kept.size > 1 else None
    reg._log("measure", spatials, t)
    return row, prob


def measure_mode(
    reg: TemporalRegister,
    spatial: str,
    rng: RandomSource,
    *,
    forced_outcome: int | None = None,
) -> int:
    """Z-basis measurement of one live mode; the mode is consumed."""
    if forced_outcome not in (None, 0, 1):
        raise TemporalError(f"forced_outcome must be 0 or 1, got {forced_outcome!r}")
    return _measure(reg, [spatial], I2, rng, forced_outcome)[0]


def bell_measure(
    reg: TemporalRegister,
    s1: str,
    s2: str,
    rng: RandomSource,
    *,
    forced_label: str | None = None,
) -> BellOutcome:
    """Bell-state measurement on two live modes; both are consumed."""
    if s1 == s2:
        raise TemporalError("cannot Bell-measure a mode against itself")
    if forced_label not in (None, *BELL_LABELS):
        raise TemporalError(f"unknown Bell label {forced_label!r}")
    forced = None if forced_label is None else BELL_LABELS.index(forced_label)
    row, prob = _measure(reg, [s1, s2], _BELL_BRAS, rng, forced)
    return BellOutcome(BELL_LABELS[row], prob)


def fuse_fresh_pair(
    reg: TemporalRegister,
    label: str,
    spatial_pair: Sequence[str],
    t: int,
    onto: str,
    rng: RandomSource,
    attempts: int,
    *,
    flip: bool,
) -> bool:
    """Fuse a fresh Bell pair onto the live mode ``onto``, committed only on
    success: the package's one PBS fusion.

    The pair, in Bell state ``label``, is created at time step t and its
    second photon delayed one step.  Its first photon and ``onto`` pass the
    post-selected PBS fusion F = |hh><hh| + |vv><vv|, and with ``flip`` X
    then acts on that photon.  The fused state F|psi>/sqrt(p) and its
    success probability p = <psi|F|psi> are built once from the register's
    state, a ``qcore._SparseKet``, without touching the register; each
    attempt is one ``rng.uniform()`` draw below p, up to ``attempts``.

    On a success the register takes the fused state and the two new modes,
    and logs "create" and "delay" at t and "fuse" at the later of t and
    ``onto``'s time step; True is returned.  If every attempt misses, the
    register is untouched and False is returned.
    """
    _check_new_pair(reg, spatial_pair, t)
    if not isinstance(reg.state, _SparseKet):
        raise TemporalError("fuse_fresh_pair needs a register holding a sparse ket")
    first, second = spatial_pair
    q = reg._live_index(onto)
    fuse_t = max(reg.modes[reg._find(onto)][0].time_step, t)
    p_success, fused = reg.state.fuse_pair(q, bell_state(label), flip)
    for _ in range(attempts):
        if rng.uniform() < p_success:
            break
    else:
        return False
    reg.state = fused()
    _add_pair_modes(reg, spatial_pair, (t, t + 1))
    reg._log("create", spatial_pair, t)
    reg._log("delay", [second], t)
    reg._log("fuse", [onto, first], fuse_t)
    return True


# ---------------------------------------------------------------------------
# Closed forms and the recursive density construction
# ---------------------------------------------------------------------------


def ghz_density_recursive(pair_rho: DensityOperator, n_pairs: int) -> DensityOperator:
    """Fuse n identical two-photon density operators into a 2n-photon state.

    Applies the PBS projector between each adjacent pair boundary and
    renormalizes; on pure Bell-pair inputs this is the state that repeated
    successful fusions build.
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
    # FρF/tr of a density operator is one by construction: adopted unchecked.
    rho = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=np.complex128)
    rho[np.ix_(support, support)] = block / tr
    return DensityOperator._adopt(rho)


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
