"""Dense constructions and per-element loops that the package avoids, kept
as test references."""

import copy
import math
from functools import reduce

import numpy as np

from chronoq import consensus
from chronoq.chain import (
    FUSION_RETRY_CAP,
    ChainError,
    DecodeMismatch,
    QuantumChain,
    Record,
    encode_block,
)
from chronoq.infotheory import InfoTheoryError, _multinomial
from chronoq.qcore import (
    HADAMARD,
    PAULI_X,
    DensityOperator,
    StateVector,
    _branch_index,
    bell_state,
)
from chronoq.temporal import apply_op, create_pair, delay, pbs_fuse

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the matrices in order, the first as the leftmost factor."""
    return reduce(np.kron, [np.asarray(m, dtype=np.complex128) for m in mats])


def apply_to_targets_transposed(vec, n: int, mat, targets) -> np.ndarray:
    """``mat`` on the target qubits of a 2^n vector: move the targets to the
    front, one matrix product, then the inverse transpose."""
    order = list(targets) + [i for i in range(n) if i not in targets]
    psi = np.transpose(np.asarray(vec).reshape([2] * n), order).reshape(1 << len(targets), -1)
    psi = (np.asarray(mat) @ psi).reshape([2] * n)
    return np.transpose(psi, np.argsort(order)).reshape(-1)


def equal_bits(n_qubits: int, q1: int, q2: int) -> np.ndarray:
    """Diagonal of F = |hh><hh| + |vv><vv| on qubits (q1, q2): True where the bits agree."""

    def bit(q):  # qubit q's value at every basis index: runs of 2^(n-1-q)
        return np.tile(np.repeat([False, True], 1 << (n_qubits - 1 - q)), 1 << q)

    return bit(q1) == bit(q2)


def project_equal_bits(amplitudes, n_qubits: int, q1: int, q2: int) -> np.ndarray:
    """F applied to a 2^n vector through a boolean mask of the equal-bit indices."""
    return np.where(equal_bits(n_qubits, q1, q2), amplitudes, 0.0)


def dense_append(chain, record, rng):
    """The chain append on a dense register: each fusion retry deep-copies the
    register and repeats the pair creation, delay and fusion."""
    if not chain.records:
        chain.register = encode_block(record, t=0)
        chain.records.append(record)
        return chain
    k = len(chain.records)
    last_bit = chain.records[-1].r2
    new1, new2 = f"p{2 * k + 1}", f"p{2 * k + 2}"
    pair = Record(0, record.r2 ^ last_bit)
    for _ in range(FUSION_RETRY_CAP):
        snap = copy.deepcopy(chain.register)
        create_pair(snap, pair.bits, (new1, new2), t=k)
        delay(snap, new2, 1)
        if pbs_fuse(snap, f"p{2 * k}", new1, rng):
            if record.r1 != last_bit:
                apply_op(snap, PAULI_X, [new1])
            chain.register = snap
            chain.records.append(record)
            return chain
    raise ChainError("fusion retry cap exceeded")


def dense_chain(records, rng):
    """A QuantumChain whose register holds a dense StateVector throughout."""
    chain = QuantumChain()
    for record in records:
        dense_append(chain, record, rng)
    return chain


def dense_fidelity(chain) -> float:
    """QuantumChain.fidelity read from the dense vector at the two branch indices."""
    bits, sign = chain._expected_branch()
    lead = _branch_index(bits)
    psi = chain.register.state.amplitudes
    overlap = _INV_SQRT2 * psi[lead] + sign * _INV_SQRT2 * psi[psi.size - 1 - lead]
    return float(abs(overlap) ** 2)


def dense_decode(chain) -> str:
    """chain.decode from a scan of the dense vector."""
    amp = chain.register.state.amplitudes
    n = chain.register.state.num_qubits
    nonzero = np.flatnonzero(np.abs(amp) > 1e-8)
    if len(nonzero) != 2:
        raise DecodeMismatch("state does not have exactly two branches")
    i, j = int(nonzero[0]), int(nonzero[1])
    if i + j != (1 << n) - 1:
        raise DecodeMismatch("branches are not bit-complements")
    lead = i if not (i >> (n - 1)) & 1 else j
    other = j if lead == i else i
    if abs(abs(amp[lead]) - _INV_SQRT2) > 1e-8:
        raise DecodeMismatch("branch amplitudes are not balanced")
    ratio = amp[other] / amp[lead]
    if abs(ratio - 1.0) <= 1e-8:
        r1 = 0
    elif abs(ratio + 1.0) <= 1e-8:
        r1 = 1
    else:
        raise DecodeMismatch("relative branch phase is not +-1")
    decoded = "".join(str(b) for b in [r1] + [(lead >> (n - 1 - q)) & 1 for q in range(1, n)])
    if decoded != chain.record_string:
        raise DecodeMismatch("decoded record string does not match the chain")
    return decoded


def per_shot_decode_by_statistics(state, num_copies: int, rng) -> str:
    """The many-copy decoder with one ``Generator.choice`` call per shot."""
    n, z_shots = state.num_qubits, num_copies // 2
    gen = rng.generator

    def shot(weights):
        return int(gen.choice(len(weights), p=weights / weights.sum()))

    z_probs = np.abs(state.amplitudes) ** 2
    patterns = {min(idx, (1 << n) - 1 - idx) for idx in (shot(z_probs) for _ in range(z_shots))}
    if len(patterns) != 1:
        raise DecodeMismatch("inconsistent branch patterns across copies")
    lead = patterns.pop()
    x_probs = np.abs(kron_all([HADAMARD] * n) @ state.amplitudes) ** 2
    odd = sum(bin(shot(x_probs)).count("1") % 2 for _ in range(num_copies - z_shots))
    r1 = 0 if 2 * odd < num_copies - z_shots else 1
    return str(r1) + "".join(str((lead >> (n - 1 - q)) & 1) for q in range(1, n))


def per_round_theta_angles(n: int, rng) -> tuple[list[float], int]:
    """consensus.sample_theta_angles as a Python loop, with sequential sums."""
    head = [float(x) for x in rng.uniform(0.0, math.pi, n - 1)]
    partial = 0.0
    for x in head:
        partial += x
    m = math.ceil(partial / math.pi - 1e-12)
    last = m * math.pi - partial
    if last < 0.0:
        last += math.pi
    return head + [last], round((partial + last) / math.pi)


def per_round_pass_probability(state, angles, m: int) -> float:
    """consensus.exact_pass_probability with every one of the 2^n phases built."""
    phases = np.ones(1, dtype=np.complex128)
    for t in angles:
        phases = np.multiply.outer(phases, [np.exp(1j * t), np.exp(-1j * t)]).ravel()
    if isinstance(state, DensityOperator):
        anti = np.fliplr(state.matrix).diagonal()
    else:
        anti = state.amplitudes * state.amplitudes[::-1].conj()
    parity = (-1) ** (m % 2) * float(np.real(phases @ anti))
    return min(max(0.5 * (1.0 + parity), 0.0), 1.0)


def dense_estimate(candidate, network, rounds: int, rng) -> dict:
    """consensus.estimate_pass_probability on the dense played state: each
    round samples the Born distribution of all 2^n outcomes."""
    played = consensus._apply_cheats(candidate, network.nodes)
    passes = 0
    for _ in range(rounds):
        rng.integers(0, network.size)  # the verifier
        angles, m = per_round_theta_angles(network.size, rng)
        outcomes = consensus.theta_measure(played, angles, rng)
        passes += sum(outcomes) % 2 == m % 2
    p_hat = passes / rounds
    return {
        "pass_rate": p_hat,
        "std_err": math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / rounds),
        "rounds": rounds,
    }


def per_round_play(played, network, rounds: int, rng) -> list:
    """The θ rounds of consensus._play_rounds one at a time, with one scalar
    draw for each verifier, angle and outcome: a list of RoundResult."""
    results = []
    for _ in range(rounds):
        verifier = network.nodes[int(rng.integers(0, network.size))].id
        angles, m = consensus.sample_theta_angles(network.size, rng)
        outcomes = consensus.theta_measure(played, angles, rng)
        passed = sum(outcomes) % 2 == m % 2
        results.append(consensus.RoundResult(verifier, tuple(angles), outcomes, m, passed))
    return results


def per_point_werner_ppt(f: float) -> float:
    """entangle.werner_ppt_min_eigenvalues at one F: the Werner density built
    and validated alone, its partial transpose by a 4-axis transpose, and one
    eigvalsh."""
    singlet = bell_state("psi-").to_density().matrix
    rest = sum(bell_state(lbl).to_density().matrix for lbl in ("phi+", "phi-", "psi+"))
    rho = DensityOperator(f * singlet + (1.0 - f) / 3.0 * rest).matrix
    pt = np.transpose(rho.reshape(2, 2, 2, 2), (0, 3, 2, 1)).reshape(4, 4)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0).min())


def per_round_bounds(state, network, rounds: int, rng, *, honest: bool = True) -> dict:
    """consensus.check_fidelity_bounds with one angle draw, one 2^n phase
    vector and one uniform() draw per round."""
    n = network.size
    rho = state.to_density() if isinstance(state, StateVector) else state
    rho_played = consensus._apply_cheats(rho, network.nodes)
    passes = 0
    for _ in range(rounds):
        angles, m = per_round_theta_angles(n, rng)
        if rng.uniform() < per_round_pass_probability(rho_played, angles, m):
            passes += 1
    p_hat = passes / rounds

    def std_err(p: float) -> float:
        return math.sqrt(max(p * (1.0 - p), 0.0) / rounds)

    dishonest = [] if honest else [j for j, node in enumerate(network.nodes) if not node.honest]
    c = 2.0 if honest else 4.0
    f = consensus.optimize_corrected_fidelity(rho_played, dishonest)
    ok = c * p_hat - (c - 1.0) <= f + 3.0 * c * std_err((c - 1.0 + f) / c) + 1e-9
    return {
        "n": n,
        "rounds": rounds,
        "pass_rate": p_hat,
        "std_err": std_err(p_hat),
        "mean_pass_probability": consensus.mean_pass_probability(rho_played),
        "fidelity": f,
        "honest_bound_ok": ok if honest else None,
        "dishonest_bound_ok": None if honest else ok,
    }


def duplicated_block_corrected_fidelity(rho, dishonest) -> float:
    """consensus.optimize_corrected_fidelity indexing rho with the
    honest-all-0 and honest-all-1 index sets concatenated even when every
    node cheats, where both are all 2^n indices: a 2^(n+1) block that holds
    rho four times."""
    n = rho.dim.bit_length() - 1
    qubits = sorted(set(dishonest))
    offsets = np.zeros(1, dtype=np.int64)
    for q in qubits:
        offsets = np.add.outer(offsets, [0, 1 << (n - 1 - q)]).ravel()
    honest_ones = (1 << n) - 1 - int(offsets[-1])
    index = np.concatenate([offsets, honest_ones + offsets])
    block = rho.matrix[np.ix_(index, index)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    best = -math.inf
    k = len(qubits)
    for s in range(consensus._STARTS):
        x = consensus.TWO_PI * np.array([(s * phi * (j + 1)) % 1.0 for j in range(3 * k)])
        mats = [consensus._single_qubit_unitary(*x[3 * i : 3 * i + 3]).conj().T for i in range(k)]
        best = max(best, consensus._ascend(block, mats))
    return min(best, 1.0)


def rank_in_class(n: int, seq, counts) -> int:
    """Lexicographic rank of seq among the arrangements of its symbol counts,
    one multinomial per smaller symbol at each position."""
    remaining = list(counts)
    left = n
    rank = 0
    for s in seq:
        s = int(s)
        for smaller in range(s):
            if remaining[smaller] > 0:
                remaining[smaller] -= 1
                rank += _multinomial(left - 1, tuple(remaining))
                remaining[smaller] += 1
        remaining[s] -= 1
        left -= 1
    return rank


def unrank_in_class(n: int, rank: int, counts) -> tuple:
    """The arrangement of the given counts with the given lexicographic rank."""
    remaining = list(counts)
    left = n
    out = []
    for _ in range(n):
        for symbol in range(len(remaining)):
            if remaining[symbol] == 0:
                continue
            remaining[symbol] -= 1
            block = _multinomial(left - 1, tuple(remaining))
            if rank < block:
                out.append(symbol)
                left -= 1
                break
            remaining[symbol] += 1
            rank -= block
        else:
            raise AssertionError("unrank ran out of symbols")
    return tuple(out)


def scanned_decode(codec, index: int) -> tuple:
    """``TypicalCodec.decode`` as it was: scan the classes in codebook order
    for the one whose index range holds ``index``."""
    for counts, (offset, take, size) in codec._classes.items():
        if offset <= index < offset + take:
            rank = np.array([index - offset])
            return tuple(codec._unrank(np.array([counts]), np.array([size]), rank)[0].tolist())
    raise InfoTheoryError("codeword index out of range")
