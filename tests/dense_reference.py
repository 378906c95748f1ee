"""Dense constructions and per-element loops that the package avoids, kept
as test references."""

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

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
    PAULI_X,
    TOL_ALG,
    DensityOperator,
    StateVector,
    _branch_index,
    _norm_sq,
    bell_state,
    product_probabilities,
)
from chronoq.temporal import _event_time, apply_op, create_pair, delay

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def theta_basis(theta: float) -> np.ndarray:
    """Rows are the bras <+theta| and <-theta|, a node's θ-round basis."""
    phase = _INV_SQRT2 * np.exp(-1j * theta)
    return np.array([[_INV_SQRT2, phase], [_INV_SQRT2, -phase]], dtype=np.complex128)


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


def fuse_equal_bits(state, q1: int, q2: int):
    """PBS fusion F = |hh><hh| + |vv><vv| on qubits (q1, q2) of a dense
    StateVector, through the mask: p = <psi|F|psi> and a callable that
    builds F|psi>/sqrt(p) by renormalizing the projected copy in place."""
    projected = project_equal_bits(state.amplitudes, state.num_qubits, q1, q2)
    p = _norm_sq(projected)
    return p, partial(StateVector._adopt, projected, normalize=True, norm_sq=p)


def dense_fuse(reg, s1: str, s2: str, rng) -> bool:
    """The post-selected PBS fusion of two live modes of a register that
    holds a dense StateVector: one ``rng.uniform()`` draw below p.  A success
    takes the fused state and logs "fuse"; a miss changes nothing."""
    p, fused = fuse_equal_bits(reg.state, reg._live_index(s1), reg._live_index(s2))
    if not rng.uniform() < p:
        return False
    t = _event_time(reg, [s1, s2])
    reg.state = fused()
    reg._log("fuse", [s1, s2], t)
    return True


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
        attempt = copy.deepcopy(chain.register)
        create_pair(attempt, pair.bits, (new1, new2), t=k)
        delay(attempt, new2, 1)
        if dense_fuse(attempt, f"p{2 * k}", new1, rng):
            if record.r1 != last_bit:
                apply_op(attempt, PAULI_X, [new1])
            chain.register = attempt
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


@dataclass(frozen=True)
class RoundResult:
    angles: tuple
    outcomes: tuple
    multiplicity: int  # m = sum(theta) / pi
    passed: bool


def theta_measure(state, angles, rng) -> tuple:
    """Sample every node's outcome jointly from the dense Born distribution
    of the ket ``state`` in the θ bases, with one ``rng`` double through
    ``RandomSource.choice_index``; returns Y bits, leftmost node first."""
    if state.dim != 1 << len(angles):
        raise consensus.ConsensusError("angle count must match the state's qubit count")
    born = product_probabilities(state, [theta_basis(t) for t in angles])
    index = rng.choice_index(born)
    return tuple((index >> (len(angles) - 1 - j)) & 1 for j in range(len(angles)))


def run_round(network, played, rng) -> RoundResult:
    """One θ round on the dense ket ``played``, the candidate after the
    dishonest nodes' cheats: its angles, then its sampled Y bits."""
    angles, m = per_round_theta_angles(network.size, rng)
    bits = theta_measure(played, angles, rng)
    return RoundResult(tuple(angles), bits, m, sum(bits) % 2 == m % 2)


def dense_estimate(candidate, network, rounds: int, rng) -> dict:
    """consensus.estimate_pass_probability on the dense played state: each
    round draws its angles and one double u, and passes iff u < P(theta)
    with every one of the 2^n phases built."""
    played = consensus._apply_cheats(candidate, network.nodes)
    passes = 0
    for _ in range(rounds):
        angles, m = per_round_theta_angles(network.size, rng)
        passes += rng.generator.random() < per_round_pass_probability(played, angles, m)
    p_hat = passes / rounds
    return {
        "pass_rate": p_hat,
        "std_err": math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / rounds),
        "rounds": rounds,
    }


def noisy_ghz_density(n: int, noise: float) -> DensityOperator:
    """(1 - noise)|GHZ><GHZ| + noise I/2^n as a dense 2^n x 2^n matrix: the
    ``consensus bounds`` candidate, with the GHZ part on the four corners."""
    dim = 1 << n
    mat = np.eye(dim, dtype=np.complex128) * (noise / dim)
    mat[np.ix_([0, -1], [0, -1])] += (1.0 - noise) / 2.0
    return DensityOperator._adopt(mat)


def cli_candidate_closed_forms(n: int, dishonest: int, noise: float) -> tuple[float, float]:
    """F' and the mean pass probability of the ``consensus bounds`` candidate
    under the CLI cheat (X + Z)/sqrt(2) on ``dishonest`` of n nodes, each
    rounded once from exact rationals: F' = 1 - p + p/2^n, and P = 1/2 +
    (1 - p) r with r = 1/2 honest, (-1)^k / 2^(k+1) for 0 < k < n and
    (1 + (-1)^n) / 2^n for k = n."""
    p, k = Fraction(noise), dishonest
    if k == 0:
        corner = Fraction(1, 2)
    elif k < n:
        corner = Fraction((-1) ** k, 2 ** (k + 1))
    else:
        corner = Fraction(1 + (-1) ** n, 2**n)
    return float(1 - p + p / 2**n), float(Fraction(1, 2) + (1 - p) * corner)


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


def _single_qubit_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma)."""
    ca, sa = np.exp(-1j * alpha / 2), np.exp(1j * alpha / 2)
    cg, sg = np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)
    cb, sb = math.cos(beta / 2), math.sin(beta / 2)
    return np.array(
        [[ca * cb * cg, -ca * sb * sg], [sa * sb * cg, sa * cb * sg]],
        dtype=np.complex128,
    )


def _ascend(block: np.ndarray, mats: list) -> float:
    """Block-coordinate ascent of <phi| block |phi> over the cheaters' u^dag,
    one start at a time: each step builds its kets by Kronecker products
    and takes the top eigenvector of its own 4x4 form."""
    value = -math.inf
    for _ in range(consensus._MAX_SWEEPS):
        previous = value
        for i in range(len(mats)):
            halves = []
            for h in (0, 1):
                left = reduce(np.kron, [u[:, h] for u in mats[:i]], np.ones(1))
                right = reduce(np.kron, [u[:, h] for u in mats[i + 1 :]], np.ones(1))
                cols = consensus._QUATERNION_BASIS[:, :, h]
                halves.append(np.einsum("a,jb,c->abcj", left, cols, right).reshape(-1, 4))
            if len(block) == len(halves[0]):
                kets = (halves[0] + halves[1]) * _INV_SQRT2
            else:
                kets = np.concatenate(halves) * _INV_SQRT2
            form = np.real(kets.conj().T @ block @ kets)
            eigvals, eigvecs = np.linalg.eigh((form + form.T) / 2.0)
            mats[i] = np.tensordot(eigvecs[:, -1], consensus._QUATERNION_BASIS, axes=1)
            value = float(eigvals[-1])
        if value - previous <= consensus._SWEEP_GAIN:
            break
    return value


def golden_ratio_start(s: int, k: int) -> list:
    """The u^dag of k cheaters at golden-ratio start s."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x = consensus.TWO_PI * np.array([(s * phi * (j + 1)) % 1.0 for j in range(3 * k)])
    return [_single_qubit_unitary(*x[3 * i : 3 * i + 3]).conj().T for i in range(k)]


def _serial_ascent(block: np.ndarray, k: int) -> float:
    """The best of ``_ascend`` over the golden-ratio starts, capped at 1."""
    best = -math.inf
    for s in range(consensus._STARTS):
        best = max(best, _ascend(block, golden_ratio_start(s, k)))
    return min(best, 1.0)


def _cheater_offsets(n: int, dishonest) -> np.ndarray:
    """Basis indices with every honest bit 0, the cheater bits varying."""
    offsets = np.zeros(1, dtype=np.int64)
    for q in sorted(set(dishonest)):
        offsets = np.add.outer(offsets, [0, 1 << (n - 1 - q)]).ravel()
    return offsets


def serial_corrected_fidelity(rho, dishonest) -> float:
    """consensus.optimize_corrected_fidelity with the ascent run one start
    after another (``_ascend``), each step on its own Kronecker kets."""
    n = rho.dim.bit_length() - 1
    if not set(dishonest):
        return consensus.ghz_fidelity(rho)
    offsets = _cheater_offsets(n, dishonest)
    honest_ones = (1 << n) - 1 - int(offsets[-1])
    index = np.concatenate([offsets, honest_ones + offsets]) if honest_ones else offsets
    return _serial_ascent(rho.matrix[np.ix_(index, index)], len(set(dishonest)))


def duplicated_block_corrected_fidelity(rho, dishonest) -> float:
    """serial_corrected_fidelity indexing rho with the honest-all-0 and
    honest-all-1 index sets concatenated even when every node cheats, where
    both are all 2^n indices: a 2^(n+1) block that holds rho four times."""
    n = rho.dim.bit_length() - 1
    offsets = _cheater_offsets(n, dishonest)
    index = np.concatenate([offsets, (1 << n) - 1 - int(offsets[-1]) + offsets])
    return _serial_ascent(rho.matrix[np.ix_(index, index)], len(set(dishonest)))


def looped_codebook_classes(codec) -> list:
    """The items of ``codec._classes`` built one class at a time: the count
    tuples enumerated recursively, each one's log2 probability summed in a
    Python loop and its size a multinomial, sorted by (surprisal, counts)
    and taken into the book in that order."""
    n, p, capacity = codec.n, codec.source, 1 << codec.width

    def compositions(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    ranked = []
    for counts in compositions(n, len(p)):
        logp = 0.0
        for c, pi in zip(counts, p):
            if c == 0:
                continue
            if pi <= TOL_ALG:
                break
            logp += c * math.log2(pi)
        else:
            ranked.append((-logp, counts, _multinomial(n, counts)))
    ranked.sort(key=lambda item: (item[0], item[1]))
    classes, used = [], 0
    for _, counts, size in ranked:
        if used >= capacity:
            break
        take = min(size, capacity - used)
        classes.append((counts, (used, take, size)))
        used += take
    return classes


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


def recursive_sequential_joint(initial, observables, unitaries) -> dict:
    """The sequential engine branch by branch: each branch recurses into its
    +1 and then its -1 outcome, one (P @ rho) @ P per branch, one trace per
    leaf."""
    if len(unitaries) != len(observables) - 1:
        raise ValueError("need one unitary between consecutive measurements")
    rho0 = initial.to_density().matrix if isinstance(initial, StateVector) else initial.matrix
    projectors = []
    for obs in observables:
        obs = np.asarray(obs, dtype=np.complex128)
        eye = np.eye(obs.shape[0])
        projectors.append({+1: (eye + obs) / 2.0, -1: (eye - obs) / 2.0})
    dist = {}

    def recurse(rho, outcomes, depth):
        if depth == len(observables):
            dist[outcomes] = float(np.real(np.trace(rho)))
            return
        if depth > 0:
            u = np.asarray(unitaries[depth - 1], dtype=np.complex128)
            rho = u @ rho @ u.conj().T
        for q, p in projectors[depth].items():
            recurse(p @ rho @ p, outcomes + (q,), depth + 1)

    recurse(rho0, (), 0)
    return dist


def looped_gleason_vectors(frame) -> list:
    """The reconstruction vectors pair by pair: each n_j, then for each
    j < k (n_j + n_k)/sqrt(2), (n_j - n_k)/sqrt(2), (n_j + i n_k)/sqrt(2)
    and (n_j - i n_k)/sqrt(2)."""
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in frame]
    out = list(vecs)
    for j in range(len(vecs)):
        for k in range(j + 1, len(vecs)):
            out.append((vecs[j] + vecs[k]) * _INV_SQRT2)
            out.append((vecs[j] - vecs[k]) * _INV_SQRT2)
            out.append((vecs[j] + 1j * vecs[k]) * _INV_SQRT2)
            out.append((vecs[j] - 1j * vecs[k]) * _INV_SQRT2)
    return out


def qr_haar_frames(count: int, d: int, rng) -> np.ndarray:
    """``count`` Haar-random frames, vectors as rows, from the same normals
    as ``foundations._haar_frames``: one LAPACK QR per complex Gaussian
    matrix, its columns' phases fixed by diag(R)."""
    z = rng.generator.normal(size=(count, 2, d, d))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return np.swapaxes(q * (diag / np.abs(diag))[:, None, :], -1, -2)
