import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronoq import entangle, foundations
from chronoq.chain import Record, build_chain
from chronoq.qcore import (
    BELL_LABELS,
    CNOT,
    HADAMARD,
    I2,
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    S_GATE,
    DensityOperator,
    QcoreError,
    RandomSource,
    StateVector,
    bell_state,
    born_distribution,
    branch_pair,
    collapse,
    computational_basis,
    ghz_state,
    is_dichotomic,
    is_hermitian,
    is_unitary,
    measure_qubit,
    partial_trace,
    product_probabilities,
    purity,
    rotation,
    _COUNTED_CDF,
    _SparseKet,
    _apply_to_targets,
)
from chronoq.temporal import ghz_density_recursive, temporal_ghz_closed_form

from dense_reference import apply_to_targets_transposed, fuse_equal_bits, kron_all


def test_random_source_reproducible():
    a = RandomSource(42, 0).uniform(size=5)
    b = RandomSource(42, 0).uniform(size=5)
    assert np.array_equal(a, b)
    c = RandomSource(42, 1).uniform(size=5)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "method, draw, pinned",
    [
        ("random", lambda g: g.random(3),
         [0.7739560485559633, 0.4388784397520523, 0.8585979199113825]),
        ("integers", lambda g: g.integers(0, 3, size=10), [0, 2, 1, 1, 1, 2, 0, 2, 0, 0]),
        ("uniform", lambda g: g.uniform(0.0, 2.0, 3),
         [1.5479120971119267, 0.8777568795041046, 1.717195839822765]),
        ("normal", lambda g: g.normal(size=3),
         [0.30471707975443135, -1.0399841062404955, 0.7504511958064572]),
        # The first cell's binomial draws by inversion (n p <= 30), the others
        # by BTPE, one of them at a conditional p above 1/2.
        ("multinomial", lambda g: g.multinomial(100_000, [0.0001, 0.5, 0.2999, 0.2], size=2),
         [[12, 50094, 29736, 20158], [17, 50093, 30033, 19857]]),
    ],
)
def test_numpy_random_streams_are_pinned(method, draw, pinned):
    # NEP 19 lets a numpy release change the stream of a Generator method for
    # a fixed seed.  The Monte Carlo strings pinned in the tests and the
    # README draw through these five methods only.
    got = draw(RandomSource(42, 0).generator).tolist()
    assert got == pinned, (
        f"numpy {np.__version__} changed the stream of Generator.{method}: "
        "every pinned CLI string that draws through it moves with it"
    )


def _eager_generator(seed, stream):
    """The generator that RandomSource used to build in its constructor."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed & (2**64 - 1), stream]))
    )


@pytest.mark.parametrize("seed", [1, 2, 42])
def test_lazy_random_source_draws_as_an_eager_one(seed):
    lazy, eager = RandomSource(seed, 3), _eager_generator(seed, 3)
    assert "generator" not in vars(lazy)  # nothing is built before the first draw
    assert [lazy.uniform() for _ in range(1000)] == [eager.uniform() for _ in range(1000)]
    lazy, eager = RandomSource(seed, 3), _eager_generator(seed, 3)
    assert [lazy.integers(0, 7) for _ in range(1000)] == [
        eager.integers(0, 7) for _ in range(1000)
    ]
    assert lazy.generator is lazy.generator


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.floats(-1.0, 1e3), min_size=1, max_size=40),
)
def test_choice_index_picks_as_generator_choice(seed, weights):
    p = np.clip(weights, 0.0, None)
    assume(p.sum() > 0)
    source, gen = RandomSource(seed, 1), _eager_generator(seed, 1)
    picks = [source.choice_index(weights) for _ in range(200)]
    assert picks == [int(gen.choice(len(p), p=p / p.sum())) for _ in range(200)]
    assert source.generator.bit_generator.state == gen.bit_generator.state
    # Doubles drawn up front as one array pick the same indices.
    batch = RandomSource(seed, 1)
    assert batch.choice_index(weights, batch.generator.random(200)).tolist() == picks
    assert batch.generator.bit_generator.state == gen.bit_generator.state


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=37),
    trailing_zeros=st.integers(0, 3),
)
@example(seed=7, weights=[1.0] * _COUNTED_CDF, trailing_zeros=0)
@example(seed=7, weights=[1.0] * _COUNTED_CDF, trailing_zeros=1)
@example(seed=7, weights=[0.0, 2.0, 0.0, 1.0], trailing_zeros=3)
def test_choice_index_on_arrays_of_doubles_either_side_of_the_cut(seed, weights, trailing_zeros):
    """Array picks count thresholds up to _COUNTED_CDF entries and search
    above it; both are Generator.choice, and both are searchsorted(side=
    "right") at doubles lying exactly on the CDF's entries."""
    w = np.array(weights + [0.0] * trailing_zeros)
    assume(w.sum() > 0)
    source, gen = RandomSource(seed, 2), _eager_generator(seed, 2)
    picks = source.choice_index(w, source.generator.random((40, 3)))
    assert picks.dtype == np.min_scalar_type(len(w) - 1)
    assert np.array_equal(picks, gen.choice(len(w), size=(40, 3), p=w / w.sum()))
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    on = cdf[cdf < 1.0]  # random() draws lie in [0, 1)
    u = np.concatenate([on, np.nextafter(on, 0.0), [0.0]])
    expected = cdf.searchsorted(u, side="right")
    assert np.array_equal(source.choice_index(w, u), expected)


@pytest.mark.parametrize("weights", [[0.0, 0.0], [-1.0, 0.0], [math.nan, 1.0], [math.inf, 1.0], []])
def test_choice_index_rejects_weights_without_a_distribution(weights):
    source = RandomSource(3, 0)
    with pytest.raises(QcoreError, match="weights"):
        source.choice_index(weights)
    assert "generator" not in vars(source)  # nothing was drawn


def test_state_normalization_enforced():
    with pytest.raises(QcoreError):
        StateVector([1.0, 1.0])
    s = StateVector([1.0, 1.0], normalize=True)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_state_zero_vector_rejected():
    with pytest.raises(QcoreError):
        StateVector([0.0, 0.0], normalize=True)


@pytest.mark.parametrize(
    "amplitudes",
    [[math.nan, 0.0], [complex(0.0, math.nan), 1.0], [math.inf, 0.0], [-math.inf, 0.0],
     [1e200, 1e200], [1e200, 0.0]],
)
@pytest.mark.parametrize("normalize", [False, True])
def test_state_rejects_non_finite_squared_norm(amplitudes, normalize):
    # 1e200 is finite, but its square overflows: normalizing used to return 0.
    with pytest.raises(QcoreError, match="finite"):
        StateVector(amplitudes, normalize=normalize)


def _caller_argument(kind, scale):
    values = [0.6 * scale, 0.8j * scale]
    if kind == "list":
        return values
    arr = np.array(values, dtype=np.complex128)
    if kind == "2d":
        return arr.reshape(2, 1)
    if kind == "readonly":
        arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("kind", ["complex1d", "2d", "readonly", "list"])
@pytest.mark.parametrize(
    "scale, normalize",
    [(5.0, True), (1.0, True), (1.0 + 1e-8, False), (1.0, False)],
    ids=["renormalized", "unit-normalize", "drift", "unit"],
)
def test_public_constructor_leaves_its_argument_alone(kind, scale, normalize):
    arg = _caller_argument(kind, scale)
    before = np.array(arg, dtype=np.complex128)
    writeable = isinstance(arg, np.ndarray) and arg.flags.writeable
    state = StateVector(arg, normalize=normalize)
    assert np.array_equal(np.asarray(arg), before)
    if isinstance(arg, np.ndarray):
        assert arg.flags.writeable == writeable
    assert not state.amplitudes.flags.writeable
    assert np.max(np.abs(state.amplitudes - np.array([0.6, 0.8j]))) <= 1e-15


def test_amplitudes_always_read_only():
    rng = RandomSource(3, 0)
    base = StateVector([0.6, 0.8j]).tensor(bell_state("psi-"))
    states = [
        base,
        StateVector.basis(4, 2),
        base.apply(HADAMARD, [1]),
        base.apply(CNOT, [2, 0]),
        base.apply(np.eye(8)),
        measure_qubit(base, 0, rng)[2],
        measure_qubit(base, 2, rng, basis_1q=HADAMARD)[2],
    ]
    for state in states:
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


def _random_operator(gen, dim, unitary):
    m = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return np.linalg.qr(m)[0] if unitary else m


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    unitary=st.booleans(),
    data=st.data(),
)
def test_target_kernel_matches_transposed_reference(n, seed, unitary, data):
    gen = np.random.default_rng(seed)
    vec = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    one = _random_operator(gen, 2, unitary)
    for q in range(n):
        got = _apply_to_targets(vec, n, one, [q])
        assert np.max(np.abs(got - apply_to_targets_transposed(vec, n, one, [q]))) <= 1e-12
    if n >= 2:
        pair = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        two = _random_operator(gen, 4, unitary)
        got = _apply_to_targets(vec, n, two, pair)
        assert np.max(np.abs(got - apply_to_targets_transposed(vec, n, two, pair))) <= 1e-12
    # Through the state: the same result, renormalized, and the input untouched.
    psi = StateVector(vec, normalize=True)
    before = psi.amplitudes.copy()
    q = data.draw(st.integers(0, n - 1))
    ref = apply_to_targets_transposed(psi.amplitudes, n, one, [q])
    ref = ref / np.linalg.norm(ref)
    assert np.max(np.abs(psi.apply(one, [q]).amplitudes - ref)) <= 1e-12
    assert np.array_equal(psi.amplitudes, before)


def test_max_qubits_cap():
    with pytest.raises(QcoreError):
        StateVector.basis(2 ** (MAX_QUBITS + 1), 0)


def test_tensor_respects_the_register_cap():
    left = StateVector.basis(1 << 11, 0)
    with pytest.raises(QcoreError, match="exceed"):
        left.tensor(StateVector.basis(1 << (MAX_QUBITS - 10), 0))
    assert left.tensor(StateVector.basis(1 << (MAX_QUBITS - 11), 1)).amplitudes[1] == 1.0


def test_big_endian_ordering():
    # |01> has qubit 0 (leftmost) = 0 and qubit 1 = 1, basis index 1.
    s = StateVector.basis(4, 1)
    assert s.amplitudes[1] == 1.0
    # Applying X to qubit 0 gives |11>, index 3.
    flipped = s.apply(PAULI_X, [0])
    assert abs(flipped.amplitudes[3] - 1.0) < 1e-12


def test_apply_full_register_and_targets():
    s = StateVector.basis(4, 0)
    bell = s.apply(HADAMARD, [0]).apply(CNOT, [0, 1])
    assert bell.allclose(bell_state("phi+"))


def test_gate_predicates():
    for g in (PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, CNOT):
        assert is_unitary(g)
    assert is_hermitian(PAULI_Y)
    assert not is_hermitian(S_GATE)


def test_rotation_gate():
    rx = rotation(PAULI_X, math.pi)
    assert np.allclose(rx, -1j * PAULI_X, atol=1e-12)
    assert is_unitary(rotation(PAULI_Y, 0.123))


def test_bell_states_orthonormal():
    mats = [bell_state(lbl).amplitudes for lbl in BELL_LABELS]
    gram = np.stack(mats).conj() @ np.stack(mats).T
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_bell_label_aliases():
    assert bell_state("00").allclose(bell_state("phi+"))
    assert bell_state("11").allclose(bell_state("psi-"))


def test_ghz_state():
    g = ghz_state(3)
    assert abs(g.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(g.amplitudes[7] - 1 / math.sqrt(2)) < 1e-12
    assert abs(np.sum(np.abs(g.amplitudes) ** 2) - 1.0) < 1e-12


def test_equals_up_to_phase():
    s = bell_state("phi+")
    rotated = StateVector(np.exp(1j * 0.7) * s.amplitudes)
    assert rotated.equals_up_to_phase(s)
    assert not rotated.allclose(s)
    assert not s.equals_up_to_phase(bell_state("phi-"))


def test_born_distribution_needs_orthonormal_basis():
    s = bell_state("phi+")
    with pytest.raises(QcoreError):
        born_distribution(s, [s, s, s, s])
    probs = born_distribution(s, computational_basis(4))
    assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)


def test_measure_statistics():
    rng = RandomSource(1, 0)
    s = StateVector([math.sqrt(0.3), math.sqrt(0.7)])
    n = 20_000
    ones = sum(collapse(s, [0], I2, rng)[0] for _ in range(n))
    se = math.sqrt(0.7 * 0.3 / n)
    assert abs(ones / n - 0.7) <= 3 * se


def test_measure_qubit_collapse_and_rotate_back():
    rng = RandomSource(2, 0)
    s = bell_state("phi+")
    outcome, prob, post = measure_qubit(s, 0, rng)
    assert abs(prob - 0.5) < 1e-12
    expect = StateVector.basis(4, 3 * outcome)
    assert post.allclose(expect)
    # X-basis measurement of |0> is 50/50 and leaves an X eigenstate.
    outcome_x, prob_x, post_x = measure_qubit(
        StateVector([1.0, 0.0]), 0, rng, basis_1q=HADAMARD, forced_outcome=1
    )
    assert outcome_x == 1 and abs(prob_x - 0.5) < 1e-12
    minus = StateVector(HADAMARD[:, 1].copy())
    assert post_x.equals_up_to_phase(minus)


def test_measure_qubit_basis_rows_are_bras():
    plus_i = np.array([1.0, 1j]) / math.sqrt(2.0)
    minus_i = np.array([1.0, -1j]) / math.sqrt(2.0)
    bras = np.array([plus_i.conj(), minus_i.conj()])  # <+i|, <-i|
    outcome, prob, post = measure_qubit(StateVector(plus_i), 0, RandomSource(3, 0), basis_1q=bras)
    assert outcome == 0 and abs(prob - 1.0) < 1e-12
    assert post.equals_up_to_phase(StateVector(plus_i))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_product_probabilities_match_dense_basis(n, seed):
    gen = np.random.default_rng(seed)
    psi = StateVector(gen.normal(size=2**n) + 1j * gen.normal(size=2**n), normalize=True)
    bases = [_random_operator(gen, 2, unitary=True) for _ in range(n)]
    got = product_probabilities(psi, bases)
    assert np.max(np.abs(got - np.abs(kron_all(bases) @ psi.amplitudes) ** 2)) <= 1e-12
    with pytest.raises(QcoreError):
        product_probabilities(psi, bases[1:])


def test_forced_zero_probability_row_raises():
    zero = StateVector.basis(4, 0)
    with pytest.raises(QcoreError, match="zero probability"):
        measure_qubit(zero, 1, RandomSource(4, 0), forced_outcome=1)
    with pytest.raises(QcoreError, match="zero probability"):
        collapse(bell_state("phi+"), [0, 1], np.eye(4), RandomSource(4, 0), forced=1)
    with pytest.raises(QcoreError, match="invalid target"):
        collapse(zero, [2], np.eye(2), RandomSource(4, 0))


def test_density_operator_validation():
    with pytest.raises(QcoreError, match="unit trace"):
        DensityOperator(np.array([[1.0, 0.0], [0.0, 1.0]]))  # trace 2
    with pytest.raises(QcoreError, match="unit trace"):
        DensityOperator(np.diag([1.5, 0.5]))
    with pytest.raises(QcoreError, match="positive semidefinite"):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))
    # Unit trace, but 0.005 below zero: a pinching of it in a frame near |1>
    # would have a negative Born weight.
    with pytest.raises(QcoreError, match="positive semidefinite"):
        DensityOperator(np.diag([1.005, -0.005]))
    with pytest.raises(QcoreError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(QcoreError, match="square"):
        DensityOperator(np.ones((2, 3)) / 2)
    rho = DensityOperator.maximally_mixed(4)
    assert abs(purity(rho) - 0.25) < 1e-12
    for dim in (0, -1):
        with pytest.raises(QcoreError, match="at least 1"):
            DensityOperator.maximally_mixed(dim)
    with pytest.raises(QcoreError):
        rho.apply(PAULI_X, [2])  # two qubits
    with pytest.raises(QcoreError):
        DensityOperator(np.eye(3) / 3).apply(PAULI_X, [0])  # dimension not 2^n


def _random_density(gen, n):
    a = gen.normal(size=(2**n, 3)) + 1j * gen.normal(size=(2**n, 3))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _dense_two_qubit(op, n, a, b):
    """op on qubits (a, b) of n as a dense 2^n matrix: the sum over its
    entries of |i><k| on a times |j><l| on b."""
    total = np.zeros((2**n, 2**n), dtype=np.complex128)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        factors = [np.eye(2)] * n
        factors[a] = np.outer(np.eye(2)[i], np.eye(2)[k])
        factors[b] = np.outer(np.eye(2)[j], np.eye(2)[l])
        total += op[2 * i + j, 2 * k + l] * kron_all(factors)
    return total


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_density_apply_matches_dense_conjugation(n, seed, data):
    gen = np.random.default_rng(seed)
    rho = _random_density(gen, n)
    q = data.draw(st.integers(0, n - 1))
    one = _random_operator(gen, 2, unitary=True)
    cases = [(one, [q], kron_all([one if j == q else np.eye(2) for j in range(n)]))]
    if n >= 2:
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        two = _random_operator(gen, 4, unitary=True)
        cases.append((two, [a, b], _dense_two_qubit(two, n, a, b)))
    whole = _random_operator(gen, 2**n, unitary=True)
    cases.append((whole, None, whole))
    for op, targets, dense in cases:
        got = rho.apply(op, targets).matrix
        assert np.max(np.abs(got - dense @ rho.matrix @ dense.conj().T)) <= 1e-12
        with pytest.raises(QcoreError):
            rho.apply(2.0 * op, targets)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    rank=st.integers(1, 3),
    f=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_by_construction_results_pass_the_constructor(n, rank, f, seed, data):
    # These results are density operators by construction and are adopted
    # unchecked.  The checked constructor must accept each and move it by at
    # most 1e-12; where the site stores its matrix normalized, it must give
    # the same bits from the same raw matrix.
    gen = np.random.default_rng(seed)
    d = 2**n
    ket = StateVector(gen.normal(size=d) + 1j * gen.normal(size=d), normalize=True)
    a = gen.normal(size=(d, rank)) + 1j * gen.normal(size=(d, rank))
    rho = DensityOperator(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    pure = ket.to_density()
    joint = DensityOperator(np.kron(rho.matrix, pure.matrix))
    rows = np.stack(foundations.sample_haar_frame(d, RandomSource(seed, n)))
    normalized = [
        (pure, np.outer(ket.amplitudes, ket.amplitudes.conj())),
        (partial_trace(joint, [d, d], [0]), np.trace(joint.matrix.reshape(d, d, d, d), 0, 1, 3)),
        (partial_trace(joint, [d, d], [1]), np.trace(joint.matrix.reshape(d, d, d, d), 0, 0, 2)),
        (DensityOperator.maximally_mixed(7 * n), np.eye(7 * n) / (7 * n)),  # 1/7 rounds
        (foundations.gleason_decohere(rho, list(rows)), foundations._decohere(rho.matrix, rows[None])),
        (entangle.WernerState(f).rho, entangle._werner_matrices(f)),
    ]
    for result, raw in normalized:
        assert np.array_equal(result.matrix, DensityOperator(raw).matrix)
    keep = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    q = data.draw(st.integers(0, n - 1))
    results = [result for result, _ in normalized] + [
        partial_trace(rho, [2] * n, keep),
        rho.apply(_random_operator(gen, 2, unitary=True), [q]),
        rho.apply(_random_operator(gen, d, unitary=True)),
    ]
    if n == 2:
        results.append(ghz_density_recursive(rho, 2))
    for result in results:
        assert np.max(np.abs(DensityOperator(result.matrix).matrix - result.matrix)) <= 1e-12
    # A pinching of rho: the sum over the frame of its Born weights times
    # the frame's projectors.
    born = [float(np.real(v.conj() @ rho.matrix @ v)) for v in rows]
    pinched = sum(p * np.outer(v, v.conj()) for p, v in zip(born, rows))
    assert np.max(np.abs(normalized[4][0].matrix - pinched)) <= 1e-12


def test_partial_trace_bell():
    rho = bell_state("psi-").to_density()
    reduced = partial_trace(rho, [2, 2], keep=[0])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    a = StateVector([1.0, 0.0]).to_density()
    b = StateVector([0.0, 1.0]).to_density()
    joint = DensityOperator(np.kron(a.matrix, b.matrix))
    back = partial_trace(joint, [2, 2], keep=[1])
    assert np.allclose(back.matrix, b.matrix, atol=1e-12)


def test_kron_all():
    expected = np.kron(np.kron(PAULI_X, PAULI_Y), PAULI_Z)
    assert np.array_equal(kron_all([PAULI_X, PAULI_Y, PAULI_Z]), expected)


def test_operator_predicates_batched_and_square():
    # The identity, the 3-point Fourier matrix and the identity again.
    frames = np.stack([np.eye(3), np.fft.fft(np.eye(3)) / math.sqrt(3), np.eye(3)])
    assert is_unitary(frames)
    skewed = frames.copy()
    skewed[1, 0, 0] += 1e-6
    assert not is_unitary(skewed)
    assert not is_unitary(np.ones((2, 3)))
    assert not is_hermitian(np.ones((2, 1)))
    assert is_dichotomic(PAULI_Z) and is_dichotomic((PAULI_X + PAULI_Z) / math.sqrt(2))
    assert not is_dichotomic(np.array([[1, 1], [0, -1]]))  # squares to I, not Hermitian
    assert not is_dichotomic(2 * PAULI_Z)  # Hermitian, squares to 4 I


def _hand_folded(bits, sign):
    """The index fold ghz_state, temporal_ghz_closed_form and
    QuantumChain.expected_state each wrote out before branch_pair."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    amp = np.zeros(1 << len(bits), dtype=np.complex128)
    amp[idx] = 1.0 / math.sqrt(2.0)
    amp[(1 << len(bits)) - 1 - idx] = sign * (1.0 / math.sqrt(2.0))
    return StateVector(amp).amplitudes


def test_branch_pair_reproduces_hand_built_states():
    for n in (2, 3, 7, MAX_QUBITS):
        assert np.array_equal(ghz_state(n).amplitudes, _hand_folded([0] * n, 1))
    for n_pairs in range(1, 6):
        bits, current = [], 0
        for k in range(2 * n_pairs):
            bits.append(current)
            current ^= 1 if k % 2 == 0 else 0
        assert np.array_equal(temporal_ghz_closed_form(n_pairs).amplitudes, _hand_folded(bits, 1))
    rng = RandomSource(5, 0)
    for count in (1, 2, 5):
        recs = [Record(int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(count)]
        bits = [0]
        for i, rec in enumerate(recs):
            if i > 0:
                bits.append(rec.r1)
            bits.append(rec.r2)
        expected = _hand_folded(bits, (-1) ** recs[0].r1)
        assert np.array_equal(build_chain(recs, rng).expected_state().amplitudes, expected)
    assert np.array_equal(branch_pair([1, 0], -1).amplitudes, _hand_folded([1, 0], -1))


def _sparse_and_dense(gen, n, count):
    """A random normalized ket on ``count`` basis states of n qubits, as a
    sparse ket and as a StateVector."""
    indices = np.sort(gen.choice(1 << n, size=min(count, 1 << n), replace=False))
    values = gen.normal(size=indices.size) + 1j * gen.normal(size=indices.size)
    dense = np.zeros(1 << n, dtype=np.complex128)
    dense[indices] = values
    return _SparseKet(n, indices, values, normalize=True), StateVector(dense, normalize=True)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 20),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    unitary=st.booleans(),
    data=st.data(),
)
def test_sparse_ket_matches_state_vector(n, count, seed, unitary, data):
    gen = np.random.default_rng(seed)
    ket, psi = _sparse_and_dense(gen, n, count)
    assert np.array_equal(ket.amplitudes, psi.amplitudes)
    assert ket.num_qubits == psi.num_qubits == n

    index = data.draw(st.integers(0, (1 << n) - 1))
    assert ket.entry(index) == psi.amplitudes[index]

    q = data.draw(st.integers(0, n - 1))
    op = _random_operator(gen, 2, unitary)
    got, ref = ket.apply(op, [q]), psi.apply(op, [q])
    # Each output amplitude mixes two inputs, which the two kernels may round
    # differently.
    assert np.max(np.abs(got.amplitudes - ref.amplitudes)) <= 1e-15


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 18),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    signed_zeros=st.booleans(),
    bell=st.sampled_from(BELL_LABELS),
    flip=st.booleans(),
    data=st.data(),
)
def test_fuse_pair_matches_tensor_projection_and_flip(
    n, count, seed, signed_zeros, bell, flip, data
):
    gen = np.random.default_rng(seed)
    if signed_zeros:
        # Real amplitudes whose imaginary parts are +0 or -0, as on the chain.
        indices = np.sort(gen.choice(1 << n, size=min(count, 1 << n), replace=False))
        real = gen.choice([-1.0, 1.0], size=indices.size) * gen.uniform(0.1, 1.0, indices.size)
        values = real.astype(np.complex128)
        values.imag = gen.choice([0.0, -0.0], size=indices.size)
        ket = _SparseKet(n, indices, values, normalize=True)
    else:
        ket, _ = _sparse_and_dense(gen, n, count)
    pair = bell_state(bell)
    q = data.draw(st.integers(0, n - 1))
    p, build = ket.fuse_pair(q, pair, flip)
    # The dense product state, projected through the mask reference.
    p_ref, build_ref = fuse_equal_bits(StateVector(ket.amplitudes).tensor(pair), q, n)
    # Every entry keeps one Bell entry, of squared magnitude 1/2.
    assert p == p_ref == pytest.approx(0.5, abs=1e-15)
    got, ref = build(), build_ref()
    if flip:
        ref = ref.apply(PAULI_X, [n])
    assert got.num_qubits == ref.num_qubits == n + 2
    assert np.array_equal(got.indices, np.flatnonzero(ref.amplitudes))
    assert got.values.tobytes() == ref.amplitudes[got.indices].tobytes()


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf, 1e200])
@pytest.mark.parametrize("normalize", [False, True])
def test_sparse_ket_rejects_what_state_vector_rejects(bad, normalize):
    dense = np.zeros(8, dtype=np.complex128)
    dense[[2, 5]] = [bad, 0.5]
    for build in (lambda: _SparseKet(3, [2, 5], [bad, 0.5], normalize=normalize),
                  lambda: StateVector(dense, normalize=normalize)):
        with pytest.raises(QcoreError, match="finite"):
            build()


def test_sparse_ket_rejects_zero_norm_as_state_vector_does():
    ket = _SparseKet(3, [2, 5], [0.6, 0.8])
    psi = StateVector(ket.amplitudes)
    for state in (ket, psi):
        with pytest.raises(QcoreError, match="zero"):
            state.apply(np.zeros((2, 2)), [1])
    # |010> and |101> both differ in qubits 0 and 1.
    p, fused = fuse_equal_bits(psi, 0, 1)
    assert p == 0.0
    with pytest.raises(QcoreError, match="zero"):
        fused()
    with pytest.raises(QcoreError, match="zero"):
        _SparseKet(3, [1], [0.0], normalize=True)
