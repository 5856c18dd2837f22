import numpy as np
import pytest

from _oracles import members, mixture_reference
from debias.observations import (
    ContractError,
    EuclideanPoint,
    ObservationSet,
    WeightedEmpirical,
    mean_observation,
    mixture,
    mixture_weights,
)


def test_mean_euclidean_pair():
    s = ObservationSet.from_points([[0.0], [2.0]])
    assert mean_observation(s).coords == pytest.approx([1.0])


def test_mean_single_observation_is_identity():
    x = np.array([0.3, -1.7, 2.2])
    s = ObservationSet.from_points([x])
    assert np.array_equal(mean_observation(s).coords, x)


def test_mean_dirac_counting():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    s = ObservationSet.from_dirac_points([a, b, a])
    mean = mean_observation(s)
    assert mean.support.shape == (2, 2)
    weights = {tuple(pt): w for pt, w in zip(mean.support, mean.weights)}
    assert weights[(1.0, 0.0)] == pytest.approx(2 / 3, abs=1e-15)
    assert weights[(0.0, 1.0)] == pytest.approx(1 / 3, abs=1e-15)


def test_mean_matches_plain_average_on_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(1, 9)), 3))
        got = mean_observation(ObservationSet.from_points(pts)).coords
        assert np.allclose(got, pts.mean(axis=0), rtol=0, atol=1e-14)


def test_heterogeneous_set_rejected():
    with pytest.raises(ContractError):
        ObservationSet([EuclideanPoint([1.0]), WeightedEmpirical.dirac([1.0])])
    with pytest.raises(ContractError):
        ObservationSet([EuclideanPoint([1.0]), EuclideanPoint([1.0, 2.0])])


def test_empty_set_rejected():
    with pytest.raises(ContractError):
        ObservationSet([])


def test_euclidean_point_requires_finite():
    with pytest.raises(ContractError):
        EuclideanPoint([np.nan])
    with pytest.raises(ContractError):
        EuclideanPoint([np.inf, 0.0])


def test_weighted_empirical_invariants():
    with pytest.raises(ContractError):
        WeightedEmpirical([[0.0]], [0.5])  # weights must sum to 1
    with pytest.raises(ContractError):
        WeightedEmpirical([[0.0], [1.0]], [1.5, -0.5])  # nonnegative
    with pytest.raises(ContractError):
        WeightedEmpirical([[0.0], [1.0]], [np.nan, 1.0])
    w = WeightedEmpirical([[0.0], [1.0]], [0.25, 0.75])
    assert w.dimension == 1


def test_mixture_merges_duplicates():
    a = WeightedEmpirical.dirac([1.0, 2.0])
    b = WeightedEmpirical([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])
    mix = mixture(ObservationSet([a, b]), np.array([0.5, 0.5]))
    weights = {tuple(pt): w for pt, w in zip(mix.support, mix.weights)}
    assert weights[(1.0, 2.0)] == pytest.approx(0.75)
    assert weights[(3.0, 4.0)] == pytest.approx(0.25)


def _same_distribution(a, b):
    # bytes, not ==, so that 0.0 and -0.0 atoms count as different
    return (a.support.tobytes() == b.support.tobytes() and a.support.shape == b.support.shape
            and a.weights.tobytes() == b.weights.tobytes())


def _mixture_cases():
    dirac = WeightedEmpirical.dirac
    dup = [dirac([1.0, 2.0]), dirac([3.0, 4.0]), dirac([1.0, 2.0]), dirac([1.0, 2.0])]
    yield dup, np.array([0.25, 0.25, 0.25, 0.25])
    yield dup, np.array([0.0, 0.5, 0.25, 0.25])  # first duplicate dropped: group moves back
    yield dup, np.array([1 / 3, 0.0, 1 / 3, 1 / 3])
    signed = [dirac([0.0]), dirac([-0.0]), dirac([0.0]), dirac([1.0])]
    yield signed, np.array([0.1, 0.2, 0.3, 0.4])
    yield signed, np.array([0.0, 0.5, 0.5, 0.0])
    multi = [
        WeightedEmpirical([[0.0, 1.0], [2.0, 2.0], [0.0, 1.0]], [0.2, 0.5, 0.3]),
        WeightedEmpirical([[2.0, 2.0], [5.0, 5.0]], [0.0, 1.0]),  # a zero-weight atom
        dirac([0.0, 1.0]),
    ]
    yield multi, np.array([0.5, 0.3, 0.2])
    yield multi, np.array([0.0, 0.6, 0.4])
    rng = np.random.default_rng(3)
    pool = rng.normal(size=(4, 2))
    for _ in range(60):
        members = []
        for _ in range(rng.integers(1, 7)):
            atoms = rng.integers(1, 4)
            w = rng.integers(0, 3, atoms).astype(float)
            w[rng.integers(atoms)] += 1.0
            members.append(WeightedEmpirical(pool[rng.integers(0, 4, atoms)], w / w.sum()))
        counts = rng.integers(0, 3, len(members)).astype(float)
        counts[rng.integers(len(members))] += 1.0
        yield members, counts / counts.sum()


def test_mixture_matches_per_row_merge():
    for members, coeffs in _mixture_cases():
        got = mixture(ObservationSet(members), coeffs)
        assert _same_distribution(got, mixture_reference(members, coeffs))


def test_mixture_weights_match_per_row_merge():
    # each row of a batch, as atoms and weights, byte-equal to merging it alone
    rng = np.random.default_rng(8)
    for members, coeffs in _mixture_cases():
        counts = rng.integers(0, 3, (5, len(members))).astype(float)
        counts[np.arange(5), rng.integers(len(members), size=5)] += 1.0
        batch = np.vstack([coeffs, counts / counts.sum(axis=1, keepdims=True), coeffs])
        support = ObservationSet(members).atom_table[0]
        rows = mixture_weights(ObservationSet(members), batch)
        assert len(rows) == len(batch)
        for (lead, w), row in zip(rows, batch):
            want = mixture_reference(members, row)
            assert support[lead].tobytes() == want.support.tobytes()
            assert w.tobytes() == want.weights.tobytes()


def test_mixture_weights_contracts():
    s = ObservationSet([WeightedEmpirical.dirac([1.0]), WeightedEmpirical.dirac([2.0])])
    with pytest.raises(ContractError, match="no mass"):
        mixture_weights(s, np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ContractError, match="one coefficient per observation"):
        mixture_weights(s, np.array([0.5, 0.5]))
    with pytest.raises(ContractError, match="one coefficient per observation"):
        mixture_weights(s, np.ones((2, 3)) / 3)
    with np.errstate(invalid="ignore"), pytest.raises(ContractError, match="must sum to 1"):
        mixture_weights(s, np.array([[0.5, 0.5], [np.inf, 1.0]]))  # weights inf/inf
    with np.errstate(invalid="ignore"), pytest.raises(ContractError, match="must sum to 1"):
        mixture(s, np.array([np.inf, 1.0]))


def test_mixture_keeps_signed_zero_atoms_apart():
    s = ObservationSet([WeightedEmpirical.dirac([0.0]), WeightedEmpirical.dirac([-0.0])])
    mix = mixture(s, np.array([0.5, 0.5]))
    assert mix.support.shape == (2, 1)
    assert np.signbit(mix.support[:, 0]).tolist() == [False, True]


def test_mixture_contracts():
    s = ObservationSet([WeightedEmpirical.dirac([1.0]), WeightedEmpirical.dirac([2.0])])
    with pytest.raises(ContractError, match="no mass"):
        mixture(s, np.array([0.0, 0.0]))
    with pytest.raises(ContractError, match="one coefficient per observation"):
        mixture(s, np.array([1.0]))
    with pytest.raises(ContractError):
        mixture(ObservationSet.from_points([[1.0], [2.0]]), np.array([0.5, 0.5]))


def test_fingerprint_detects_changes():
    s1 = ObservationSet.from_points([[1.0], [2.0]])
    s2 = ObservationSet.from_points([[1.0], [2.0]])
    s3 = ObservationSet.from_points([[1.0], [2.5]])
    assert s1.fingerprint() == s2.fingerprint()
    assert s1.fingerprint() != s3.fingerprint()


def test_observation_accessors():
    s = ObservationSet.from_points([[1.0, 2.0], [3.0, 4.0]])
    assert len(s) == 2
    assert s.dimension == 2
    assert np.array_equal(members(s)[1].coords, [3.0, 4.0])
    assert len(members(s)) == 2
