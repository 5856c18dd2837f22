import numpy as np
import pytest

from _oracles import mixture_reference
from debias.harness import _fingerprints, _stable_digest
from debias.observations import ObservationSet, mean_observation, mixture
from test_refusals import folded

# this module's single-refusal cases, each under its own id, are rows of
# test_refusals.TABLE
globals().update(folded("test_observations"))


def test_mean_euclidean_pair():
    s = ObservationSet.from_points([[0.0], [2.0]])
    assert mean_observation(s) == pytest.approx([1.0])


def test_mean_single_observation_is_identity():
    x = np.array([0.3, -1.7, 2.2])
    s = ObservationSet.from_points([x])
    assert np.array_equal(mean_observation(s), x)


def test_mean_dirac_counting():
    # a cloud averages as its uniform mixture: equal points stay separate
    # atoms of weight 1/n each
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    support, weights = mixture(np.stack([a, b, a]), np.full(3, 1 / 3))
    assert support.tobytes() == np.stack([a, b, a]).tobytes()
    assert weights.tolist() == [1 / 3] * 3


def test_mean_matches_plain_average_on_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(1, 9)), 3))
        got = mean_observation(ObservationSet.from_points(pts))
        assert np.allclose(got, pts.mean(axis=0), rtol=0, atol=1e-14)


def test_mixture_keeps_duplicates():
    points = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
    support, weights = mixture(points, np.array([0.5, 0.25, 0.25]))
    assert support.tobytes() == points.tobytes()
    assert weights.tolist() == [0.5, 0.25, 0.25]


def _same_distribution(a, b):
    # bytes, not ==, so that 0.0 and -0.0 atoms count as different
    (sa, wa), (sb, wb) = a, b
    return sa.tobytes() == sb.tobytes() and sa.shape == sb.shape and wa.tobytes() == wb.tobytes()


def _mixture_cases():
    dup = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [1.0, 2.0]])
    yield dup, np.array([0.25, 0.25, 0.25, 0.25])
    yield dup, np.array([0.0, 0.5, 0.25, 0.25])
    yield dup, np.array([1 / 3, 0.0, 1 / 3, 1 / 3])
    signed = np.array([[0.0], [-0.0], [0.0], [1.0]])
    yield signed, np.array([0.1, 0.2, 0.3, 0.4])
    yield signed, np.array([0.0, 0.5, 0.5, 0.0])
    rng = np.random.default_rng(3)
    pool = rng.normal(size=(4, 2))
    for _ in range(60):
        points = pool[rng.integers(0, 4, rng.integers(1, 9))]
        counts = rng.integers(0, 3, len(points)).astype(float)
        counts[rng.integers(len(points))] += 1.0
        yield points, counts / counts.sum()


def test_mixture_matches_per_row_merge():
    for points, coeffs in _mixture_cases():
        got = mixture(points, coeffs)
        assert _same_distribution(got, mixture_reference(points, coeffs))


def test_mixture_keeps_signed_zero_atoms_apart():
    support, _ = mixture(np.array([[0.0], [-0.0]]), np.array([0.5, 0.5]))
    assert support.shape == (2, 1)
    assert np.signbit(support[:, 0]).tolist() == [False, True]


def test_fingerprint_detects_changes():
    s1 = ObservationSet.from_points([[1.0], [2.0]])
    s2 = ObservationSet.from_points([[1.0], [2.0]])
    s3 = ObservationSet.from_points([[1.0], [2.5]])
    digests = _fingerprints(np.stack([s1.points, s2.points, s3.points]), paired=False)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
    # a pair's digest is the digest of its clouds' digests, and a cloud's
    # covers each point's bytes, then the bytes of its weight 1.0
    points = np.array([[0.5, -0.0], [1.5, 2.0]])
    one = np.array([1.0]).tobytes()
    cloud = _stable_digest(part for p in points for part in (p.tobytes(), one))
    assert (_fingerprints([(points, points)], paired=True)
            == [_stable_digest([cloud.to_bytes(8, "big")] * 2)])
    assert _fingerprints(points[None], paired=False) != [cloud]


def test_observation_accessors():
    s = ObservationSet.from_points([[1.0, 2.0], [3.0, 4.0]])
    assert len(s) == 2
    assert s.dimension == 2
    assert np.array_equal(s.points[1], [3.0, 4.0])
