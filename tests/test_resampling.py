import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from numpy.random import Philox, SeedSequence

from _oracles import categorical
from debias.core import BootstrapPlan, _resample_counts, _uniform
from debias.observations import ContractError, ObservationSet
from debias.resampling import RandomStream, block_keys, block_streams

# first uniforms of (seed 42, path (3, 7)); the Philox/SeedSequence scheme is
# platform independent, so these are frozen as a portability contract
GOLDEN_42_3_7 = [
    0.31284893903476974,
    0.2331896468198793,
    0.6541342099333356,
    0.9044588835567176,
    0.20090234232131665,
]


def test_split_determinism():
    a = RandomStream(9).split(0)
    b = RandomStream(9).split(0)
    assert np.array_equal(a.uniform(1000), b.uniform(1000))


def test_split_distinctness():
    a = RandomStream(9).split(0).uniform(1000)
    b = RandomStream(9).split(1).uniform(1000)
    assert np.any(a != b)


def test_portability_golden_values():
    s = RandomStream(42).split(3).split(7)
    assert s.uniform(5).tolist() == GOLDEN_42_3_7
    # the path constructor is equivalent to the split chain
    assert RandomStream(42, (3, 7)).uniform(5).tolist() == GOLDEN_42_3_7


def test_path_reproducibility_long():
    a = RandomStream(123, (1, 2, 3)).uniform(100)
    b = RandomStream(123, (1, 2, 3)).uniform(100)
    assert np.array_equal(a, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(-2**70, 2**70) | st.sampled_from([0, 2**32, 2**64, 2**64 + 5]),
       path=st.lists(st.integers(0, 2**70 - 1) | st.integers(0, 3), max_size=6))
def test_keys_are_seedsequence_keys(seed, path):
    # oracle: numpy's own SeedSequence on the masked seed and the whole path
    ref_seq = SeedSequence(seed & (2**64 - 1), spawn_key=tuple(path))
    ref = Philox(ref_seq)
    chain = RandomStream(seed)
    for i in path:
        chain = chain.split(i)
    for stream in (chain, RandomStream(seed, tuple(path))):
        assert stream.path == tuple(path)
        bits = stream.generator.bit_generator
        assert repr(bits.state) == repr(ref.state)
        assert stream.uniform(8).tolist() == np.random.Generator(Philox(ref_seq)).random(8).tolist()


def test_block_keys_under_a_long_path_are_seedsequence_keys():
    # the hash step of a block's keys counts the root path's 32-bit words:
    # 70 one-word entries and a three-word one
    prefix = tuple(range(70)) + (2**64 + 3,)
    root = RandomStream(11, prefix)
    keys = block_keys(root._seed_sequence(), 5, 8, 3)
    for t in range(5, 8):
        for j in range(3):
            ref = SeedSequence(11, spawn_key=prefix + (t, j))
            assert keys[t - 5, j].tolist() == ref.generate_state(2, np.uint64).tolist()
    assert (repr(root.split(6).split(2).generator.bit_generator.state)
            == repr(Philox(SeedSequence(11, spawn_key=prefix + (6, 2))).state))


# path entries at and around the 32-bit word boundaries, where an entry's
# word count, and with it the hash step of its block's keys, changes
_WORD_EDGES = st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64 - 1) | st.sampled_from([2**32, 2**32 + 1, 2**64 - 1]),
       prefix=st.lists(st.integers(0, 2**70) | _WORD_EDGES | st.integers(0, 3), max_size=3),
       lo=st.integers(0, 5) | st.integers(0, 2**32 - 6), trials=st.integers(1, 5),
       stages=st.integers(1, 4))
def test_block_streams_are_seedsequence_streams(seed, prefix, lo, trials, stages):
    # oracle: numpy's own SeedSequence and Philox for every (trial, stage) path
    root = RandomStream(seed, tuple(prefix))
    hi = lo + trials
    keys = block_keys(root._seed_sequence(), lo, hi, stages)
    assert keys.shape == (trials, stages, 2) and keys.dtype == np.uint64
    streams = block_streams(root, lo, hi, stages)
    drawn = []
    for t in range(lo, hi):
        for j in range(stages):
            ref = SeedSequence(seed, spawn_key=tuple(prefix) + (t, j))
            assert keys[t - lo, j].tolist() == ref.generate_state(2, np.uint64).tolist()
            stream = streams[j][t - lo]
            assert stream.path == tuple(prefix) + (t, j)
            assert repr(stream.generator.bit_generator.state) == repr(Philox(ref).state)
            want = np.random.Generator(Philox(ref)).random(3)
            assert stream.uniform(3).tolist() == want.tolist()
            drawn.append(stream)
    # every stream but the last to draw has been displaced from the block's
    # generator
    for stream in drawn[:-1]:
        with pytest.raises(RuntimeError, match="moved on"):
            stream.uniform()
    drawn[-1].uniform()


def test_block_stream_splits_and_consecutive_draws():
    # a stream keeps the generator while it draws; a split child is a lone
    # stream of the child's path; the first draw of another stream displaces it
    a, b = block_streams(RandomStream(8, (2,)), 4, 6, 2)[1]
    want = RandomStream(8, (2, 4, 1)).uniform(5).tolist()
    assert a.uniform(2).tolist() + a.uniform(3).tolist() == want
    child = a.split(3)
    assert child.normal(4).tolist() == RandomStream(8, (2, 4, 1, 3)).normal(4).tolist()
    assert a.uniform().hex() == RandomStream(8, (2, 4, 1)).uniform(6)[5].hex()
    b.uniform()
    with pytest.raises(RuntimeError, match="moved on"):
        a.generator


def test_block_keys_need_one_word_trial_indices():
    seq = RandomStream(1)._seed_sequence()
    assert block_keys(seq, 2**32 - 1, 2**32, 1).shape == (1, 1, 2)
    for lo, hi in [(2**32 - 1, 2**32 + 1), (3, 3), (-1, 2)]:
        with pytest.raises(ContractError):
            block_keys(seq, lo, hi, 1)


def test_bad_index_rejected_promptly():
    # each raises ContractError at once: numpy's SeedSequence would refuse
    # these only at the stream's first draw, and with ValueError or TypeError
    for make in (lambda: RandomStream(0).split(-1), lambda: RandomStream(0).split(1.5),
                 lambda: RandomStream(0, (-2,))):
        with pytest.raises(ContractError):
            make()


# the multinomial resample counts every bootstrap draws (core._resample_counts)


def test_draw_counts_single_category():
    # every row is 1, and multinomial draws nothing: the stream's next draw is its first
    stream = RandomStream(0)
    counts = _resample_counts(_uniform(1), BootstrapPlan(rounds=2), stream)
    assert counts.tolist() == [[1], [1]] and counts.dtype == np.int64
    assert stream.uniform(3).tobytes() == RandomStream(0).uniform(3).tobytes()


def test_draw_counts_sum_invariant():
    counts = _resample_counts(_uniform(6), BootstrapPlan(rounds=200), RandomStream(4))
    assert counts.shape == (200, 6)
    assert np.all(counts.sum(axis=1) == 6)
    assert np.all(counts >= 0)


def test_draw_counts_moments():
    # n = 8 draws over 8 slots: each slot has mean 1; 1e5 draws, 3 sigma band
    draws = 100_000
    counts = _resample_counts(_uniform(8), BootstrapPlan(rounds=draws), RandomStream(5))
    total = counts.mean(axis=0)
    se = np.sqrt(8 * 0.125 * 0.875 / draws)
    assert np.all(np.abs(total - 1.0) < 3 * se)


def test_draw_counts_marginal_chisquare():
    # n = 8: the marginal of slot 0 is Binomial(8, 1/8); chi-square GOF at 1e-3
    draws = 100_000
    plan = BootstrapPlan(rounds=draws)
    counts = _resample_counts(_uniform(8), plan, RandomStream(6))[:, 0]
    observed = np.bincount(counts, minlength=9).astype(float)
    expected = scipy.stats.binom.pmf(np.arange(9), 8, 0.125) * draws
    # merge the sparse tail so expected counts stay above 5
    keep = expected >= 5
    observed = np.append(observed[keep], observed[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    stat, pvalue = scipy.stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert pvalue > 1e-3


def test_draw_counts_validates():
    # a resample of an empty set, and a plan of no resamples, are refused
    with pytest.raises(ContractError):
        ObservationSet.from_points(np.empty((0, 3)))
    with pytest.raises(ContractError):
        BootstrapPlan(rounds=0)


def test_normal_moments():
    z = RandomStream(7).normal(200_000)
    assert abs(z.mean()) < 3 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 3 * np.sqrt(2.0 / z.size)


def test_normal_shapes():
    s = RandomStream(8)
    assert isinstance(s.normal(), float)
    assert s.normal(5).shape == (5,)
    assert s.normal((3, 4)).shape == (3, 4)


def test_gamma_unit_mean():
    # shape k, scale 1/k has mean 1 and variance 1/k
    for k in (0.5, 1.0, 4.0):
        x = RandomStream(10).gamma(k, 1.0 / k, 1_000_000)
        se = np.sqrt(1.0 / k / x.size)
        assert abs(x.mean() - 1.0) < 3 * se


def test_dirichlet_simplex():
    s = RandomStream(11)
    for alpha in (0.3, 1.0, 5.0):
        p = s.dirichlet(alpha, 8)
        assert p.shape == (8,)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_categorical_frequencies():
    p = np.array([0.5, 0.3, 0.2])
    idx = categorical(RandomStream(12), p, 100_000)
    freq = np.bincount(idx, minlength=3) / idx.size
    se = np.sqrt(p * (1 - p) / idx.size)
    assert np.all(np.abs(freq - p) < 3 * se)


def test_invalid_parameters():
    s = RandomStream(0)
    with pytest.raises(ValueError):
        s.gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        s.dirichlet(0.0, 3)
    with pytest.raises(ValueError):
        categorical(s, np.array([0.5, 0.6]))
