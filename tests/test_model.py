import math
from itertools import permutations

import numpy as np
import pytest
from scipy.special import gammaln

from conftest import diag_source, rand_source
from qpamp.errors import CapacityError, InvalidInputError
from qpamp.model import (
    _log_factorial,
    CQSource,
    ConstantTypeSource,
    TypeDistribution,
    enumerate_n_types,
    enumerate_type_class,
    marginal_state,
    source_from_json,
    source_to_json,
    type_class_log_size,
)
from qpamp.qmat import random_density


class TestSourceValidation:
    def test_prior_must_sum_to_one(self, rng):
        with pytest.raises(InvalidInputError):
            CQSource(prior=np.array([0.5, 0.6]), states=(random_density(rng, 2),) * 2)

    def test_prior_nonnegative(self, rng):
        with pytest.raises(InvalidInputError):
            CQSource(prior=np.array([1.2, -0.2]), states=(random_density(rng, 2),) * 2)

    def test_mixed_dimensions_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            CQSource(
                prior=np.array([0.5, 0.5]),
                states=(random_density(rng, 2), random_density(rng, 3)),
            )

    def test_constant_type_prior_must_match(self, rng):
        t = TypeDistribution(n=4, counts=(2, 2))
        base = CQSource(prior=np.array([0.4, 0.6]), states=(random_density(rng, 2),) * 2)
        with pytest.raises(InvalidInputError):
            ConstantTypeSource(base=base, type=t)

    def test_from_states(self, rng):
        t = TypeDistribution(n=3, counts=(2, 1))
        src = ConstantTypeSource.from_states((random_density(rng, 2),) * 2, t)
        np.testing.assert_allclose(src.base.prior, [2 / 3, 1 / 3])


class TestMarginalAndSequence:
    def test_equal_states(self, rng):
        rho = random_density(rng, 3)
        src = CQSource(prior=np.array([0.3, 0.7]), states=(rho, rho))
        np.testing.assert_allclose(marginal_state(src).entries, rho.entries, atol=1e-14)

    def test_point_mass(self, rng):
        r0, r1 = random_density(rng, 2), random_density(rng, 2)
        src = CQSource(prior=np.array([1.0, 0.0]), states=(r0, r1))
        np.testing.assert_allclose(marginal_state(src).entries, r0.entries, atol=1e-14)

    def test_orthogonal_half(self):
        src = diag_source([0.5, 0.5], [[1, 0], [0, 1]])
        np.testing.assert_allclose(marginal_state(src).entries, np.diag([0.5, 0.5]))


class TestTypeCombinatorics:
    @pytest.mark.parametrize(
        "counts,expected",
        [((2, 0), 0.0), ((1, 1), math.log(2)), ((2, 1, 1), math.log(12))],
    )
    def test_log_size_examples(self, counts, expected):
        t = TypeDistribution(n=sum(counts), counts=counts)
        assert type_class_log_size(t) == pytest.approx(expected, abs=1e-12)

    def test_enumeration_examples(self):
        assert enumerate_type_class(TypeDistribution(n=2, counts=(1, 1))) == [(0, 1), (1, 0)]
        assert enumerate_type_class(TypeDistribution(n=2, counts=(2, 0))) == [(0, 0)]
        assert enumerate_type_class(TypeDistribution(n=3, counts=(2, 1))) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_enumeration_matches_log_size(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(1, 7))
            counts = rng.multinomial(n, np.ones(k) / k)
            t = TypeDistribution(n=n, counts=tuple(int(c) for c in counts))
            seqs = enumerate_type_class(t)
            assert len(seqs) == t.class_size()
            assert len(seqs) == pytest.approx(math.exp(type_class_log_size(t)))
            assert len(set(seqs)) == len(seqs)
            assert seqs == sorted(set(permutations(seqs[0])))

    def test_class_size_is_the_multinomial(self):
        for counts in [(1,), (2, 1), (3, 3), (0, 5), (4, 2, 1), (1, 0, 0, 7), (9, 9), (5, 5, 5, 5)]:
            expected = math.factorial(sum(counts))
            for c in counts:
                expected //= math.factorial(c)
            assert TypeDistribution(n=sum(counts), counts=counts).class_size() == expected
        # a small class of a long sequence is counted without n!
        assert TypeDistribution(n=10**7, counts=(10**7 - 2, 2)).class_size() == 49999995000000

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            enumerate_type_class(TypeDistribution(n=30, counts=(15, 15)), cap=1000)

    def test_enumeration_of_a_long_sequence(self):
        # no recursion level per position: n far above the interpreter's limit
        assert enumerate_type_class(TypeDistribution(n=1500, counts=(1500, 0))) == [(0,) * 1500]

    def test_n_types_refusal_prints_long_counts_as_more_than_the_cap(self):
        # up to 10**18 the count is printed in full
        with pytest.raises(CapacityError, match="^100000000000000001 n-types exceeds"):
            enumerate_n_types(2, 10**17, cap=10**4)
        with pytest.raises(CapacityError, match="^more than 10000 n-types exceeds the cap 10000$"):
            enumerate_n_types(2, 10**100, cap=10**4)

    def test_n_types_counts(self):
        assert {t.counts for t in enumerate_n_types(2, 1)} == {(1, 0), (0, 1)}
        assert {t.counts for t in enumerate_n_types(2, 2)} == {(2, 0), (1, 1), (0, 2)}
        assert len(enumerate_n_types(3, 2)) == 6

    def test_n_types_bound(self):
        # |P_n(X)| <= (n+1)^|X|
        for k in (2, 3):
            for n in (1, 3, 6):
                assert len(enumerate_n_types(k, n)) <= (n + 1) ** k

    def test_type_class_size_sandwich(self):
        # (n+1)^-|X| e^{nH(q)} <= |T| <= e^{nH(q)}
        for k in (2, 3):
            for n in (2, 4, 6):
                for t in enumerate_n_types(k, n):
                    q = t.probabilities()
                    h = -sum(x * math.log(x) for x in q if x > 0)
                    log_size = type_class_log_size(t)
                    assert log_size <= n * h + 1e-12
                    assert log_size >= n * h - k * math.log(n + 1) - 1e-12


class TestLogFactorial:
    def test_bit_identical_to_scipy_gammaln(self):
        # the kernel replaces gammaln(k + 1); every branch of cephes lgam is
        # crossed: the exact product below 13, the 5-term series below 1000,
        # the 3-term series and the bare Stirling term above 1e8
        ks = list(range(100_001)) + [
            10**6, 12_345_678, 10**8 - 1, 10**8, 10**8 + 1, 123_456_789, 2 * 10**8,
        ]
        expected = gammaln(np.asarray(ks, dtype=float) + 1.0)
        got = np.array([_log_factorial(k) for k in ks])
        mismatch = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
        assert mismatch.size == 0, [ks[i] for i in mismatch[:5]]

    def test_small_values_are_exact_logs(self):
        for k in range(12):
            assert _log_factorial(k) == math.log(math.factorial(k))


class TestJson:
    def test_round_trip(self, rng):
        src = rand_source(rng, 3, 2)
        back = source_from_json(source_to_json(src))
        np.testing.assert_allclose(back.prior, src.prior)
        for a, b in zip(back.states, src.states):
            np.testing.assert_allclose(a.entries, b.entries, atol=1e-15)

    def test_missing_field(self):
        with pytest.raises(InvalidInputError):
            source_from_json({"prior": [1.0]})
