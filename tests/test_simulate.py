import math
import tracemalloc
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import rand_instance
from qpamp.errors import CapacityError, InvalidParameterError
from qpamp.model import ConstantTypeSource, TypeDistribution, enumerate_type_class
from qpamp.qmat import DensityOperator, HermitianOperator, random_density, trace_norm
from qpamp import simulate
from qpamp.simulate import (
    d_pa_exact,
    d_pa_monte_carlo,
    d_sc_exact,
    d_sc_monte_carlo,
    substream,
    verify_equivalence,
    without_replacement_covariance,
)


def orthogonal_source(n=2, counts=(1, 1)) -> ConstantTypeSource:
    states = (
        DensityOperator(HermitianOperator(np.diag([1.0, 0.0]).astype(complex))),
        DensityOperator(HermitianOperator(np.diag([0.0, 1.0]).astype(complex))),
    )
    return ConstantTypeSource.from_states(states, TypeDistribution(n=n, counts=counts))


def equal_states_source(rng, n=4, counts=(2, 2)) -> ConstantTypeSource:
    rho = random_density(rng, 2)
    return ConstantTypeSource.from_states((rho, rho), TypeDistribution(n=n, counts=counts))


class TestSampling:
    """The draws of the Monte Carlo trials: _draw_binning for d_PA,
    _draw_without_replacement for d_SC."""

    def test_binning_divisibility(self, rng):
        src = equal_states_source(rng, n=3, counts=(2, 1))  # |T| = 3
        with pytest.raises(InvalidParameterError):
            d_pa_monte_carlo(src, 2, trials=5, rng_seed=0)

    def test_single_bin_is_constant_map(self):
        bins = simulate._draw_binning(substream(5, 0), 1, 6)
        np.testing.assert_array_equal(bins, [np.arange(6)])

    def test_binning_regularity(self):
        for seed in range(10):
            bins = simulate._draw_binning(substream(seed, 0), 3, 2)  # |T| = 6
            assert bins.shape == (3, 2)
            np.testing.assert_array_equal(np.sort(bins, axis=None), np.arange(6))

    def test_binning_seed_census_bijections(self):
        # |T| = 2, 2 bins: each bijection should appear about half the time
        hits = Counter(
            tuple(simulate._draw_binning(substream(s, 0), 2, 1).ravel()) for s in range(3000)
        )
        assert set(hits) == {(0, 1), (1, 0)}
        assert abs(hits[(0, 1)] / 3000 - 0.5) < 0.04

    def test_binning_seed_census_partitions(self):
        # |T| = 4 into 2 bins: 3 pair-partitions x 2 labelings = 6 outcomes
        hits = Counter(
            tuple(simulate._draw_binning(substream(s, 0), 2, 2).ravel()) for s in range(6000)
        )
        assert len(hits) == 6
        for count in hits.values():
            assert abs(count / 6000 - 1 / 6) < 0.03

    def test_codebook_whole_class(self):
        sel = simulate._draw_without_replacement(substream(1, 0), 3, 3)
        assert sorted(sel) == [0, 1, 2]

    def test_codebook_size_validation(self, rng):
        src = equal_states_source(rng, n=3, counts=(2, 1))  # |T| = 3
        for M in (0, 4):
            with pytest.raises(InvalidParameterError):
                d_sc_monte_carlo(src, M, trials=5, rng_seed=0)

    def test_codebook_seed_census(self):
        # each unordered pair out of |T| = 3 with probability 1/3
        hits = Counter(
            tuple(sorted(simulate._draw_without_replacement(substream(s, 0), 3, 2)))
            for s in range(3000)
        )
        assert len(hits) == 3
        for count in hits.values():
            assert abs(count / 3000 - 1 / 3) < 0.04

    def test_codebook_distinctness_enforced(self):
        for seed in range(50):
            sel = simulate._draw_without_replacement(substream(seed, 0), 6, 4)
            assert len(set(sel.tolist())) == 4

    def test_substream_determinism(self):
        a = substream(42, 3).integers(1 << 30, size=5)
        b = substream(42, 3).integers(1 << 30, size=5)
        c = substream(42, 4).integers(1 << 30, size=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSoftCoveringDistance:
    def test_whole_class_is_exact(self, rng):
        src = equal_states_source(rng)
        assert d_sc_exact(src, src.type.class_size()) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_singleton(self):
        src = orthogonal_source()
        assert d_sc_exact(src, 1) == pytest.approx(0.5, abs=1e-12)

    def test_equal_states_zero(self, rng):
        src = equal_states_source(rng)
        for m in (1, 2, 3, 6):
            assert d_sc_exact(src, m) == pytest.approx(0.0, abs=1e-12)

    def test_capacity_cap(self, rng):
        src = equal_states_source(rng)
        with pytest.raises(CapacityError):
            d_sc_exact(src, 3, cap=10)

    def test_monte_carlo_matches_exact(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        m = max(2, size // 2)
        exact = d_sc_exact(src, m)
        est = d_sc_monte_carlo(src, m, trials=400, rng_seed=9)
        assert abs(est.mean - exact) <= max(3 * est.std_error, 1e-12)

    def test_single_trial_reproduces_one_draw(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        est = d_sc_monte_carlo(src, 2, trials=1, rng_seed=77)
        assert est.std_error == 0.0
        sel = np.sort(simulate._draw_without_replacement(substream(77, 0), size, 2))
        domain, states, marginal = simulate._prepare(src, cap=10**6)
        diff = states[sel].mean(axis=0) - marginal
        assert est.mean == pytest.approx(0.5 * trace_norm(diff), abs=1e-14)

    def test_seed_determinism(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        a = d_sc_monte_carlo(src, 2, trials=50, rng_seed=3)
        b = d_sc_monte_carlo(src, 2, trials=50, rng_seed=3)
        assert a == b


class TestPrivacyAmplificationDistance:
    def test_single_bin_zero(self, rng):
        src = rand_instance(rng)
        assert d_pa_exact(src, 1) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pair_half(self):
        # two orthogonal pure sequence states, one per bin
        src = orthogonal_source()
        assert d_pa_exact(src, 2) == pytest.approx(0.5, abs=1e-12)

    def test_equal_states_zero(self, rng):
        src = equal_states_source(rng)
        for bins in (1, 2, 3, 6):
            assert d_pa_exact(src, bins) == pytest.approx(0.0, abs=1e-12)

    def test_divisibility_error(self, rng):
        src = equal_states_source(rng)  # |T| = 6
        with pytest.raises(InvalidParameterError):
            d_pa_exact(src, 4)

    def test_monte_carlo_matches_exact(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        bins = next(b for b in (2, 3, 5) if size % b == 0)
        exact = d_pa_exact(src, bins)
        est = d_pa_monte_carlo(src, bins, trials=400, rng_seed=4)
        assert abs(est.mean - exact) <= max(3 * est.std_error, 1e-12)

    def test_monte_carlo_single_bin_exactly_zero(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        est = d_pa_monte_carlo(src, 1, trials=20, rng_seed=1)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_blockwise_equals_composite(self, rng):
        # spot check at tiny dimension: the per-bin decomposition must agree
        # with the trace distance of the full composite register state
        src = orthogonal_source()
        rho0 = random_density(rng, 2)
        rho1 = random_density(rng, 2)
        src = ConstantTypeSource.from_states((rho0, rho1), TypeDistribution(n=2, counts=(1, 1)))
        domain, states, marginal = simulate._prepare(src, cap=100)
        size = len(domain)
        num_bins = 2
        k = size // num_bins
        total = 0.0
        count = 0
        for blocks in simulate._equal_partitions(tuple(range(size)), k):
            # blockwise value for this binning
            per_bin = np.stack([states[list(b)].mean(axis=0) for b in blocks])
            blockwise = float(np.mean([0.5 * trace_norm(p - marginal) for p in per_bin]))
            # full composite: sum_z |z><z| x (1/|T|) sum_bin rho  vs  uniform x marginal
            lhs = block_diag(*[states[list(b)].sum(axis=0) / size for b in blocks])
            rhs = block_diag(*[marginal / num_bins for _ in blocks])
            composite = 0.5 * trace_norm(lhs - rhs)
            assert blockwise == pytest.approx(composite, abs=1e-12)
            total += blockwise
            count += 1
        assert d_pa_exact(src, num_bins) == pytest.approx(total / count, abs=1e-13)

    def test_partition_cap(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        bins = next(b for b in (2, 3, 5) if size % b == 0)
        with pytest.raises(CapacityError):
            d_pa_exact(src, bins, cap=0)

    def test_streams_in_bounded_memory(self, rng):
        # (4,2) at d_B = 2: 126,126 binnings, 3,003 five-subsets of 64x64
        # states; stacking every subset at once peaked near 400 MB
        states = tuple(random_density(rng, 2) for _ in range(2))
        src = ConstantTypeSource.from_states(states, TypeDistribution(n=6, counts=(4, 2)))
        tracemalloc.start()
        try:
            value = d_pa_exact(src, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= value <= 1.0
        assert peak < 100e6

    def test_plain_stream_in_bounded_memory(self, rng):
        # every one of the 3,003 five-subsets of (4,2) at d_B = 2 through the
        # streaming kernel: 197 MB of 64x64 differences, held one batch at a time
        states = tuple(random_density(rng, 2) for _ in range(2))
        src = ConstantTypeSource.from_states(states, TypeDistribution(n=6, counts=(4, 2)))
        _, stack, marginal = simulate._prepare(src, cap=100)
        tracemalloc.start()
        try:
            count = sum(
                len(d)
                for d in simulate._subset_distances(stack, marginal, combinations(range(15), 5))
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 3003
        assert peak < 100e6

    def test_byte_ceiling_refuses_before_allocating(self, rng):
        # (3,3) at d_B = 2 with 2 bins: within the binning cap (92,378), but
        # its 184,756 ten-subsets of 64x64 states would stream 12.1 GB
        states = tuple(random_density(rng, 2) for _ in range(2))
        src = ConstantTypeSource.from_states(states, TypeDistribution(n=6, counts=(3, 3)))
        assert simulate._partition_count(20, 2) <= simulate.EXACT_ENUMERATION_CAP
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                d_pa_exact(src, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_refuses_exactly_over_the_binning_cap(self, rng):
        # the gate counts binnings, not the up to num_bins times more subsets
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        bins = next(b for b in (2, 3, 5) if size % b == 0)
        count = simulate._partition_count(size, bins)
        assert math.comb(size, size // bins) > count
        assert d_pa_exact(src, bins, cap=count) == d_sc_exact(src, size // bins)
        with pytest.raises(CapacityError):
            d_pa_exact(src, bins, cap=count - 1)


def burnside_orbit_count(counts, k):
    """k-subsets of the type class up to position permutations, by Burnside.

    A permutation of positions fixes a k-subset iff the subset is a union of
    its cycles on the type class; average those counts over S_n.
    """
    n = sum(counts)
    seqs = sorted(set(permutations([x for x, c in enumerate(counts) for _ in range(c)])))
    index = {s: i for i, s in enumerate(seqs)}
    fixed_total = 0
    for g in permutations(range(n)):
        image = [index[tuple(s[g[i]] for i in range(n))] for s in seqs]
        seen, poly = set(), [1] + [0] * k
        for start in range(len(seqs)):
            if start in seen:
                continue
            length, j = 0, start
            while j not in seen:
                seen.add(j)
                j, length = image[j], length + 1
            poly = [poly[i] + (poly[i - length] if i >= length else 0) for i in range(k + 1)]
        fixed_total += poly[k]
    assert fixed_total % math.factorial(n) == 0
    return fixed_total // math.factorial(n)


class TestOrbits:
    @pytest.mark.parametrize(
        "counts, k, orbits",
        [((3, 3), 2, 3), ((3, 3), 5, 43), ((4, 2), 5, 15), ((2, 1, 1), 6, 48), ((5, 1), 1, 1)],
    )
    def test_orbit_count_matches_burnside(self, counts, k, orbits):
        t = TypeDistribution(n=sum(counts), counts=counts)
        reps, sizes = simulate._subset_orbits(enumerate_type_class(t), k)
        assert burnside_orbit_count(counts, k) == orbits
        assert len(reps) == len(sizes) == orbits
        assert sizes.sum() == math.comb(t.class_size(), k)

    def test_representatives_and_sizes_match_brute_force_orbits(self):
        # every image of each representative under all of S_4
        t = TypeDistribution(n=4, counts=(2, 1, 1))
        domain = enumerate_type_class(t)
        index = {s: i for i, s in enumerate(domain)}
        reps, sizes = simulate._subset_orbits(domain, 3)
        covered = set()
        for row, size in zip(reps, sizes):
            assert list(row) == sorted(set(row))
            orbit = {
                tuple(sorted(index[tuple(domain[i][g[p]] for p in range(4))] for i in row))
                for g in permutations(range(4))
            }
            assert len(orbit) == size and not orbit & covered
            covered |= orbit
        assert len(covered) == math.comb(len(domain), 3)

    def test_d_sc_exact_diagonalises_one_matrix_per_orbit(self, rng, monkeypatch):
        # (3,3) at d_B = 2, M = 5: 15,504 codebooks in 43 orbits
        diagonalised = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            diagonalised.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a, *args, **kwargs)

        states = tuple(random_density(rng, 2) for _ in range(2))
        src = ConstantTypeSource.from_states(states, TypeDistribution(n=6, counts=(3, 3)))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        value = d_sc_exact(src, 5)
        assert sum(diagonalised) == 43
        assert 0.0 <= value <= 1.0

    def test_orbit_sum_matches_plain_stream(self, rng):
        for _ in range(6):
            src = rand_instance(rng)
            size = src.type.class_size()
            _, states, marginal = simulate._prepare(src, cap=100)
            for m in range(1, size + 1):
                stream = simulate._subset_distances(states, marginal, combinations(range(size), m))
                plain = np.concatenate(list(stream))
                assert d_sc_exact(src, m) == pytest.approx(plain.mean(), abs=1e-12)


class TestEquivalence:
    def test_orthogonal_example(self):
        rep = verify_equivalence(orthogonal_source(), 2)
        assert rep.d_pa == pytest.approx(0.5, abs=1e-12)
        assert rep.d_sc == pytest.approx(0.5, abs=1e-12)
        assert rep.gap <= 1e-12

    def test_trivial_single_bin(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        rep = verify_equivalence(src, 1)
        assert rep.d_pa == pytest.approx(0.0, abs=1e-14)
        assert rep.gap <= 1e-14

    def test_d_sc_is_d_sc_exact(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        # plain stream versus one representative per orbit: equal up to rounding
        for bins in (b for b in range(1, size + 1) if size % b == 0):
            assert verify_equivalence(src, bins).d_sc == pytest.approx(
                d_sc_exact(src, size // bins), abs=1e-12
            )

    def test_random_qubits_all_divisors(self, rng):
        # |T| = 6 instance, bins in {2, 3}
        t = TypeDistribution(n=4, counts=(2, 2))
        states = tuple(random_density(rng, 2) for _ in range(2))
        src = ConstantTypeSource.from_states(states, t)
        for bins in (2, 3):
            assert verify_equivalence(src, bins).gap <= 1e-10


class TestWithoutReplacementCovariance:
    def test_constant_vector(self):
        assert without_replacement_covariance([3.0] * 5, 3) == pytest.approx(0.0, abs=1e-15)

    def test_zero_one_two(self):
        assert without_replacement_covariance([0, 1, 2], 2) == pytest.approx(-1 / 3)

    def test_never_positive_and_closed_form(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 11))
            v = rng.normal(size=n) * rng.uniform(0.1, 10)
            m = int(rng.integers(2, n + 1))
            val = without_replacement_covariance(v, m)
            assert val <= 1e-14
            var = float(((v - v.mean()) ** 2).mean())
            assert val == pytest.approx(-var / (n - 1), abs=1e-12)

    def test_m_validation(self):
        with pytest.raises(InvalidParameterError):
            without_replacement_covariance([1.0, 2.0], 1)
        with pytest.raises(InvalidParameterError):
            without_replacement_covariance([1.0, 2.0], 3)


class TestPooledUnbiasedness:
    def test_pooled_monte_carlo_mean(self, rng):
        # pooled MC deviation within 4 pooled standard errors over a 100-instance sweep
        num = 0.0
        den = 0.0
        for i in range(100):
            src = rand_instance(rng, dim=2)
            size = src.type.class_size()
            bins = next(b for b in range(2, size + 1) if size % b == 0)
            exact = d_pa_exact(src, bins)
            est = d_pa_monte_carlo(src, bins, trials=60, rng_seed=1000 + i)
            num += est.mean - exact
            den += est.std_error**2
        assert abs(num) <= 4.0 * math.sqrt(den)


class TestThreads:
    def test_threaded_matches_serial(self, rng):
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        bins = next(b for b in (2, 3, 5) if size % b == 0)
        serial = d_pa_monte_carlo(src, bins, trials=64, rng_seed=12, threads=1)
        threaded = d_pa_monte_carlo(src, bins, trials=64, rng_seed=12, threads=4)
        assert serial == threaded

    def test_pool_size_capped_by_trials_and_cpus(self, rng, monkeypatch):
        # a stand-in executor records the pool size and maps serially, so no
        # thread is started however large the request
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        src = rand_instance(rng, alphabet_size=2, dim=2)
        size = src.type.class_size()
        bins = next(b for b in (2, 3, 5) if size % b == 0)
        for trials in (5, 2):
            serial = d_pa_monte_carlo(src, bins, trials=trials, rng_seed=4, threads=1)
            pooled = d_pa_monte_carlo(src, bins, trials=trials, rng_seed=4, threads=64)
            assert pooled == serial
        assert sizes == [3, 2]
