import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from qpamp.errors import CapacityError, InvalidInputError, InvalidParameterError
from qpamp import divergence as dv
from qpamp import exponent, simulate, wiretap
from qpamp.model import ConstantTypeSource, TypeDistribution
from qpamp.qmat import (
    DensityOperator,
    HermitianOperator,
    random_density,
    random_pure,
    tensor,
    trace_norm,
)
from qpamp.wiretap import (
    RateAllocation,
    WiretapChannel,
    allocate_rates,
    bob_source,
    channel_from_json,
    channel_to_json,
    eve_source,
    partial_trace,
    positivity_threshold,
    secrecy_exponent,
    simulate_leakage,
)


CHANNEL = Path(__file__).parent.parent / "data" / "wiretap_product.json"


def product_channel(bob_states, eve_states, prior) -> WiretapChannel:
    joint = tuple(
        DensityOperator(tensor([b, e])) for b, e in zip(bob_states, eve_states)
    )
    d_b = bob_states[0].dim
    d_e = eve_states[0].dim
    return WiretapChannel(prior=np.asarray(prior, dtype=float), joint_states=joint, dims=(d_b, d_e))


def diag_dens(row) -> DensityOperator:
    return DensityOperator(HermitianOperator(np.diag(np.asarray(row, dtype=complex))))


def useless_eve_channel(rng, prior=(0.5, 0.5)) -> WiretapChannel:
    bob = [diag_dens([1, 0]), diag_dens([0, 1])]
    tau = random_density(rng, 2)
    return product_channel(bob, [tau, tau], prior)


class TestChannelValidation:
    @pytest.mark.parametrize(
        "prior, dims, dim_last",
        [
            ((math.nan, 0.5), (2, 2), 4),
            ((1.5, -0.5), (2, 2), 4),
            ((0.5, 0.6), (2, 2), 4),
            ((0.5, 0.25, 0.25), (2, 2), 4),
            ((0.5, 0.5), (0, 4), 4),
            ((0.5, 0.5), (2, 3), 4),
            ((0.5, 0.5), (2, 2), 2),
        ],
        ids=["nan-prior", "negative-prior", "unnormalized-prior", "prior-length",
             "zero-dim", "joint-dim", "mixed-dims"],
    )
    def test_rejected(self, prior, dims, dim_last):
        joint = (diag_dens([1, 0, 0, 0]), diag_dens(np.eye(dim_last)[0]))
        with pytest.raises(InvalidInputError):
            WiretapChannel(prior=np.array(prior), joint_states=joint, dims=dims)

    def test_source_checks_name_the_channel(self):
        joint = (diag_dens([1, 0, 0, 0]),)
        with pytest.raises(InvalidInputError, match=r"^channel \(states = joint_states\): prior"):
            WiretapChannel(prior=np.array([0.5, 0.5]), joint_states=joint, dims=(2, 2))


class TestPartialTrace:
    def test_product_keep_b(self, rng):
        rho, tau = random_density(rng, 2), random_density(rng, 3)
        joint = tensor([rho, tau])
        out = partial_trace(joint, "B", (2, 3))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)

    def test_product_keep_e(self, rng):
        rho, tau = random_density(rng, 2), random_density(rng, 3)
        out = partial_trace(tensor([rho, tau]), "E", (2, 3))
        np.testing.assert_allclose(out.entries, tau.entries, atol=1e-14)

    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        joint = HermitianOperator(np.outer(psi, psi.conj()))
        out = partial_trace(joint, "B", (2, 2))
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self, rng):
        arr = random_density(rng, 6)
        for keep in ("B", "E"):
            out = partial_trace(arr, keep, (2, 3))
            assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            partial_trace(random_density(rng, 6), "B", (2, 2))


class TestSecrecyExponent:
    def test_useless_eve_closed_form(self, rng):
        ch = useless_eve_channel(rng)
        mutual_b = dv.holevo_mutual_info(bob_source(ch))
        rate = 0.2
        rep = secrecy_exponent(ch, rate)
        edge = 2.0 - exponent.ALPHA_MARGIN
        assert rep.exponent == pytest.approx(
            (mutual_b - rate) * (edge - 1) / edge, rel=1e-6
        )

    def test_degraded_eve_nonpositive(self, rng):
        # Eve sees exactly what Bob sees: no positive rate is secret
        rho0, rho1 = random_density(rng, 2), random_density(rng, 2)
        ch = product_channel([rho0, rho1], [rho0, rho1], [0.5, 0.5])
        assert positivity_threshold(ch) == pytest.approx(0.0, abs=1e-10)
        for rate in (0.0, 0.1):
            assert secrecy_exponent(ch, rate, points=100).exponent <= 1e-9

    def test_classical_matches_scalar_oracle(self, rng):
        p = rng.dirichlet(np.ones(2))
        Wb = rng.dirichlet(np.ones(2), size=2)
        We = rng.dirichlet(np.ones(2), size=2)
        bob = [diag_dens(w) for w in Wb]
        eve = [diag_dens(w) for w in We]
        ch = product_channel(bob, eve, p)
        rate = max(0.0, positivity_threshold(ch) / 2)
        mutual_b = oracles.mutual_info(p, Wb)
        _, expected = oracles.sup_alpha(
            lambda a: (a - 1) / a * (mutual_b - oracles.augustin(p, We, a) - rate),
            1.0,
            2.0,
            grid_points=200,
        )
        assert secrecy_exponent(ch, rate).exponent == pytest.approx(expected, abs=1e-6)

    def test_nonincreasing_in_rate(self, rng):
        ch = useless_eve_channel(rng)
        rates = np.linspace(0.0, 0.6, 7)
        vals = [secrecy_exponent(ch, r, points=100).exponent for r in rates]
        assert np.all(np.diff(vals) <= 1e-10)

    def test_positive_iff_below_threshold(self, rng):
        bob = [diag_dens([1, 0]), diag_dens([0, 1])]
        eve = [
            DensityOperator(HermitianOperator(np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex))),
            DensityOperator(HermitianOperator(np.array([[0.55, -0.05], [-0.05, 0.45]], dtype=complex))),
        ]
        ch = product_channel(bob, eve, [0.5, 0.5])
        thr = positivity_threshold(ch)
        assert secrecy_exponent(ch, thr - 0.01, points=100).exponent > 0.0
        assert secrecy_exponent(ch, thr + 0.01, points=100).exponent <= 1e-9


class TestThreshold:
    def test_useless_eve(self, rng):
        ch = useless_eve_channel(rng)
        assert positivity_threshold(ch) == pytest.approx(
            dv.holevo_mutual_info(bob_source(ch)), abs=1e-12
        )

    def test_classical_oracle(self, rng):
        p = rng.dirichlet(np.ones(3))
        Wb = rng.dirichlet(np.ones(2), size=3)
        We = rng.dirichlet(np.ones(2), size=3)
        ch = product_channel([diag_dens(w) for w in Wb], [diag_dens(w) for w in We], p)
        assert positivity_threshold(ch) == pytest.approx(
            oracles.mutual_info(p, Wb) - oracles.mutual_info(p, We), abs=1e-10
        )

    def test_matches_joint_state_route(self, rng):
        # independent route: I(X:B) as Umegaki divergence of the full c-q state
        ch = useless_eve_channel(rng, prior=(0.4, 0.6))
        bob = bob_source(ch)
        joint = np.zeros((4, 4), dtype=complex)
        for i, (px, sx) in enumerate(zip(bob.prior, bob.states)):
            joint[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = px * sx.entries
        marg = sum(px * sx.entries for px, sx in zip(bob.prior, bob.states))
        prod = np.kron(np.diag(bob.prior).astype(complex), marg)
        mutual_direct = dv.umegaki(HermitianOperator(joint), HermitianOperator(prod))
        assert dv.holevo_mutual_info(bob) == pytest.approx(mutual_direct, abs=1e-10)


class TestAllocateRates:
    def test_useless_eve_allocation(self, rng):
        # soft Bob channel so log|T|/n clears I(X:B) - delta at modest n
        bob = [diag_dens([0.9, 0.1]), diag_dens([0.2, 0.8])]
        tau = random_density(rng, 2)
        ch = product_channel(bob, [tau, tau], [0.5, 0.5])
        n, delta = 8, 0.05
        rep = allocate_rates(ch, 0.0, delta, n)
        mutual_b = dv.holevo_mutual_info(bob_source(ch))
        assert rep.rates.R1 == pytest.approx(mutual_b - delta, abs=1e-12)
        t = TypeDistribution(n=n, counts=(4, 4))
        from qpamp.model import type_class_log_size

        assert rep.rates.R2 == pytest.approx(
            type_class_log_size(t) / n - mutual_b + delta, abs=1e-12
        )
        assert rep.bob_decoding_exponent.exponent > 0.0

    def test_infeasible_rate_rejected(self, rng):
        ch = useless_eve_channel(rng)
        mutual_b = dv.holevo_mutual_info(bob_source(ch))
        with pytest.raises(InvalidParameterError):
            allocate_rates(ch, mutual_b, 0.05, 8)

    def test_prior_must_be_n_type(self, rng):
        ch = useless_eve_channel(rng, prior=(0.4, 0.6))
        with pytest.raises(InvalidInputError):
            allocate_rates(ch, 0.0, 0.05, 3)


class TestSimulateLeakage:
    def test_useless_eve_zero(self, rng):
        ch = useless_eve_channel(rng)
        t = TypeDistribution(n=4, counts=(2, 2))
        alloc = RateAllocation(R=math.log(2) / 4, R1=0.0, R2=math.log(3) / 4)
        rep = simulate_leakage(ch, t, alloc, trials=10, rng_seed=0)
        assert rep.bound_sum == pytest.approx(0.0, abs=1e-12)
        assert rep.direct == pytest.approx(0.0, abs=1e-12)

    def test_single_pa_reduction(self, rng):
        # K = L = 1 and M = |T|: the leakage is exactly one PA instance
        bob = [diag_dens([1, 0]), diag_dens([0, 1])]
        eve = [random_pure(rng, 2), random_pure(rng, 2)]
        ch = product_channel(bob, eve, [0.5, 0.5])
        t = TypeDistribution(n=2, counts=(1, 1))  # |T| = 2
        n = t.n
        alloc = RateAllocation(R=math.log(2) / n, R1=0.0, R2=0.0)
        rep = simulate_leakage(ch, t, alloc, trials=10, rng_seed=0)
        assert rep.bins_joint == 2 and rep.bins_key == 1
        eve_src = None
        from qpamp.model import ConstantTypeSource

        eve_src = ConstantTypeSource.from_states(eve_source(ch).states, t)
        expected = simulate.d_pa_exact(eve_src, 2)
        assert rep.pa_joint == pytest.approx(expected, abs=1e-12)
        assert rep.pa_key == pytest.approx(0.0, abs=1e-14)
        assert rep.direct == pytest.approx(expected, abs=1e-12)

    def test_triangle_bound_on_enumerable_instance(self, rng):
        # nontrivial M, L, K: the direct leakage never exceeds the PA sum
        bob = [diag_dens([1, 0]), diag_dens([0, 1])]
        eve = [random_density(rng, 2), random_density(rng, 2)]
        ch = product_channel(bob, eve, [0.5, 0.5])
        t = TypeDistribution(n=4, counts=(2, 2))  # |T| = 6
        n = t.n
        # target M = 3, L = 1, K = 2
        alloc = RateAllocation(R=math.log(3) / n, R1=0.0, R2=math.log(2) / n)
        rep = simulate_leakage(ch, t, alloc, trials=10, rng_seed=0)
        assert rep.exact
        assert rep.bins_joint == 6 and rep.bins_key == 2
        assert rep.direct is not None
        assert rep.direct <= rep.bound_sum + 1e-10

    def test_nearest_divisor_matches_a_full_scan(self):
        for size in (1, 2, 12, 36, 97, 720, 924):
            divisors = [d for d in range(1, size + 1) if size % d == 0]
            for target in (0.5, 1.0, 5.5, 6.0, 30.0, 1e6):
                expected = min(divisors, key=lambda d: (abs(d - target), d))
                assert wiretap._nearest_divisor(size, target) == expected

    def test_class_too_large_to_stack_is_refused_before_the_divisor_search(
        self, rng, monkeypatch
    ):
        ch = useless_eve_channel(rng)
        t = TypeDistribution(n=60, counts=(30, 30))  # |T| ~ 1.18e17
        alloc = RateAllocation(R=0.1, R1=0.0, R2=0.1)
        monkeypatch.setattr(wiretap, "_nearest_divisor", lambda *a: 1 / 0)
        with pytest.raises(CapacityError, match="state-stack ceiling"):
            simulate_leakage(ch, t, alloc, trials=2, rng_seed=0)

    def test_trials_ceiling_spares_the_exact_route(self, rng, monkeypatch):
        # the Monte Carlo ceiling is checked where trials run, so trials an
        # enumerable instance never runs are not refused
        monkeypatch.setattr(simulate, "_MC_VALUES_BYTES_CAP", 8)
        ch = useless_eve_channel(rng)
        t = TypeDistribution(n=4, counts=(2, 2))
        alloc = RateAllocation(R=math.log(3) / 4, R1=0.0, R2=math.log(2) / 4)
        rep = simulate_leakage(ch, t, alloc, trials=10**12, rng_seed=0)
        assert rep.exact and rep.direct is not None

    def test_rate_past_the_float_range_takes_the_whole_class(self):
        # exp(6 * 200) overflows a float; any target past |T| picks |T| bins
        ch = channel_from_json(json.loads(CHANNEL.read_text()))
        t = TypeDistribution(n=6, counts=(3, 3))
        rep = simulate_leakage(ch, t, RateAllocation(R=200.0, R1=0.0, R2=0.0), trials=2,
                               rng_seed=0)
        assert rep.bins_joint == t.class_size() == 20
        assert rep.bins_key == 1

    @pytest.mark.parametrize("m, ell", [(3, 1), (2, 2), (3, 2), (2, 3)])
    def test_direct_leakage_matches_partition_walk(self, rng, m, ell):
        # the criterion-10 triangle instance is (m, ell) = (3, 1); the
        # reference walks every (slice, partition) pair, as the definition reads
        bob = [diag_dens([0.95, 0.05]), diag_dens([0.1, 0.9])]
        eve = [random_density(rng, 2, mix=0.6) for _ in range(2)]
        ch = product_channel(bob, eve, [0.5, 0.5])
        t = TypeDistribution(n=4, counts=(2, 2))
        eve_src = ConstantTypeSource.from_states(eve_source(ch).states, t)
        _, states, _ = simulate._prepare(eve_src)
        size = t.class_size()
        total = 0.0
        count = 0
        for subset in itertools.combinations(range(size), m * ell):
            slice_avg = states[list(subset)].mean(axis=0)
            for blocks in simulate._equal_partitions(subset, ell):
                total += np.mean(
                    [0.5 * trace_norm(states[list(b)].mean(axis=0) - slice_avg) for b in blocks]
                )
                count += 1
        direct = wiretap._direct_leakage_exact(eve_src, m, ell)
        assert direct == pytest.approx(total / count, abs=1e-13)

    def test_equal_bin_counts_run_one_monte_carlo(self, rng, monkeypatch):
        # 5 joint and 5 key bins over (3,3): the exact cap refuses both PA
        # terms, which are the same seeded 5-bin estimate
        bob = [diag_dens([1, 0]), diag_dens([0, 1])]
        eve = [random_density(rng, 2), random_density(rng, 2)]
        ch = product_channel(bob, eve, [0.5, 0.5])
        t = TypeDistribution(n=6, counts=(3, 3))
        calls = []
        d_pa_monte_carlo = simulate.d_pa_monte_carlo

        def counting(*args, **kwargs):
            calls.append(args[1])
            return d_pa_monte_carlo(*args, **kwargs)

        monkeypatch.setattr(simulate, "d_pa_monte_carlo", counting)
        rep = simulate_leakage(ch, t, RateAllocation(0.05, 0.2, 0.24), trials=20, rng_seed=4)
        assert calls == [5]
        assert rep.bins_joint == rep.bins_key == 5 and not rep.exact
        eve_src = ConstantTypeSource.from_states(eve_source(ch).states, t)
        est = d_pa_monte_carlo(eve_src, 5, 20, 4)
        assert rep.pa_joint == rep.pa_key == est
        assert rep.bound_sum == float(est.mean + est.mean)
        assert rep.direct is None

    def test_realized_rates_multiply_out(self, rng):
        ch = useless_eve_channel(rng)
        t = TypeDistribution(n=4, counts=(2, 2))
        alloc = RateAllocation(R=0.3, R1=0.0, R2=0.2)
        rep = simulate_leakage(ch, t, alloc, trials=5, rng_seed=0)
        total = rep.realized.R + rep.realized.R1 + rep.realized.R2
        assert total == pytest.approx(math.log(t.class_size()) / t.n, abs=1e-12)


class TestJson:
    def test_round_trip(self, rng):
        ch = useless_eve_channel(rng)
        back = channel_from_json(channel_to_json(ch))
        np.testing.assert_allclose(back.prior, ch.prior)
        assert back.dims == ch.dims
        for a, b in zip(back.joint_states, ch.joint_states):
            np.testing.assert_allclose(a.entries, b.entries, atol=1e-15)

    def test_missing_dims(self):
        with pytest.raises(InvalidInputError):
            channel_from_json({"prior": [1.0], "joint_states": []})
