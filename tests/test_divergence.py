import math

import numpy as np
import pytest
from scipy.special import logsumexp

import oracles
from conftest import diag_source, petz_up_by_symbol, rand_source
from qpamp.errors import ConvergenceError, InvalidParameterError
from qpamp import divergence as dv
from qpamp.model import CQSource
from qpamp.qmat import DensityOperator, HermitianOperator, random_density, random_pure


def dens(diag) -> DensityOperator:
    return DensityOperator(HermitianOperator(np.diag(np.asarray(diag, dtype=complex))))


class TestScalars:
    def test_entropy_examples(self):
        assert dv.shannon_entropy([1.0, 0.0]) == 0.0
        assert dv.shannon_entropy(np.ones(5) / 5) == pytest.approx(math.log(5))
        expected = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
        assert dv.shannon_entropy([0.75, 0.25]) == pytest.approx(expected)

    def test_kl_examples(self):
        assert dv.kl_divergence([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0)
        assert dv.kl_divergence([1, 0, 0], np.ones(3) / 3) == pytest.approx(math.log(3))
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert dv.kl_divergence([0.5, 0.5], [0.75, 0.25]) == pytest.approx(expected)
        assert dv.kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def _logsumexp_inputs(rng):
    """Seeded real arrays with ties, -inf entries and rows, inf and nan."""
    for _ in range(4000):
        rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
        a = rng.normal(scale=float(rng.choice([1.0, 30.0, 700.0])), size=(rows, cols))
        if rng.random() < 0.3:
            a[rng.random(a.shape) < 0.3] = -np.inf
        if rng.random() < 0.3:
            a[rng.random(a.shape) < 0.4] = a.flat[0]
        if rng.random() < 0.1:
            a[int(rng.integers(rows))] = -np.inf
        if rng.random() < 0.05:
            a[rng.random(a.shape) < 0.2] = rng.choice([np.inf, np.nan])
        yield a


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(11)
        for a in _logsumexp_inputs(rng):
            for got, expected in (
                (dv._logsumexp(a, axis=1), logsumexp(a, axis=1)),
                (dv._logsumexp(a), logsumexp(a)),
                (dv._logsumexp(a[0]), logsumexp(a[0])),
                (dv._logsumexp(list(a[-1])), logsumexp(list(a[-1]))),
            ):
                got, expected = np.asarray(got), np.asarray(expected)
                assert got.shape == expected.shape
                nan = np.isnan(expected)
                assert np.array_equal(np.isnan(got), nan), a
                assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64)), a

    def test_edge_cases(self):
        assert dv._logsumexp([-np.inf, -np.inf]) == -np.inf
        assert dv._logsumexp([0.0, np.inf]) == np.inf
        assert np.isnan(dv._logsumexp([0.0, np.nan]))
        assert dv._logsumexp([1000.0, 1000.0]) == 1000.0 + math.log(2)
        np.testing.assert_array_equal(
            dv._logsumexp(np.array([[0.0, -np.inf], [-np.inf, -np.inf]]), axis=1), [0.0, -np.inf]
        )


class TestRenyiDivergences:
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.3, 1.8])
    def test_zero_on_equal(self, rng, alpha):
        rho = random_density(rng, 3)
        assert dv.petz_renyi(rho, rho, alpha) == pytest.approx(0.0, abs=1e-12)
        assert dv.sandwiched_renyi(rho, rho, alpha) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.2, 1.5, 1.95])
    def test_commuting_equals_classical(self, rng, alpha):
        for _ in range(5):
            q = rng.dirichlet(np.ones(3))
            p = rng.dirichlet(np.ones(3))
            rho, sig = dens(q), dens(p)
            ref = oracles.renyi_div(q, p, alpha)
            assert dv.petz_renyi(rho, sig, alpha) == pytest.approx(ref, abs=1e-10)
            assert dv.sandwiched_renyi(rho, sig, alpha) == pytest.approx(ref, abs=1e-10)

    def test_alpha_to_one_approaches_umegaki(self, rng):
        rho, sig = random_density(rng, 2, mix=0.5), random_density(rng, 2, mix=0.5)
        u = dv.umegaki(rho, sig)
        for a in (1 - 1e-3, 1 + 1e-3):
            assert dv.petz_renyi(rho, sig, a) == pytest.approx(u, abs=1e-4)
            assert dv.sandwiched_renyi(rho, sig, a) == pytest.approx(u, abs=1e-4)

    def test_sandwiched_below_petz(self, rng):
        # Araki-Lieb-Thirring ordering for alpha > 1
        for _ in range(20):
            rho, sig = random_density(rng, 3), random_density(rng, 3)
            for a in (1.2, 1.5, 1.9):
                assert dv.sandwiched_renyi(rho, sig, a) <= dv.petz_renyi(rho, sig, a) + 1e-10

    def test_support_violation_sentinel(self):
        rho = dens([1.0, 0.0])
        sig = dens([0.0, 1.0])
        assert dv.petz_renyi(rho, sig, 1.5) == math.inf
        assert dv.sandwiched_renyi(rho, sig, 1.5) == math.inf
        assert dv.petz_renyi(rho, sig, 0.5) == math.inf
        assert dv.umegaki(rho, sig) == math.inf

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(20):
            rho, sig = random_density(rng, 2), random_density(rng, 2)
            for fn in (dv.petz_renyi, dv.sandwiched_renyi):
                for a in (0.6, 1.4):
                    v = fn(rho, sig, a)
                    assert v >= -1e-9
            assert dv.umegaki(rho, sig) >= -1e-9

    def test_monotone_in_alpha(self, rng):
        rho, sig = random_density(rng, 3), random_density(rng, 3)
        grid = np.linspace(0.3, 1.9, 15)
        grid = grid[np.abs(grid - 1.0) > 1e-9]
        petz = [dv.petz_renyi(rho, sig, a) for a in grid]
        sand = [dv.sandwiched_renyi(rho, sig, a) for a in grid]
        assert np.all(np.diff(petz) >= -1e-10)
        assert np.all(np.diff(sand) >= -1e-10)

    def test_alpha_validation(self, rng):
        rho = random_density(rng, 2)
        for bad in (0.0, -0.5, 1.0):
            with pytest.raises(InvalidParameterError):
                dv.petz_renyi(rho, rho, bad)
            with pytest.raises(InvalidParameterError):
                dv.sandwiched_renyi(rho, rho, bad)


class TestUmegaki:
    def test_commuting_is_kl(self, rng):
        q, p = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        assert dv.umegaki(dens(q), dens(p)) == pytest.approx(oracles.kl(q, p), abs=1e-10)

    def test_pure_in_maximally_mixed(self, rng):
        psi = random_pure(rng, 2)
        mixed = dens([0.5, 0.5])
        assert dv.umegaki(psi, mixed) == pytest.approx(math.log(2), abs=1e-10)


class TestHolevo:
    def test_equal_states(self, rng):
        rho = random_density(rng, 2)
        src = CQSource(prior=np.array([0.4, 0.6]), states=(rho, rho))
        assert dv.holevo_mutual_info(src) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        src = diag_source([0.3, 0.7], [[1, 0], [0, 1]])
        assert dv.holevo_mutual_info(src) == pytest.approx(dv.shannon_entropy([0.3, 0.7]))

    def test_bb84_pair(self):
        # |0> and |+>: marginal eigenvalues (1 +- 1/sqrt 2)/2
        plus = np.full((2, 2), 0.5, dtype=complex)
        src = CQSource(
            prior=np.array([0.5, 0.5]),
            states=(dens([1.0, 0.0]), DensityOperator(HermitianOperator(plus))),
        )
        lam = (1 + 1 / math.sqrt(2)) / 2
        expected = -(lam * math.log(lam) + (1 - lam) * math.log(1 - lam))
        assert dv.holevo_mutual_info(src) == pytest.approx(expected, abs=1e-12)

    def test_classical_matches_oracle(self, rng):
        p = rng.dirichlet(np.ones(3))
        W = rng.dirichlet(np.ones(3), size=3)
        src = diag_source(p, W)
        assert dv.holevo_mutual_info(src) == pytest.approx(oracles.mutual_info(p, W), abs=1e-10)


class TestAugustinSandwiched:
    def test_equal_states(self, rng):
        rho = random_density(rng, 3)
        src = CQSource(prior=np.array([0.2, 0.8]), states=(rho, rho))
        res = dv.augustin_sandwiched(src, 1.5)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.optimizer.entries, rho.entries, atol=1e-9)

    def test_orthogonal_pure(self):
        src = diag_source([0.3, 0.7], [[1, 0], [0, 1]])
        res = dv.augustin_sandwiched(src, 1.5)
        assert res.value == pytest.approx(dv.shannon_entropy([0.3, 0.7]), abs=1e-6)
        np.testing.assert_allclose(np.diag(res.optimizer.entries).real, [0.3, 0.7], atol=1e-7)

    @pytest.mark.parametrize("alpha", [0.6, 1.3, 1.9])
    def test_commuting_matches_grid_oracle(self, rng, alpha):
        p = rng.dirichlet(np.ones(2))
        W = rng.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        ours = dv.augustin_sandwiched(src, alpha).value
        assert ours == pytest.approx(oracles.augustin_grid(p, W, alpha, step=1e-3), abs=1e-3)
        assert ours == pytest.approx(oracles.augustin(p, W, alpha), abs=1e-8)

    @pytest.mark.parametrize("alpha", [1.3, 1.8])
    def test_qubit_bloch_grid_oracle(self, rng, alpha):
        # coarse exhaustive search over the Bloch ball never beats the optimizer
        src = rand_source(rng, 2, 2, mix=0.05)
        ours = dv.augustin_sandwiched(src, alpha).value
        best = math.inf
        eye = np.eye(2, dtype=complex)
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for r in np.linspace(0.0, 0.99, 12):
            for theta in np.linspace(0.0, math.pi, 10):
                for phi in np.linspace(0.0, 2 * math.pi, 19):
                    vec = [
                        math.sin(theta) * math.cos(phi),
                        math.sin(theta) * math.sin(phi),
                        math.cos(theta),
                    ]
                    sig = (eye + r * sum(v * s for v, s in zip(vec, paulis))) / 2
                    val = sum(
                        float(px) * dv.sandwiched_renyi(sx, HermitianOperator(sig), alpha)
                        for px, sx in zip(src.prior, src.states)
                    )
                    best = min(best, val)
        assert ours <= best + 1e-6
        assert abs(ours - best) <= 0.01  # grid is coarse but should land nearby

    def test_non_finite_step_is_not_converged(self):
        # at alpha = 1e-4, sigma^c with c ~ 5000 underflows to 0 and the step is nan
        src = diag_source([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ConvergenceError, match="alpha 0.0001"):
            dv.augustin_sandwiched_curve(src, [1e-4])
        with pytest.raises(ConvergenceError, match="alpha 0.0001") as err:
            dv.augustin_sandwiched(src, 1e-4)
        assert err.value.best is None  # no state to report

    def test_convergence_error_carries_best(self, rng, monkeypatch):
        src = rand_source(rng, 2, 2)
        monkeypatch.setattr(dv, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            dv.augustin_sandwiched(src, 1.5)
        best = err.value.best
        assert best.iterations == 2
        assert math.isfinite(best.value)

    def test_curve_matches_single_calls(self, rng):
        src = rand_source(rng, 3, 2, mix=0.1)
        alphas = np.array([1.05, 1.4, 1.95])
        curve = dv.augustin_sandwiched_curve(src, alphas)
        for a, v in zip(alphas, curve.values):
            assert dv.augustin_sandwiched(src, a).value == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("conditional", [False, True])
    def test_objective_at_the_optimizers_is_the_curve(self, rng, conditional):
        src = rand_source(rng, 3, 2, mix=0.1)
        alphas = np.array([1.05, 1.4, 1.95])
        fn = dv.conditional_renyi_sandwiched_curve if conditional else dv.augustin_sandwiched_curve
        curve = fn(src, alphas)
        at = dv.objective_at(src, alphas, curve.optimizers, conditional=conditional)
        assert at.tobytes() == curve.values.tobytes()
        one = dv.objective_at(src, alphas[1:2], curve.optimizers[1], conditional=conditional)
        assert one.tobytes() == curve.values[1:2].tobytes()

    @pytest.mark.parametrize(
        "alphas, state",
        [([1.0], np.eye(2) / 2), ([2.5], np.eye(2) / 2), ([1.5], np.eye(3) / 3),
         ([1.3, 1.5], np.stack([np.eye(2) / 2] * 3))],
        ids=["alpha-one", "alpha-above-two", "wrong-dimension", "wrong-stack"],
    )
    def test_objective_at_refuses_bad_input(self, rng, alphas, state):
        src = rand_source(rng, 2, 2)
        for conditional in (False, True):
            with pytest.raises(InvalidParameterError):
                dv.objective_at(src, alphas, state, conditional=conditional)

    def test_alpha_range(self, rng):
        src = rand_source(rng, 2, 2)
        with pytest.raises(InvalidParameterError):
            dv.augustin_sandwiched(src, 2.5)


class TestAugustinPetzUp:
    def test_equal_states(self, rng):
        rho = random_density(rng, 2)
        src = CQSource(prior=np.array([0.5, 0.5]), states=(rho, rho))
        assert float(dv.augustin_petz_up_curve(src, 1.5)) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_to_one_gives_holevo(self, rng):
        src = rand_source(rng, 2, 2, mix=0.3)
        mutual = dv.holevo_mutual_info(src)
        for a in (1 - 1e-3, 1 + 1e-3):
            assert float(dv.augustin_petz_up_curve(src, a)) == pytest.approx(mutual, abs=1e-4)

    def test_commuting_matches_scalar(self, rng):
        p = rng.dirichlet(np.ones(3))
        W = rng.dirichlet(np.ones(2), size=3)
        src = diag_source(p, W)
        m = p @ W
        for a in (0.7, 1.6):
            expected = sum(
                px * oracles.renyi_div(wx, m, a) for px, wx in zip(p, W)
            )
            assert float(dv.augustin_petz_up_curve(src, a)) == pytest.approx(expected, abs=1e-10)

    def test_curve_matches_single(self, rng):
        # mixed, rank-deficient and pure states; in the last source the second
        # state sticks out of the marginal's support, so orders above 1 are +inf.
        # Orders 0.5 and 2 take numpy's exact sqrt / square / reciprocal paths,
        # which a broadcast power misses on some of the mixed sources.
        sources = [rand_source(rng, 3, 3) for _ in range(12)]
        v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        rank_two = DensityOperator(HermitianOperator(v @ v.conj().T / np.trace(v @ v.conj().T)))
        sources += [
            CQSource(prior=np.array([0.4, 0.6]), states=(rank_two, random_density(rng, 3))),
            rand_source(rng, 2, 3, pure=True),
            CQSource(prior=np.array([1.0 - 1e-13, 1e-13]), states=(dens([1, 0]), dens([0.5, 0.5]))),
        ]
        alphas = np.array([0.3, 0.5, 0.8, 1.2, 1.9, 2.0])
        for src in sources:
            curve = dv.augustin_petz_up_curve(src, alphas)
            for a, value in zip(alphas, curve):
                assert float(dv.augustin_petz_up_curve(src, a)) == value
                assert petz_up_by_symbol(src, a) == value
        assert np.all(np.isfinite(curve[alphas < 1.0]))
        assert np.all(curve[alphas > 1.0] == math.inf)


class TestConditionalRenyi:
    def test_equal_states_is_renyi_entropy(self, rng):
        # product state: conditioning is vacuous, H*_a(X|B) = H_a(p)
        rho = random_density(rng, 2)
        p = np.array([0.3, 0.7])
        src = CQSource(prior=p, states=(rho, rho))
        for a in (1.3, 1.9):
            assert dv.conditional_renyi_sandwiched(src, a) == pytest.approx(
                oracles.renyi_entropy(p, a), abs=1e-9
            )
            assert dv.conditional_renyi_petz_down(src, a) == pytest.approx(
                oracles.renyi_entropy(p, a), abs=1e-10
            )

    def test_equal_states_uniform_prior_gives_h(self, rng):
        rho = random_density(rng, 3)
        src = CQSource(prior=np.array([0.5, 0.5]), states=(rho, rho))
        assert dv.conditional_renyi_sandwiched(src, 1.5) == pytest.approx(
            math.log(2), abs=1e-9
        )

    def test_bounded_by_shannon_entropy(self, rng):
        for _ in range(10):
            src = rand_source(rng, 3, 2)
            for a in (1.2, 1.8):
                assert dv.conditional_renyi_sandwiched(src, a) <= dv.shannon_entropy(src.prior) + 1e-9

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_commuting_matches_arimoto(self, rng, alpha):
        p = rng.dirichlet(np.ones(3))
        W = rng.dirichlet(np.ones(3), size=3)
        src = diag_source(p, W)
        assert dv.conditional_renyi_sandwiched(src, alpha) == pytest.approx(
            oracles.arimoto_conditional(p, W, alpha), abs=1e-8
        )

    def test_orthogonal_pure_diagonal_reduction(self):
        # D*(|x><x| || sigma) depends only on sigma's diagonal entries, so the
        # quantum value must match the classical identity-channel reduction
        p = np.array([0.25, 0.75])
        src = diag_source(p, [[1, 0], [0, 1]])
        for a in (1.4, 1.9):
            assert dv.conditional_renyi_sandwiched(src, a) == pytest.approx(
                oracles.arimoto_conditional(p, np.eye(2), a), abs=1e-9
            )

    def test_point_mass_prior_petz_down(self, rng):
        src = CQSource(prior=np.array([1.0, 0.0]), states=(random_density(rng, 2),) * 2)
        assert dv.conditional_renyi_petz_down(src, 1.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.6, 1.4])
    def test_petz_down_commuting(self, rng, alpha):
        p = rng.dirichlet(np.ones(2))
        W = rng.dirichlet(np.ones(3), size=2)
        src = diag_source(p, W)
        assert dv.conditional_renyi_petz_down(src, alpha) == pytest.approx(
            oracles.conditional_petz_down(p, W, alpha), abs=1e-10
        )

    def test_alpha_range_enforced(self, rng):
        src = rand_source(rng, 2, 2)
        with pytest.raises(InvalidParameterError):
            dv.conditional_renyi_sandwiched(src, 0.9)


class TestAugustinConditionalInequality:
    @pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.9])
    def test_random_sources(self, rng, alpha):
        # H(p) - I_aug*(alpha) >= H*_alpha(X|B)
        for _ in range(5):
            src = rand_source(rng, 2, 2, mix=0.05)
            lhs = dv.shannon_entropy(src.prior) - dv.augustin_sandwiched(src, alpha).value
            rhs = dv.conditional_renyi_sandwiched(src, alpha)
            assert lhs >= rhs - 1e-6


class TestAlphaOneContinuity:
    def test_both_variants_near_one(self, rng):
        for _ in range(5):
            src = rand_source(rng, 2, 2, mix=0.2)
            mutual = dv.holevo_mutual_info(src)
            for a in (1 - 1e-3, 1 + 1e-3):
                assert dv.augustin_sandwiched(src, a).value == pytest.approx(mutual, abs=1e-3)
                assert float(dv.augustin_petz_up_curve(src, a)) == pytest.approx(mutual, abs=1e-3)
