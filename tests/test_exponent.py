import math

import numpy as np
import pytest

import oracles
from conftest import diag_source, rand_instance, rand_source
from qpamp.errors import ConvergenceError, InvalidInputError, InvalidParameterError
from qpamp import divergence as dv
from qpamp import exponent, wiretap
from qpamp.model import CQSource
from qpamp.qmat import DensityOperator, HermitianOperator, random_density, random_pure, tensor
from qpamp.wiretap import WiretapChannel, allocate_rates, secrecy_exponent


@pytest.fixture(autouse=True)
def empty_curve_memo():
    """Start and end every test with an empty grid-curve memo.

    Tests here count or patch curve calls; a curve an earlier test cached
    (the seeded ``rng`` fixture repeats sources) would skip those calls.
    """
    exponent._CURVES.clear()
    yield
    exponent._CURVES.clear()


def trivial_source(p=(0.3, 0.7), dim=2, seed=0) -> CQSource:
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    return CQSource(prior=np.asarray(p, dtype=float), states=(rho, rho))


def orthogonal_source(p=(0.3, 0.7)) -> CQSource:
    return diag_source(p, np.eye(len(p)))


class TestScAchievability:
    def test_trivial_states_closed_form(self):
        # I_aug = 0, so sup ((1-a)/a)(-R) = R (a-1)/a peaks at the right edge
        src = trivial_source()
        rate = 0.4
        rep = exponent.sc_achievability_exponent(src, rate)
        edge = 2.0 - exponent.ALPHA_MARGIN
        assert rep.exponent == pytest.approx(rate * (edge - 1) / edge, rel=1e-6)
        assert rep.alpha_star == pytest.approx(edge, abs=1e-3)

    def test_constant_augustin_boundary(self):
        # orthogonal pure states: I_aug = H(p) for every alpha; at R = H(p)
        # the objective vanishes identically
        src = orthogonal_source()
        rate = dv.shannon_entropy(src.prior)
        rep = exponent.sc_achievability_exponent(src, rate)
        assert rep.exponent == pytest.approx(0.0, abs=1e-6)

    def test_classical_matches_scalar_oracle(self, rng):
        p = rng.dirichlet(np.ones(2))
        W = rng.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        rate = oracles.mutual_info(p, W) + 0.25
        ours = exponent.sc_achievability_exponent(src, rate)
        _, expected = oracles.sup_alpha(
            lambda a: (1 - a) / a * (oracles.augustin(p, W, a) - rate), 1.0, 2.0,
            grid_points=200,
        )
        assert ours.exponent == pytest.approx(expected, abs=1e-6)

    def test_curve_shape_and_meta(self):
        src = trivial_source()
        rep = exponent.sc_achievability_exponent(src, 0.2, points=50)
        assert len(rep.curve) == 50
        assert rep.prefactor_log == 0.0
        assert 1.0 < rep.alpha_star < 2.0
        assert rep.meta["kind"] == "sc-direct"

    def test_convergence_failure_propagates(self, rng):
        src = rand_source(rng, 2, 2)
        with pytest.raises(ConvergenceError):
            exponent.sc_achievability_exponent(src, 0.2, points=20, max_iter=1)

    def test_grid_convergence_message_is_bounded(self, rng):
        src = rand_source(rng, 2, 2)
        with pytest.raises(ConvergenceError) as err:
            exponent.sc_achievability_exponent(src, 0.1, max_iter=1)
        msg = str(err.value)
        assert len(msg) < 300
        assert "400 of 400 orders" in msg
        assert "1.0001 to 1.9999" in msg


class TestScConverse:
    def test_trivial_states_boundary_zero(self):
        # I_petz_up = 0: sup ((1-a)/a)(-R) over (1/2,1) tends to 0 at a -> 1
        src = trivial_source()
        rep = exponent.sc_converse_exponent(src, 0.3, n=4)
        assert rep.exponent == pytest.approx(0.0, abs=1e-4)
        assert rep.exponent <= 0.0
        assert rep.alpha_star == pytest.approx(1.0 - exponent.ALPHA_MARGIN, abs=1e-3)

    def test_interval_interior_only(self, rng):
        src = rand_source(rng, 2, 2)
        rep = exponent.sc_converse_exponent(src, 0.1, n=3)
        assert 0.5 < rep.alpha_star < 1.0
        alphas = [a for a, _ in rep.curve]
        assert min(alphas) >= 0.5 + exponent.ALPHA_MARGIN - 1e-12
        assert max(alphas) <= 1.0 - exponent.ALPHA_MARGIN + 1e-12

    def test_classical_oracle(self, rng):
        p = rng.dirichlet(np.ones(2))
        W = rng.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        m = p @ W
        rate = max(0.0, oracles.mutual_info(p, W) - 0.1)

        def fn(a):
            b = 2 - 1 / a
            up = sum(px * oracles.renyi_div(wx, m, b) for px, wx in zip(p, W))
            return (1 - a) / a * (up - rate)

        _, expected = oracles.sup_alpha(fn, 0.5, 1.0)
        ours = exponent.sc_converse_exponent(src, rate, n=5)
        assert ours.exponent == pytest.approx(expected, abs=1e-8)
        assert ours.prefactor_log == pytest.approx(math.log(4) + 2 * math.log(6))


class TestPaAchievability:
    def test_orthogonal_pure_no_extractable_rate(self):
        # I_aug = H(p): the bracket vanishes, exponent -> 0 at the left edge
        src = orthogonal_source()
        rep = exponent.pa_achievability_exponent(src, 0.3)
        assert rep.exponent == pytest.approx(0.0, abs=1e-4)
        assert rep.exponent <= 1e-12

    def test_trivial_states_closed_form(self):
        src = trivial_source()
        hp = dv.shannon_entropy(src.prior)
        rate = 0.1
        rep = exponent.pa_achievability_exponent(src, rate)
        edge = 2.0 - exponent.ALPHA_MARGIN
        assert rep.exponent == pytest.approx((hp - rate) * (edge - 1) / edge, rel=1e-6)

    def test_finite_n_uses_exact_class_size(self):
        src = diag_source([0.5, 0.5], [[1, 0], [0, 1]])
        rep_f = exponent.pa_achievability_exponent(src, 0.1, n=4, finite_n=True)
        rep_a = exponent.pa_achievability_exponent(src, 0.1, n=4)
        # log|T^4_(2,2)|/4 = log(6)/4 < log 2 = H(p)
        assert rep_f.exponent <= rep_a.exponent + 1e-12
        assert rep_f.prefactor_log == 0.0
        assert rep_a.prefactor_log == pytest.approx(math.log(5))

    def test_finite_n_requires_n_type(self):
        src = diag_source([0.4, 0.6], [[1, 0], [0, 1]])
        with pytest.raises(InvalidInputError):
            exponent.pa_achievability_exponent(src, 0.1, n=4, finite_n=True)

    def test_positivity_threshold(self, rng):
        # exponent > 0 iff R < H(p) - inf_alpha I_aug
        src = rand_source(rng, 2, 2, mix=0.2)
        limit = exponent.conditional_entropy_limit(src)
        above = exponent.pa_achievability_exponent(src, limit + 0.02)
        below = exponent.pa_achievability_exponent(src, max(limit - 0.02, 1e-3))
        assert above.exponent <= 1e-9
        assert below.exponent > 0.0

    def test_classical_oracle(self, rng):
        p = rng.dirichlet(np.ones(2))
        W = rng.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        hp = oracles.entropy(p)
        rate = max(0.0, hp - oracles.mutual_info(p, W) - 0.15)
        _, expected = oracles.sup_alpha(
            lambda a: (a - 1) / a * (hp - oracles.augustin(p, W, a) - rate), 1.0, 2.0,
            grid_points=200,
        )
        ours = exponent.pa_achievability_exponent(src, rate)
        assert ours.exponent == pytest.approx(expected, abs=1e-6)


class TestPaStrongConverse:
    def test_zero_at_extraction_limit(self, rng):
        src = rand_source(rng, 2, 2, mix=0.2)
        rate = exponent.conditional_entropy_limit(src)
        rep = exponent.pa_strong_converse_exponent(src, rate, n=4)
        assert rep.exponent == pytest.approx(0.0, abs=1e-3)
        assert rep.exponent <= 1e-12

    def test_trivial_states_above_entropy(self):
        src = trivial_source()
        hp = dv.shannon_entropy(src.prior)
        rate = hp + 0.2
        rep = exponent.pa_strong_converse_exponent(src, rate, n=4)
        # I_petz_up = 0: sup ((1-a)/a)(R - H(p)) peaks at the left edge
        edge = 0.5 + exponent.ALPHA_MARGIN
        assert rep.exponent == pytest.approx((rate - hp) * (1 - edge) / edge, rel=1e-3)

    def test_positivity_flip_at_extraction_limit(self, rng):
        src = rand_source(rng, 2, 2, mix=0.2)
        limit = exponent.conditional_entropy_limit(src)
        below = exponent.pa_strong_converse_exponent(src, max(limit - 0.02, 0.0))
        above = exponent.pa_strong_converse_exponent(src, limit + 0.02)
        assert below.exponent <= 1e-9
        assert above.exponent > 0.0

    def test_classical_oracle(self, rng):
        p = rng.dirichlet(np.ones(2))
        W = rng.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        m = p @ W
        hp = oracles.entropy(p)
        rate = hp - oracles.mutual_info(p, W) + 0.1

        def fn(a):
            b = 2 - 1 / a
            up = sum(px * oracles.renyi_div(wx, m, b) for px, wx in zip(p, W))
            return (1 - a) / a * (up - hp + rate)

        _, expected = oracles.sup_alpha(fn, 0.5, 1.0)
        ours = exponent.pa_strong_converse_exponent(src, rate)
        assert ours.exponent == pytest.approx(expected, abs=1e-8)


class TestConditionalEntropyLimit:
    def test_trivial(self):
        src = trivial_source()
        assert exponent.conditional_entropy_limit(src) == pytest.approx(
            dv.shannon_entropy(src.prior), abs=1e-12
        )

    def test_orthogonal_pure(self):
        assert exponent.conditional_entropy_limit(orthogonal_source()) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_bb84(self):
        plus = np.full((2, 2), 0.5)
        from qpamp.qmat import DensityOperator, HermitianOperator

        src = CQSource(
            prior=np.array([0.5, 0.5]),
            states=(
                DensityOperator(HermitianOperator(np.diag([1.0, 0.0]).astype(complex))),
                DensityOperator(HermitianOperator(plus.astype(complex))),
            ),
        )
        assert exponent.conditional_entropy_limit(src) == pytest.approx(
            math.log(2) - dv.holevo_mutual_info(src), abs=1e-12
        )


class TestConstantTypeAdvantage:
    def test_equal_states_uniform_prior(self, rng):
        # both sides coincide when the states are equal and the prior uniform
        rho = random_density(rng, 2)
        src = CQSource(prior=np.array([0.5, 0.5]), states=(rho, rho))
        assert exponent.constant_type_advantage(src, 1.5) == pytest.approx(0.0, abs=1e-8)

    def test_random_sweep_nonnegative(self, rng):
        for _ in range(10):
            src = rand_source(rng, 2, 2, mix=0.05)
            for a in (1.1, 1.5, 1.9):
                assert exponent.constant_type_advantage(src, a) >= -1e-9


class TestDupuis:
    def test_trivial_states_uniform_prior(self, rng):
        # equal states, uniform prior: H*_a = log K for all a
        rho = random_density(rng, 2)
        src = CQSource(prior=np.array([0.5, 0.5]), states=(rho, rho))
        rate = 0.2
        rep = exponent.dupuis_exponent(src, rate)
        edge = 2.0 - exponent.ALPHA_MARGIN
        assert rep.exponent == pytest.approx(
            (math.log(2) - rate) * (edge - 1) / edge, rel=1e-6
        )

    def test_dominated_by_pa_achievability(self, rng):
        for _ in range(5):
            src = rand_source(rng, 2, 2, mix=0.1)
            rate = max(0.0, exponent.conditional_entropy_limit(src) - 0.1)
            pa = exponent.pa_achievability_exponent(src, rate, points=120)
            du = exponent.dupuis_exponent(src, rate, points=120)
            assert pa.exponent >= du.exponent - 1e-8

    def test_rate_above_limit_nonpositive(self, rng):
        src = rand_source(rng, 2, 2, mix=0.2)
        rate = exponent.conditional_entropy_limit(src) + 0.05
        rep = exponent.dupuis_exponent(src, rate)
        assert rep.exponent <= 1e-9


class TestIidViaTypes:
    def test_n_one_point_masses(self, rng):
        p = rng.dirichlet(np.ones(2))
        W = rng.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        rep = exponent.iid_exponent_via_types(src, 0.05, 1)
        # point-mass types: D(delta_x || p) with vanishing entropy/Augustin terms
        assert rep.exponent == pytest.approx(min(-math.log(px) for px in p), abs=1e-3)

    def test_classical_matches_scalar_oracle(self, rng):
        p = np.array([0.55, 0.45])
        W = rng.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        rate = 0.1
        n = 6

        def inner(q):
            def fn(a):
                return oracles.kl(q, p) + (a - 1) / a * (
                    oracles.entropy(q) - oracles.augustin(q, W, a) - rate
                )

            return oracles.sup_alpha(fn, 1.0, 2.0, grid_points=120)[1]

        expected = min(inner(np.array([k / n, 1 - k / n])) for k in range(n + 1))
        ours = exponent.iid_exponent_via_types(src, rate, n, scan_points=60)
        assert ours.exponent == pytest.approx(expected, abs=1e-6)

    def test_prefactor_and_meta(self, rng):
        src = diag_source([0.5, 0.5], rng.dirichlet(np.ones(2), size=2))
        rep = exponent.iid_exponent_via_types(src, 0.1, 4, scan_points=40)
        assert rep.prefactor_log == pytest.approx(3.0 * math.log(5))
        assert sum(rep.meta["minimizing_type"]) == 4


class TestGridSelfConsistency:
    def test_refined_grid_agrees(self, rng):
        # the 400-point default plus refinement should match a 10x finer grid
        src = rand_source(rng, 2, 2, mix=0.1)
        rate = max(0.0, exponent.conditional_entropy_limit(src) - 0.1)
        coarse = exponent.pa_achievability_exponent(src, rate)
        fine = exponent.pa_achievability_exponent(src, rate, points=4000)
        assert coarse.exponent == pytest.approx(fine.exponent, abs=1e-6)

    def test_negative_exponents_not_clamped(self):
        src = orthogonal_source()
        rep = exponent.pa_achievability_exponent(src, 1.0)
        assert rep.exponent < 0.0


class TestValidation:
    def test_negative_rate_rejected(self):
        src = trivial_source()
        joint = DensityOperator(tensor([src.states[0], src.states[0]]))
        ch = WiretapChannel(prior=np.array([0.5, 0.5]), joint_states=(joint, joint), dims=(2, 2))
        for fn in (
            exponent.sc_achievability_exponent,
            exponent.sc_converse_exponent,
            exponent.pa_achievability_exponent,
            exponent.pa_strong_converse_exponent,
            exponent.dupuis_exponent,
            lambda _, rate: exponent.iid_exponent_via_types(src, rate, 2),
            lambda _, rate: secrecy_exponent(ch, rate),
            lambda _, rate: allocate_rates(ch, rate, 0.05, 2),
        ):
            for rate in (-0.1, math.nan, math.inf):
                with pytest.raises(InvalidParameterError):
                    fn(src, rate)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5])
    def test_bad_max_iter_rejected(self, max_iter):
        with pytest.raises(InvalidParameterError, match="max_iter"):
            exponent.sc_achievability_exponent(trivial_source(), 0.1, max_iter=max_iter)

    def test_iid_requires_valid_n(self):
        with pytest.raises(InvalidParameterError):
            exponent.iid_exponent_via_types(trivial_source(), 0.1, 0)

    def test_iid_requires_n(self):
        with pytest.raises(InvalidParameterError, match="blocklength"):
            exponent.iid_exponent_via_types(trivial_source(), 0.1, None)

    def test_iid_type_enumeration_cap(self):
        from qpamp.errors import CapacityError

        with pytest.raises(CapacityError):
            exponent.iid_exponent_via_types(trivial_source(), 0.1, 20, cap=5)


# -- speculative golden-section refinement -------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: each curve family at one order, one solve per call
_POINT = {
    "augustin": lambda src, a, tol, it: dv.augustin_sandwiched(src, a, tol, it).value,
    "petz-up": lambda src, a, tol, it: dv.augustin_petz_up(src, 2.0 - 1.0 / a),
    "neg-conditional": lambda src, a, tol, it: -dv.conditional_renyi_sandwiched(src, a, tol, it),
}


def sequential_golden(fn, lo, hi, visited=None):
    """Golden-section search that evaluates one point per step."""
    visited = [] if visited is None else visited

    def f(x):
        visited.append(x)
        return fn(x)

    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > exponent.REFINE_XTOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def sequential_sup(src, family, shift, *, offset=-0.0, points=exponent.GRID_POINTS,
                   tol=dv.DEFAULT_TOL, max_iter=dv.DEFAULT_MAX_ITER, visited=None):
    """The sup over alpha with its refinement on single-point solves."""
    fam = exponent._FAMILIES[family]

    def objective(q, a):
        for c in shift:
            q = q - c
        return offset + (1.0 - a) / a * q

    alphas = np.linspace(fam.lo + exponent.ALPHA_MARGIN, fam.hi - exponent.ALPHA_MARGIN, points)
    vals = objective(fam.curve(src, alphas, tol, max_iter), alphas)
    i = int(np.argmax(vals))
    best_a, best_v = float(alphas[i]), float(vals[i])
    ra, rv = sequential_golden(
        lambda a: objective(_POINT[family](src, a, tol, max_iter), a),
        float(alphas[max(i - 1, 0)]),
        float(alphas[min(i + 1, points - 1)]),
        visited,
    )
    if rv > best_v:
        best_a, best_v = ra, rv
    return best_a, best_v, tuple((float(a), float(v)) for a, v in zip(alphas, vals))


def _random_channel(rng) -> WiretapChannel:
    joint = tuple(
        DensityOperator(tensor([random_pure(rng, 2), random_density(rng, 2, mix=0.2)]))
        for _ in range(2)
    )
    return WiretapChannel(prior=np.array([0.5, 0.5]), joint_states=joint, dims=(2, 2))


def _all_kinds(inst, ch):
    """Every exponent kind on one constant-type instance and one channel."""
    src, n = inst.base, inst.type.n
    rate = 0.5 * exponent.conditional_entropy_limit(src)
    return {
        "sc-direct": lambda: exponent.sc_achievability_exponent(src, rate + 0.2),
        "sc-converse": lambda: exponent.sc_converse_exponent(src, rate, n=n),
        "pa-direct": lambda: exponent.pa_achievability_exponent(src, rate, n=n),
        "pa-direct-finite": lambda: exponent.pa_achievability_exponent(
            src, rate, n=n, finite_n=True
        ),
        "pa-converse": lambda: exponent.pa_strong_converse_exponent(src, rate, n=n),
        "dupuis": lambda: exponent.dupuis_exponent(src, rate),
        "iid": lambda: exponent.iid_exponent_via_types(src, rate, 3, scan_points=20),
        "secrecy": lambda: wiretap.secrecy_exponent(ch, 0.01),
        "allocation": lambda: wiretap.allocate_rates(ch, 0.0, 0.05, 8).bob_decoding_exponent,
    }


class TestSpeculativeRefinement:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_sequential_refinement(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, alphabet_size=2 + seed % 2)
        kinds = _all_kinds(inst, _random_channel(rng))
        with monkeypatch.context() as m:
            m.setattr(exponent, "_sup_over_alpha", sequential_sup)
            m.setattr(wiretap, "_sup_over_alpha", sequential_sup)
            expected = {k: fn() for k, fn in kinds.items()}
        for k, fn in kinds.items():
            got, ref = fn(), expected[k]
            assert (got.exponent, got.alpha_star, got.curve) == (
                ref.exponent, ref.alpha_star, ref.curve
            ), k

    def test_batch_count(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2, mix=0.1)
        sizes = []
        curve = dv.augustin_sandwiched_curve

        def counting(src, alphas, *args):
            sizes.append(np.size(alphas))
            return curve(src, alphas, *args)

        def scalar(*args):
            raise AssertionError("refinement made a single-point solve")

        monkeypatch.setattr(dv, "augustin_sandwiched_curve", counting)
        monkeypatch.setattr(dv, "augustin_sandwiched", scalar)
        exponent.pa_achievability_exponent(src, 0.1)
        assert sizes[0] == exponent.GRID_POINTS
        assert 1 <= len(sizes) - 1 <= 12
        refinement = sizes[1:]
        sizes.clear()
        exponent.pa_achievability_exponent(src, 0.1)
        assert sizes == refinement  # the grid curve comes from the memo

    def _stub_family(self, monkeypatch, fam, fail_at):
        def refine(src, alphas, tol, max_iter):
            if fail_at in np.atleast_1d(alphas):
                raise ConvergenceError(f"stub failure at {fail_at}")
            return fam.refine(src, alphas, tol, max_iter)

        monkeypatch.setitem(exponent._FAMILIES, "augustin", fam._replace(refine=refine))

    def test_unread_failure_is_not_raised(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2, mix=0.1)
        read = []
        sequential_sup(src, "augustin", (0.2,), visited=read)
        evaluated = []
        fam = exponent._FAMILIES["augustin"]

        def recording(src, alphas, tol, max_iter):
            evaluated.extend(np.atleast_1d(alphas))
            return fam.refine(src, alphas, tol, max_iter)

        monkeypatch.setitem(exponent._FAMILIES, "augustin", fam._replace(refine=recording))
        ref = exponent.sc_achievability_exponent(src, 0.2)
        unread = sorted(set(evaluated) - set(read))
        assert unread
        for point in (unread[0], unread[len(unread) // 2], unread[-1]):
            self._stub_family(monkeypatch, fam, point)
            got = exponent.sc_achievability_exponent(src, 0.2)
            assert (got.exponent, got.alpha_star) == (ref.exponent, ref.alpha_star)

    @pytest.mark.parametrize("which", [0, 5, -1])
    def test_read_failure_is_raised(self, monkeypatch, rng, which):
        src = rand_source(rng, 2, 2, mix=0.1)
        read = []
        sequential_sup(src, "augustin", (0.2,), visited=read)
        self._stub_family(monkeypatch, exponent._FAMILIES["augustin"], read[which])
        with pytest.raises(ConvergenceError, match="stub failure"):
            exponent.sc_achievability_exponent(src, 0.2)

    @pytest.mark.parametrize(
        "family, solve",
        [
            ("augustin", dv.augustin_sandwiched),
            ("neg-conditional", dv.conditional_renyi_sandwiched),
        ],
    )
    def test_one_order_raises_the_single_point_error(self, rng, family, solve):
        src = rand_source(rng, 2, 2)
        with pytest.raises(ConvergenceError) as scalar:
            solve(src, 1.5, dv.DEFAULT_TOL, 2)
        with pytest.raises(ConvergenceError) as refine:
            exponent._FAMILIES[family].refine(src, 1.5, dv.DEFAULT_TOL, 2)
        assert str(refine.value) == str(scalar.value)
        assert isinstance(refine.value.best, dv.AugustinResult)
        assert refine.value.best.iterations == 2


# -- grid-curve memo -------------------------------------------------------------

#: the function behind each family's grid sweep
_GRID_FUNCTIONS = {
    "augustin": "augustin_sandwiched_curve",
    "petz-up": "augustin_petz_up_curve",
    "neg-conditional": "conditional_renyi_sandwiched_curve",
}


def _count_grid_calls(monkeypatch, points=exponent.GRID_POINTS):
    """Count, per family, the curve calls over ``points`` orders."""
    counts = dict.fromkeys(_GRID_FUNCTIONS, 0)
    for family, name in _GRID_FUNCTIONS.items():
        def counting(src, alphas, *args, _family=family, _fn=getattr(dv, name)):
            if np.size(alphas) == points:
                counts[_family] += 1
            return _fn(src, alphas, *args)

        monkeypatch.setattr(dv, name, counting)
    return counts


def _rebuilt(src: CQSource, prior=None) -> CQSource:
    """An equal source built from fresh copies of its arrays."""
    states = tuple(DensityOperator(HermitianOperator(s.entries.copy())) for s in src.states)
    return CQSource(prior=np.array(src.prior if prior is None else prior), states=states)


class TestCurveCache:
    @pytest.mark.parametrize("seed", range(3))
    def test_warm_memo_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, alphabet_size=2 + seed % 2)
        kinds = _all_kinds(inst, _random_channel(rng))
        cold = {}
        for k, fn in kinds.items():
            exponent._CURVES.clear()
            cold[k] = fn()
        for _ in range(2):  # filled by the other kinds, then fully warm
            for k, fn in kinds.items():
                got, ref = fn(), cold[k]
                assert (got.exponent, got.alpha_star, got.curve) == (
                    ref.exponent, ref.alpha_star, ref.curve
                ), k

    def test_one_grid_sweep_per_family(self, monkeypatch, rng):
        inst = rand_instance(rng, alphabet_size=2)
        src, n = inst.base, inst.type.n
        counts = _count_grid_calls(monkeypatch)
        for rate in (0.05, 0.2, 0.6):
            exponent.sc_achievability_exponent(src, rate)
            exponent.sc_converse_exponent(src, rate, n=n)
            exponent.pa_achievability_exponent(src, rate, n=n)
            exponent.pa_achievability_exponent(src, rate, n=n, finite_n=True)
            exponent.pa_strong_converse_exponent(src, rate, n=n)
            exponent.dupuis_exponent(src, rate)
        assert counts == dict.fromkeys(_GRID_FUNCTIONS, 1)

    def test_key_is_content(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2, mix=0.1)
        counts = _count_grid_calls(monkeypatch)
        exponent.sc_achievability_exponent(src, 0.1)
        exponent.sc_achievability_exponent(_rebuilt(src), 0.3)
        assert counts["augustin"] == 1
        nudged = src.prior.copy()
        nudged[0] = np.nextafter(nudged[0], 1.0)
        exponent.sc_achievability_exponent(_rebuilt(src, nudged), 0.1)
        assert counts["augustin"] == 2
        exponent.sc_achievability_exponent(src, 0.1, tol=dv.DEFAULT_TOL / 2)
        assert counts["augustin"] == 3
        exponent.sc_achievability_exponent(src, 0.1, max_iter=dv.DEFAULT_MAX_ITER + 1)
        assert counts["augustin"] == 4
        fewer = _count_grid_calls(monkeypatch, points=exponent.GRID_POINTS - 1)
        exponent.sc_achievability_exponent(src, 0.1, points=exponent.GRID_POINTS - 1)
        assert fewer["augustin"] == 1

    def test_errors_are_not_cached(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2)
        counts = _count_grid_calls(monkeypatch, points=20)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                exponent.sc_achievability_exponent(src, 0.2, points=20, max_iter=1)
        assert counts["augustin"] == 2
        assert not exponent._CURVES._curves

    def test_memory_is_bounded(self, monkeypatch):
        memo = exponent._CURVES
        monkeypatch.setattr(exponent, "CURVE_MEMO_BYTES", 8 * 4096)
        sources = [trivial_source(p=(q, 1.0 - q)) for q in np.linspace(0.05, 0.95, 20)]
        for src in sources:
            exponent.sc_converse_exponent(src, 0.1)
            assert memo.nbytes <= exponent.CURVE_MEMO_BYTES
        assert 1 < len(memo._curves) < len(sources)
        counts = _count_grid_calls(monkeypatch)
        oldest = sources[len(sources) - len(memo._curves)]
        exponent.sc_converse_exponent(oldest, 0.1)  # held, and now the most recent
        exponent.sc_converse_exponent(sources[0], 0.1)  # evicted: computed again
        exponent.sc_converse_exponent(oldest, 0.1)  # still held
        assert counts["petz-up"] == 1
        # a curve larger than the whole bound is computed but never stored
        before = list(memo._curves)
        exponent.sc_converse_exponent(sources[1], 0.1, points=10_000)
        assert list(memo._curves) == before
        assert memo.nbytes <= exponent.CURVE_MEMO_BYTES

    def test_cached_curve_is_read_only(self, rng):
        src = rand_source(rng, 2, 2, mix=0.1)
        exponent.dupuis_exponent(src, 0.1)
        (curve,) = exponent._CURVES._curves.values()
        with pytest.raises(ValueError):
            curve[0] = 0.0
