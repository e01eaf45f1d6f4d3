import functools
import math
import sys

import numpy as np
import pytest

import oracles
from conftest import diag_source, petz_up_by_symbol, rand_instance, rand_source
from qpamp.errors import CapacityError, ConvergenceError, InvalidInputError, InvalidParameterError
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


def _one_iteration_sweeps(monkeypatch):
    """Make every fixed-point sweep stop after one step."""
    monkeypatch.setattr(dv, "MAX_ITER", 1)


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

    def test_convergence_failure_propagates(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2)
        _one_iteration_sweeps(monkeypatch)
        with pytest.raises(ConvergenceError):
            exponent.sc_achievability_exponent(src, 0.2, points=20)

    def test_grid_convergence_message_is_bounded(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2)
        _one_iteration_sweeps(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            exponent.sc_achievability_exponent(src, 0.1)
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

    def test_classical_matches_scalar_oracle(self, rng, monkeypatch):
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
        monkeypatch.setattr(exponent, "SCAN_POINTS", 60)
        ours = exponent.iid_exponent_via_types(src, rate, n)
        assert ours.exponent == pytest.approx(expected, abs=1e-6)

    def test_prefactor_and_meta(self, rng, monkeypatch):
        src = diag_source([0.5, 0.5], rng.dirichlet(np.ones(2), size=2))
        monkeypatch.setattr(exponent, "SCAN_POINTS", 40)
        rep = exponent.iid_exponent_via_types(src, 0.1, 4)
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

    def test_iid_requires_valid_n(self):
        with pytest.raises(InvalidParameterError):
            exponent.iid_exponent_via_types(trivial_source(), 0.1, 0)

    def test_iid_requires_n(self):
        with pytest.raises(InvalidParameterError, match="blocklength"):
            exponent.iid_exponent_via_types(trivial_source(), 0.1, None)

    def test_iid_type_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(exponent, "SCAN_TYPES_CAP", 5)
        with pytest.raises(CapacityError):
            exponent.iid_exponent_via_types(trivial_source(), 0.1, 20)

    def test_grid_ceiling_refuses_every_kind(self, monkeypatch, rng):
        # 40 orders of 2 qubit states are 40 * 2 * 4 * 16 = 5,120 bytes; one
        # byte less refuses every exponent, the wiretap ones included, before
        # any curve is computed
        src = trivial_source()
        eve = random_density(rng, 2)
        joint = tuple(
            DensityOperator(tensor([s, eve])) for s in orthogonal_source((0.5, 0.5)).states
        )
        ch = WiretapChannel(prior=np.array([0.5, 0.5]), joint_states=joint, dims=(2, 2))
        monkeypatch.setattr(exponent, "SCAN_POINTS", 40)
        kinds = (
            lambda: exponent.sc_achievability_exponent(src, 0.3, points=40),
            lambda: exponent.sc_converse_exponent(src, 0.3, points=40),
            lambda: exponent.pa_achievability_exponent(src, 0.1, points=40),
            lambda: exponent.pa_strong_converse_exponent(src, 0.1, points=40),
            lambda: exponent.dupuis_exponent(src, 0.1, points=40),
            lambda: exponent.iid_exponent_via_types(src, 0.1, 2, points=40),
            lambda: secrecy_exponent(ch, 0.01, points=40),
            lambda: allocate_rates(ch, 0.0, 0.2, 8, points=40),
        )
        monkeypatch.setattr(exponent, "_GRID_BYTES_CAP", 40 * 2 * 4 * 16 - 1)
        calls = []
        for family in ("augustin", "petz-up", "neg-conditional"):
            fam = exponent._FAMILIES[family]
            monkeypatch.setitem(
                exponent._FAMILIES, family,
                fam._replace(
                    curve=lambda s, a, start, c=fam.curve: calls.append(a) or c(s, a, start)
                ),
            )
        for call in kinds:
            with pytest.raises(CapacityError, match="alpha-grid ceiling"):
                call()
        assert calls == []
        monkeypatch.setattr(exponent, "_GRID_BYTES_CAP", 40 * 2 * 4 * 16)
        for call in kinds:
            call()
        assert calls


# -- speculative golden-section refinement -------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _solve(src, a, conditional, start):
    """One fixed-point order started at ``start`` (None: the marginal)."""
    curve = dv.conditional_renyi_sandwiched_curve if conditional else dv.augustin_sandwiched_curve
    return curve(src, a, start).values[0]


#: each curve family at one order from a given start, one solve per call
_POINT = {
    "augustin": lambda src, a, start: _solve(src, a, False, start),
    "petz-up": lambda src, a, start: petz_up_by_symbol(src, 2.0 - 1.0 / a),
    "neg-conditional": lambda src, a, start: -_solve(src, a, True, start),
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


def sequential_sup(src, family, shift, *, prefactor_log=0.0, meta=None, offset=-0.0,
                   points=exponent.GRID_POINTS, visited=None, warm=True):
    """The sup over alpha with its refinement on single-point solves.

    Each solve starts at the grid optimizer of the best grid order, or with
    ``warm=False`` at the source marginal.
    """
    fam = exponent._FAMILIES[family]

    def objective(q, a):
        for c in shift:
            q = q - c
        return offset + (1.0 - a) / a * q

    alphas = np.linspace(fam.lo + exponent.ALPHA_MARGIN, fam.hi - exponent.ALPHA_MARGIN, points)
    grid = fam.curve(src, alphas, None)
    vals = objective(grid.values, alphas)
    i = int(np.argmax(vals))
    best_a, best_v = float(alphas[i]), float(vals[i])
    start = grid.optimizers[i] if warm and grid.optimizers is not None else None
    ra, rv = sequential_golden(
        lambda a: objective(_POINT[family](src, a, start), a),
        float(alphas[max(i - 1, 0)]),
        float(alphas[min(i + 1, points - 1)]),
        visited,
    )
    if rv > best_v:
        best_a, best_v = ra, rv
    curve = tuple((float(a), float(v)) for a, v in zip(alphas, vals))
    return exponent.ExponentReport(best_v, best_a, curve, prefactor_log, meta)


def _random_channel(rng) -> WiretapChannel:
    joint = tuple(
        DensityOperator(tensor([random_pure(rng, 2), random_density(rng, 2, mix=0.2)]))
        for _ in range(2)
    )
    return WiretapChannel(prior=np.array([0.5, 0.5]), joint_states=joint, dims=(2, 2))


def _all_kinds(inst, ch, monkeypatch):
    """Every exponent kind on one constant-type instance and one channel."""
    monkeypatch.setattr(exponent, "SCAN_POINTS", 20)
    src, n = inst.base, inst.type.n
    limit = exponent.conditional_entropy_limit(src)
    rate = 0.5 * limit
    delta = min(0.05, 0.5 * dv.holevo_mutual_info(wiretap.bob_source(ch)))
    return {
        "sc-direct": lambda: exponent.sc_achievability_exponent(src, rate + 0.2),
        "sc-converse": lambda: exponent.sc_converse_exponent(src, rate, n=n),
        "pa-direct": lambda: exponent.pa_achievability_exponent(src, rate, n=n),
        "pa-direct-finite": lambda: exponent.pa_achievability_exponent(
            src, rate, n=n, finite_n=True
        ),
        "pa-converse": lambda: exponent.pa_strong_converse_exponent(src, rate, n=n),
        # above the extraction limit, where the converse is positive
        "pa-converse-above": lambda: exponent.pa_strong_converse_exponent(src, limit + 0.1, n=n),
        "dupuis": lambda: exponent.dupuis_exponent(src, rate),
        "iid": lambda: exponent.iid_exponent_via_types(src, rate, 3),
        "secrecy": lambda: wiretap.secrecy_exponent(ch, 0.01),
        # feasible at rate 0 for every channel: delta <= I(X:B), and at n = 64
        # the uniform prior's key rate R2 is positive whatever I(X:B)
        "allocation": lambda: wiretap.allocate_rates(ch, 0.0, delta, 64).bob_decoding_exponent,
    }


def _counting(monkeypatch, module, name) -> list:
    """Record the arguments of every call to ``module.name`` from now on."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def _grid_argmax(rep) -> int:
    return int(np.argmax([v for _, v in rep.curve]))


def _assert_interior(rep):
    """The report's grid argmax is interior, so its refinement walks."""
    i = _grid_argmax(rep)
    assert 0 < i < len(rep.curve) - 1, f"grid argmax {i} is a grid end: no walk to watch"


def _assert_edge(rep):
    i = _grid_argmax(rep)
    assert i in (0, len(rep.curve) - 1), f"grid argmax {i} is interior"


def _recording_paths(monkeypatch) -> list[tuple[str, str]]:
    """Record (row, path) of every supremum taken from now on.

    The row is ``fixed-point`` or ``petz-up``; the path is ``low`` or
    ``high`` for a grid end kept without a walk, ``interior`` or ``edge``
    for a walk from an interior or an end argmax.
    """
    paths, sup = [], exponent._sup_over_alpha
    walks = _counting(monkeypatch, exponent, "_golden_max")

    def recording(src, family, *args, **kwargs):
        walks.clear()
        rep = sup(src, family, *args, **kwargs)
        i, last = _grid_argmax(rep), len(rep.curve) - 1
        if walks:
            path = "interior" if 0 < i < last else "edge"
        else:
            path = {0: "low", last: "high"}[i]  # a skip anywhere else is a KeyError
        paths.append(("petz-up" if family == "petz-up" else "fixed-point", path))
        return rep

    monkeypatch.setattr(exponent, "_sup_over_alpha", recording)
    monkeypatch.setattr(wiretap, "_sup_over_alpha", recording)
    return paths


#: seeds of the sequential reference; together they take every path of both rows
_SEQUENTIAL_SEEDS = range(12)
#: the (row, path) pairs each seed's reports took, as the bit-identity test saw them
_SEQUENTIAL_PATHS: dict[int, list[tuple[str, str]]] = {}


def _seed_kinds(seed, monkeypatch) -> dict:
    rng = np.random.default_rng(seed)
    inst = rand_instance(rng, alphabet_size=2 + seed % 2)
    return _all_kinds(inst, _random_channel(rng), monkeypatch)


class TestSpeculativeRefinement:
    @pytest.mark.parametrize("lookahead", [1, 2, 5])
    def test_lookahead_is_float_neutral(self, monkeypatch, rng, lookahead):
        src = rand_source(rng, 2, 2, mix=0.1)
        kinds = (
            lambda: exponent.pa_achievability_exponent(src, 0.3),
            lambda: exponent.dupuis_exponent(src, 0.3),
            lambda: exponent.sc_converse_exponent(src, 0.1),
        )
        ref = [kind() for kind in kinds]
        for rep in ref:
            _assert_interior(rep)
        monkeypatch.setattr(exponent, "LOOKAHEAD", lookahead)
        assert [kind() for kind in kinds] == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_agrees_with_a_cold_refinement(self, monkeypatch, seed):
        kinds = _seed_kinds(seed, monkeypatch)
        cold_sup = functools.partial(sequential_sup, warm=False)
        with monkeypatch.context() as m:
            m.setattr(exponent, "_sup_over_alpha", cold_sup)
            m.setattr(wiretap, "_sup_over_alpha", cold_sup)
            cold = {k: fn() for k, fn in kinds.items()}
        for k, fn in kinds.items():
            got, ref = fn(), cold[k]
            assert got.exponent == pytest.approx(ref.exponent, rel=0.0, abs=1e-12), k
            assert got.curve == ref.curve, k

    @pytest.mark.parametrize("seed", _SEQUENTIAL_SEEDS)
    def test_bit_identical_to_sequential_refinement(self, monkeypatch, seed):
        kinds = _seed_kinds(seed, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(exponent, "_sup_over_alpha", sequential_sup)
            m.setattr(wiretap, "_sup_over_alpha", sequential_sup)
            expected = {k: fn() for k, fn in kinds.items()}
        _SEQUENTIAL_PATHS[seed] = _recording_paths(monkeypatch)
        for k, fn in kinds.items():
            got, ref = fn(), expected[k]
            assert (got.exponent, got.alpha_star, got.curve) == (
                ref.exponent, ref.alpha_star, ref.curve
            ), k
            assert (got.prefactor_log, got.meta) == (ref.prefactor_log, ref.meta), k

    def test_sequential_seeds_take_every_path(self, monkeypatch):
        # the seeds above compare edge skips and interior walks alike with the
        # sequential walk, which never skips; a seed whose test has not run
        # here is run now
        paths = []
        for seed in _SEQUENTIAL_SEEDS:
            if seed not in _SEQUENTIAL_PATHS:
                with monkeypatch.context() as m:
                    kinds = _seed_kinds(seed, m)
                    _SEQUENTIAL_PATHS[seed] = _recording_paths(m)
                    for fn in kinds.values():
                        fn()
            paths += _SEQUENTIAL_PATHS[seed]
        for row in ("fixed-point", "petz-up"):
            assert {(row, "low"), (row, "high"), (row, "interior")} <= set(paths), row

    def test_batch_count(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2, mix=0.1)
        sizes = []
        augustin = dv.augustin_sandwiched_curve

        def counting(src, alphas, start):
            if np.ndim(alphas) == 0:
                raise AssertionError("refinement made a single-point solve")
            sizes.append(np.size(alphas))
            return augustin(src, alphas, start)

        monkeypatch.setattr(dv, "augustin_sandwiched_curve", counting)
        _assert_interior(exponent.pa_achievability_exponent(src, 0.3))
        assert sizes[0] == exponent.GRID_POINTS
        assert 1 <= len(sizes) - 1 <= 12
        refinement = sizes[1:]
        sizes.clear()
        exponent.pa_achievability_exponent(src, 0.3)
        assert sizes == refinement  # the grid curve comes from the memo

    def _stub_family(self, monkeypatch, fam, fail_at):
        def curve(src, alphas, start):
            if fail_at in np.atleast_1d(alphas):
                raise ConvergenceError(f"stub failure at {fail_at}")
            return fam.curve(src, alphas, start)

        monkeypatch.setitem(exponent._FAMILIES, "augustin", fam._replace(curve=curve))

    def test_unread_failure_is_not_raised(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2, mix=0.1)
        read = []
        sequential_sup(src, "augustin", (0.3,), visited=read)
        ref = exponent.sc_achievability_exponent(src, 0.3)  # the grid, from now on memoised
        _assert_interior(ref)
        evaluated = []
        fam = exponent._FAMILIES["augustin"]

        def recording(src, alphas, start):
            evaluated.extend(np.atleast_1d(alphas))
            return fam.curve(src, alphas, start)

        monkeypatch.setitem(exponent._FAMILIES, "augustin", fam._replace(curve=recording))
        assert exponent.sc_achievability_exponent(src, 0.3) == ref
        unread = sorted(set(evaluated) - set(read))
        assert unread
        for point in (unread[0], unread[len(unread) // 2], unread[-1]):
            self._stub_family(monkeypatch, fam, point)
            got = exponent.sc_achievability_exponent(src, 0.3)
            assert (got.exponent, got.alpha_star) == (ref.exponent, ref.alpha_star)

    @pytest.mark.parametrize("which", [0, 5, -1])
    def test_read_failure_is_raised(self, monkeypatch, rng, which):
        src = rand_source(rng, 2, 2, mix=0.1)
        read = []
        _assert_interior(sequential_sup(src, "augustin", (0.3,), visited=read))
        self._stub_family(monkeypatch, exponent._FAMILIES["augustin"], read[which])
        with pytest.raises(ConvergenceError, match="stub failure"):
            exponent.sc_achievability_exponent(src, 0.3)

    @pytest.mark.parametrize(
        "family, solve",
        [
            ("augustin", dv.augustin_sandwiched),
            ("neg-conditional", dv.conditional_renyi_sandwiched),
        ],
    )
    def test_one_order_raises_the_single_point_error(self, monkeypatch, rng, family, solve):
        src = rand_source(rng, 2, 2)
        monkeypatch.setattr(dv, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as scalar:
            solve(src, 1.5)
        with pytest.raises(ConvergenceError) as refine:
            exponent._FAMILIES[family].curve(src, 1.5, None)
        assert str(refine.value) == str(scalar.value)
        assert isinstance(refine.value.best, dv.AugustinResult)
        assert refine.value.best.iterations == 2


# -- grid ends kept without a walk ----------------------------------------------

#: kinds whose supremum on the ``rng`` fixture's first mixed source is at a grid end
_EDGE_KINDS = {
    "pa-direct": ("augustin", lambda src: exponent.pa_achievability_exponent(src, 0.1)),
    "sc-direct": ("augustin", lambda src: exponent.sc_achievability_exponent(src, 0.1)),
    "dupuis": ("neg-conditional", lambda src: exponent.dupuis_exponent(src, 0.1)),
    "pa-converse": ("petz-up", lambda src: exponent.pa_strong_converse_exponent(src, 0.1)),
}


class TestEdgeSkip:
    @pytest.mark.parametrize("family", list(exponent._FAMILIES))
    def test_at_state_is_the_curve_at_its_optimizer(self, rng, family):
        src = rand_source(rng, 3, 2, mix=0.1)
        fam = exponent._FAMILIES[family]
        alphas = np.linspace(fam.lo + exponent.ALPHA_MARGIN, fam.hi - exponent.ALPHA_MARGIN, 9)
        curve = fam.curve(src, alphas, None)
        for i, a in enumerate(alphas):
            state = None if curve.optimizers is None else curve.optimizers[i]
            got = fam.at_state(src, np.array([a]), state)[0]
            assert got == pytest.approx(curve.values[i], rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("kind", _EDGE_KINDS)
    def test_walk_keeps_the_skipped_end(self, monkeypatch, rng, kind):
        _, run = _EDGE_KINDS[kind]
        src = rand_source(rng, 2, 2, mix=0.1)
        walks = _counting(monkeypatch, exponent, "_golden_max")
        skipped = run(src)
        _assert_edge(skipped)
        assert walks == []
        monkeypatch.setattr(exponent, "EDGE_SLOPE_MARGIN", math.inf)
        assert run(src) == skipped
        assert len(walks) == 1

    @pytest.mark.parametrize("kind", ["pa-direct", "sc-direct", "dupuis"])
    def test_memo_hit_solves_nothing(self, monkeypatch, rng, kind):
        _, run = _EDGE_KINDS[kind]
        src = rand_source(rng, 2, 2, mix=0.1)
        miss = run(src)
        _assert_edge(miss)
        sweeps = _counting(monkeypatch, dv, "_fixed_point")
        augustin = _counting(monkeypatch, dv, "augustin_sandwiched_curve")
        conditional = _counting(monkeypatch, dv, "conditional_renyi_sandwiched_curve")
        assert run(src) == miss
        assert sweeps == augustin == conditional == []

    @pytest.mark.parametrize("kind", _EDGE_KINDS)
    def test_unread_bracket_cannot_raise(self, monkeypatch, rng, kind):
        family, run = _EDGE_KINDS[kind]
        src = rand_source(rng, 2, 2, mix=0.1)
        ref = run(src)  # the grid, from now on memoised
        _assert_edge(ref)

        def failing(src, alphas, start):
            raise ConvergenceError("stub failure")

        fam = exponent._FAMILIES[family]
        monkeypatch.setitem(exponent._FAMILIES, family, fam._replace(curve=failing))
        got = run(src)
        assert got == ref
        assert got.alpha_star == got.curve[_grid_argmax(got)][0]  # the grid point
        monkeypatch.setattr(exponent, "EDGE_SLOPE_MARGIN", math.inf)
        with pytest.raises(ConvergenceError, match="stub failure"):
            run(src)


# -- the traced boundary -------------------------------------------------------


class TestPublicCurvesCarryEverySweep:
    """A tracer wraps divergence's public curves; every fixed-point sweep passes through one."""

    @pytest.mark.parametrize(
        "run, used, unused",
        [
            (lambda src: exponent.pa_achievability_exponent(src, 0.3),
             "augustin_sandwiched_curve", "conditional_renyi_sandwiched_curve"),
            (lambda src: exponent.dupuis_exponent(src, 0.3),
             "conditional_renyi_sandwiched_curve", "augustin_sandwiched_curve"),
        ],
        ids=["pa-direct", "dupuis"],
    )
    def test_grid_and_refinement_go_through_the_public_curve(
        self, monkeypatch, rng, run, used, unused
    ):
        src = rand_source(rng, 2, 2, mix=0.1)
        sweeps = _counting(monkeypatch, dv, "_fixed_point")
        public = _counting(monkeypatch, dv, used)
        other = _counting(monkeypatch, dv, unused)

        def orders(calls):
            return [np.atleast_1d(args[1]).tolist() for args in calls]

        _assert_interior(run(src))
        cold = orders(public)
        assert len(cold[0]) == exponent.GRID_POINTS and len(cold) > 1
        assert orders(sweeps) == cold and other == []
        sweeps.clear()
        public.clear()
        run(src)  # a memo hit: the refinement only
        assert orders(public) == cold[1:]
        assert orders(sweeps) == cold[1:] and other == []


# -- grid-curve memo -------------------------------------------------------------

#: the public curve of ``divergence`` behind each family
_PUBLIC_CURVES = {
    "augustin": "augustin_sandwiched_curve",
    "petz-up": "augustin_petz_up_curve",
    "neg-conditional": "conditional_renyi_sandwiched_curve",
}


def _count_grid_calls(monkeypatch, points=exponent.GRID_POINTS):
    """Count, per family, the curve calls over ``points`` orders.

    Each family calls its own public curve of ``divergence``.
    """
    counts = dict.fromkeys(exponent._FAMILIES, 0)
    for family, name in _PUBLIC_CURVES.items():
        curve = getattr(dv, name)

        def counting(src, alphas, *args, family=family, curve=curve):
            if np.size(alphas) == points:
                counts[family] += 1
            return curve(src, alphas, *args)

        monkeypatch.setattr(dv, name, counting)
    return counts


def _rebuilt(src: CQSource, prior=None) -> CQSource:
    """An equal source built from fresh copies of its arrays."""
    states = tuple(DensityOperator(HermitianOperator(s.entries.copy())) for s in src.states)
    return CQSource(prior=np.array(src.prior if prior is None else prior), states=states)


class TestCurveCache:
    @pytest.mark.parametrize("seed", range(3))
    def test_warm_memo_is_bit_identical(self, monkeypatch, seed):
        kinds = _seed_kinds(seed, monkeypatch)
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
        assert counts == dict.fromkeys(exponent._FAMILIES, 1)

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
        fewer = _count_grid_calls(monkeypatch, points=exponent.GRID_POINTS - 1)
        exponent.sc_achievability_exponent(src, 0.1, points=exponent.GRID_POINTS - 1)
        assert fewer["augustin"] == 1

    def test_errors_are_not_cached(self, monkeypatch, rng):
        src = rand_source(rng, 2, 2)
        _one_iteration_sweeps(monkeypatch)
        counts = _count_grid_calls(monkeypatch, points=20)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                exponent.sc_achievability_exponent(src, 0.2, points=20)
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
            curve.values[0] = 0.0
        with pytest.raises(ValueError):
            curve.optimizers[0] = 0.0

    def test_memo_counts_the_optimizer_stack(self, rng):
        memo = exponent._CURVES
        src = rand_source(rng, 3, 3, mix=0.1)
        exponent.sc_achievability_exponent(src, 0.1)
        ((key, curve),) = memo._curves.items()
        assert curve.optimizers.shape == (exponent.GRID_POINTS, 3, 3)
        assert curve.values.base is None and curve.optimizers.base is None  # own their bytes
        assert memo.nbytes == sys.getsizeof(key) + sys.getsizeof(curve.values) + sys.getsizeof(
            curve.optimizers
        )
        assert memo.nbytes > curve.values.nbytes + curve.optimizers.nbytes
        # petz-up has no optimizer: its entry holds the values only
        memo.clear()
        exponent.sc_converse_exponent(src, 0.1)
        ((key, curve),) = memo._curves.items()
        assert curve.optimizers is None
        assert memo.nbytes == sys.getsizeof(key) + sys.getsizeof(curve.values)

    @pytest.mark.parametrize("family", ["augustin", "neg-conditional"])
    def test_hit_and_miss_refine_from_one_state(self, monkeypatch, rng, family):
        src = rand_source(rng, 2, 2, mix=0.1)
        fam = exponent._FAMILIES[family]
        starts = []

        def recording(src, alphas, start):
            starts.append(None if start is None else start.tobytes())
            return fam.curve(src, alphas, start)

        monkeypatch.setitem(exponent._FAMILIES, family, fam._replace(curve=recording))
        run = {
            "augustin": lambda: exponent.pa_achievability_exponent(src, 0.3),
            "neg-conditional": lambda: exponent.dupuis_exponent(src, 0.3),
        }[family]
        miss = run()
        _assert_interior(miss)
        miss_starts = starts[:]
        (curve,) = exponent._CURVES._curves.values()
        hit = run()
        assert hit == miss
        assert miss_starts[0] is None  # the grid starts cold
        refine = set(miss_starts[1:])
        assert len(refine) == 1 and refine <= {s.tobytes() for s in curve.optimizers}
        assert starts[len(miss_starts):] == miss_starts[1:]  # the hit refines alike
