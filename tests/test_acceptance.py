"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
complete.  Random sweeps use fixed seeds, so every run is reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from conftest import diag_source, rand_instance, rand_source
from qpamp import cli
from qpamp import divergence as dv
from qpamp import exponent, simulate, wiretap
from qpamp.model import CQSource, TypeDistribution
from qpamp.qmat import DensityOperator, HermitianOperator, random_density, tensor

SWEEP_SEED = 20250810


def _report(num: int, ok: bool, details: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"criterion {num}: {details}"


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.fixture(scope="module")
def sweep():
    """100 random constant-type instances with exact d_PA / d_SC per bin count.

    |X| in {2,3}, d_B in {2,3}, n <= 5, |T^n| <= 12, every divisor bin count.
    d_PA walks every regular binning (verify_equivalence's route), d_SC is
    d_sc_exact, so criterion 1 compares two different routes.
    """
    rng = np.random.default_rng(SWEEP_SEED)
    instances = [rand_instance(rng) for _ in range(100)]
    rows = []
    t0 = time.monotonic()
    for idx, inst in enumerate(instances):
        size = inst.type.class_size()
        for bins in _divisors(size):
            rep = simulate.verify_equivalence(inst, bins)
            rows.append((idx, inst, bins, rep.d_pa, rep.d_sc))
    elapsed = time.monotonic() - t0
    return {"instances": instances, "rows": rows, "elapsed": elapsed}


def test_criterion_1_equivalence_exactness(sweep):
    worst = max(abs(d_pa - d_sc) for _, _, _, d_pa, d_sc in sweep["rows"])
    ok = worst <= 1e-10 and sweep["elapsed"] <= 120.0
    _report(
        1,
        ok,
        f"{len(sweep['rows'])} (instance, bins) pairs over {len(sweep['instances'])} "
        f"instances; max |d_PA - d_SC| = {worst:.2e}; distances computed in "
        f"{sweep['elapsed']:.1f}s (cap 120s)",
    )


def test_orbit_reduction_matches_plain_route(sweep):
    # rep.d_sc streams every subset; d_sc_exact diagonalises one per S_n-orbit
    worst = max(
        abs(d_sc - simulate.d_sc_exact(inst, inst.type.class_size() // bins))
        for _, inst, bins, _, d_sc in sweep["rows"]
    )
    assert worst <= 1e-12, f"orbit-reduced d_SC is {worst:.2e} from the plain route"


def test_criterion_2_pa_achievability_sandwich(sweep):
    violations = 0
    margin_f = math.inf
    margin_a = math.inf
    for _, inst, bins, d_pa, _ in sweep["rows"]:
        n = inst.type.n
        rate = math.log(bins) / n
        rep_f = exponent.pa_achievability_exponent(inst.base, rate, n=n, finite_n=True)
        rep_a = exponent.pa_achievability_exponent(inst.base, rate, n=n)
        ub_f = math.exp(-n * rep_f.exponent)
        ub_a = math.exp(rep_a.prefactor_log - n * rep_a.exponent)
        margin_f = min(margin_f, ub_f - d_pa)
        margin_a = min(margin_a, ub_a - d_pa)
        if d_pa > ub_f + 1e-12 or d_pa > ub_a + 1e-12:
            violations += 1
    _report(
        2,
        violations == 0,
        f"{len(sweep['rows'])} pairs; violations = {violations}; smallest slack "
        f"finite-n {margin_f:.3e}, asymptotic {margin_a:.3e}",
    )


def test_criterion_3_pa_converse_sandwich(sweep):
    violations = 0
    margin = math.inf
    for _, inst, bins, d_pa, _ in sweep["rows"]:
        n = inst.type.n
        rate = math.log(bins) / n
        for finite in (True, False):
            rep = exponent.pa_strong_converse_exponent(
                inst.base, rate, n=n, finite_n=finite
            )
            lb = 1.0 - math.exp(rep.prefactor_log - n * rep.exponent)
            margin = min(margin, d_pa - lb)
            if d_pa < lb - 1e-12:
                violations += 1
    _report(
        3,
        violations == 0,
        f"both finite-n and asymptotic forms; violations = {violations}; "
        f"smallest slack {margin:.3e} (vacuous bounds acceptable)",
    )


def test_criterion_4_sc_sandwiches(sweep):
    violations = 0
    margin_up = math.inf
    margin_dn = math.inf
    for _, inst, bins, _, d_sc in sweep["rows"]:
        n = inst.type.n
        size = inst.type.class_size()
        rate = math.log(size // bins) / n
        rep1 = exponent.sc_achievability_exponent(inst.base, rate)
        ub = math.exp(-n * rep1.exponent)
        rep2 = exponent.sc_converse_exponent(inst.base, rate, n=n)
        lb = 1.0 - math.exp(rep2.prefactor_log - n * rep2.exponent)
        margin_up = min(margin_up, ub - d_sc)
        margin_dn = min(margin_dn, d_sc - lb)
        if d_sc > ub + 1e-12 or d_sc < lb - 1e-12:
            violations += 1
    _report(
        4,
        violations == 0,
        f"soft-covering upper and lower bounds; violations = {violations}; "
        f"smallest slack up {margin_up:.3e}, down {margin_dn:.3e}",
    )


def test_criterion_5_gap_inequality():
    rng = np.random.default_rng(SWEEP_SEED + 5)
    alphas = [round(1.05 + 0.05 * k, 2) for k in range(19)]  # 1.05 .. 1.95
    t0 = time.monotonic()
    worst = math.inf
    pairs = 0
    while pairs < 500:
        k = int(rng.choice([2, 3]))
        d = int(rng.choice([2, 3]))
        src = rand_source(rng, k, d, mix=0.05)
        alpha = alphas[pairs % len(alphas)]
        worst = min(worst, exponent.constant_type_advantage(src, alpha))
        pairs += 1
    # degenerate case: equal states with uniform prior makes the gap vanish
    eq_worst = 0.0
    for k in (2, 3):
        rho = random_density(rng, 2)
        src = CQSource(prior=np.full(k, 1.0 / k), states=(rho,) * k)
        for alpha in (1.1, 1.5, 1.9):
            eq_worst = max(eq_worst, abs(exponent.constant_type_advantage(src, alpha)))
    elapsed = time.monotonic() - t0
    ok = worst >= -1e-9 and eq_worst <= 1e-8 and elapsed <= 300.0
    _report(
        5,
        ok,
        f"{pairs} (source, alpha) pairs; min gap = {worst:.3e} (floor -1e-9); "
        f"coincident-state |gap| <= {eq_worst:.2e} (cap 1e-8); {elapsed:.1f}s (cap 300s)",
    )


def test_criterion_6_without_replacement_cross_moment():
    rng = np.random.default_rng(SWEEP_SEED + 6)
    worst_pos = -math.inf
    worst_dev = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        values = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        m = int(rng.integers(2, n + 1))
        val = simulate.without_replacement_covariance(values, m)
        worst_pos = max(worst_pos, val)
        var = float(((values - values.mean()) ** 2).mean())
        worst_dev = max(worst_dev, abs(val - (-var / (n - 1))))
    ok = worst_pos <= 1e-14 and worst_dev <= 1e-12
    _report(
        6,
        ok,
        f"1000 vectors; max value = {worst_pos:.2e} (cap 1e-14); max deviation "
        f"from -Var/(N-1) = {worst_dev:.2e} (cap 1e-12)",
    )


def test_criterion_7_alpha_to_one_limits():
    rng = np.random.default_rng(SWEEP_SEED + 7)
    worst = 0.0
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        d = 2 if i % 3 else 3
        src = rand_source(rng, k, d, mix=0.2)
        mutual = dv.holevo_mutual_info(src)
        for a in (1.0 - 1e-3, 1.0 + 1e-3):
            worst = max(worst, abs(dv.augustin_sandwiched(src, a).value - mutual))
            worst = max(worst, abs(dv.augustin_petz_up(src, a) - mutual))
    ortho_worst = 0.0
    for p in ([0.5, 0.5], [0.3, 0.7], [0.2, 0.3, 0.5]):
        src = diag_source(p, np.eye(len(p)))
        for a in (1.3, 1.7):
            ortho_worst = max(
                ortho_worst,
                abs(dv.augustin_sandwiched(src, a).value - dv.shannon_entropy(p)),
            )
    ok = worst <= 1e-3 and ortho_worst <= 1e-6
    _report(
        7,
        ok,
        f"100 sources, both Augustin variants at alpha = 1 +- 1e-3: max gap to "
        f"I(X:B) = {worst:.2e} (cap 1e-3); orthogonal pure-state gap to H(p) = "
        f"{ortho_worst:.2e} (cap 1e-6)",
    )


def test_criterion_8_classical_reduction_oracle():
    rng = np.random.default_rng(SWEEP_SEED + 8)
    worst = 0.0

    def track(a, b):
        nonlocal worst
        worst = max(worst, abs(a - b))

    for k, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        p = rng.dirichlet(np.ones(k))
        W = rng.dirichlet(np.ones(d), size=k)
        src = diag_source(p, W)
        m = p @ W
        track(dv.holevo_mutual_info(src), oracles.mutual_info(p, W))
        for a in (0.6, 1.3, 1.9):
            sig = diag_source([1.0], [m]).states[0]
            rho = src.states[0]
            track(dv.petz_renyi(rho, sig, a), oracles.renyi_div(W[0], m, a))
            track(dv.sandwiched_renyi(rho, sig, a), oracles.renyi_div(W[0], m, a))
            track(dv.augustin_sandwiched(src, a).value, oracles.augustin(p, W, a))
            track(
                dv.augustin_petz_up(src, a),
                sum(px * oracles.renyi_div(wx, m, a) for px, wx in zip(p, W)),
            )
            track(dv.conditional_renyi_petz_down(src, a), oracles.conditional_petz_down(p, W, a))
            if a > 1:
                track(
                    dv.conditional_renyi_sandwiched(src, a),
                    oracles.arimoto_conditional(p, W, a),
                )
        track(dv.umegaki(src.states[0], sig), oracles.kl(W[0], m))

    # exponents on binary classical sources, against the scalar sup oracle
    for seed in (1, 2):
        sub = np.random.default_rng(SWEEP_SEED + 80 + seed)
        p = sub.dirichlet(np.ones(2))
        W = sub.dirichlet(np.ones(2), size=2)
        src = diag_source(p, W)
        hp = oracles.entropy(p)
        mutual = oracles.mutual_info(p, W)
        for rate in (max(0.0, hp - mutual - 0.15), max(0.0, hp - mutual - 0.02)):
            track(
                exponent.pa_achievability_exponent(src, rate).exponent,
                oracles.sup_alpha(
                    lambda a: (a - 1) / a * (hp - oracles.augustin(p, W, a) - rate),
                    1.0, 2.0, grid_points=200,
                )[1],
            )
            track(
                exponent.dupuis_exponent(src, rate).exponent,
                oracles.sup_alpha(
                    lambda a: (a - 1) / a * (oracles.arimoto_conditional(p, W, a) - rate),
                    1.0, 2.0,
                )[1],
            )
        for rate in (mutual + 0.1, mutual + 0.3):
            track(
                exponent.sc_achievability_exponent(src, rate).exponent,
                oracles.sup_alpha(
                    lambda a: (1 - a) / a * (oracles.augustin(p, W, a) - rate),
                    1.0, 2.0, grid_points=200,
                )[1],
            )

        def up(b):
            return sum(px * oracles.renyi_div(wx, p @ W, b) for px, wx in zip(p, W))

        for rate in (max(0.0, mutual - 0.1),):
            track(
                exponent.sc_converse_exponent(src, rate).exponent,
                oracles.sup_alpha(lambda a: (1 - a) / a * (up(2 - 1 / a) - rate), 0.5, 1.0)[1],
            )
        for rate in (hp - mutual + 0.1,):
            track(
                exponent.pa_strong_converse_exponent(src, rate).exponent,
                oracles.sup_alpha(
                    lambda a: (1 - a) / a * (up(2 - 1 / a) - hp + rate), 0.5, 1.0
                )[1],
            )

    # wiretap secrecy exponent on a fully classical channel
    sub = np.random.default_rng(SWEEP_SEED + 88)
    p = sub.dirichlet(np.ones(2))
    Wb = sub.dirichlet(np.ones(2), size=2)
    We = sub.dirichlet(np.ones(2), size=2)
    joint = tuple(
        DensityOperator(
            tensor([diag_source(p, Wb).states[i], diag_source(p, We).states[i]])
        )
        for i in range(2)
    )
    ch = wiretap.WiretapChannel(prior=p, joint_states=joint, dims=(2, 2))
    mutual_b = oracles.mutual_info(p, Wb)
    rate = max(0.0, (mutual_b - oracles.mutual_info(p, We)) / 2)
    track(
        wiretap.secrecy_exponent(ch, rate).exponent,
        oracles.sup_alpha(
            lambda a: (a - 1) / a * (mutual_b - oracles.augustin(p, We, a) - rate),
            1.0, 2.0, grid_points=200,
        )[1],
    )

    ok = worst <= 1e-8
    _report(8, ok, f"diagonal-source quantities vs scalar oracle: max |diff| = {worst:.2e} (cap 1e-8)")


def test_criterion_9_iid_type_convergence():
    p = [0.6, 0.4]
    W = [[0.85, 0.15], [0.25, 0.75]]
    src = diag_source(p, W)
    rate = 0.15
    t0 = time.monotonic()
    dup = exponent.dupuis_exponent(src, rate).exponent
    vals = [exponent.iid_exponent_via_types(src, rate, n).exponent for n in (10, 20, 40)]
    elapsed = time.monotonic() - t0
    nonincreasing = vals[0] >= vals[1] - 1e-12 and vals[1] >= vals[2] - 1e-12
    above = all(v >= dup - 1e-9 for v in vals)
    close = abs(vals[2] - dup) <= 0.05
    ok = nonincreasing and above and close and elapsed <= 180.0
    _report(
        9,
        ok,
        f"iid exponent at n=10,20,40: {vals[0]:.6f} >= {vals[1]:.6f} >= {vals[2]:.6f} "
        f"-> reference {dup:.6f}; final gap {vals[2] - dup:.2e} (cap 0.05); "
        f"{elapsed:.1f}s (cap 180s)",
    )


def test_criterion_10_wiretap_threshold_and_leakage():
    rng = np.random.default_rng(SWEEP_SEED + 10)
    worst = 0.0
    for _ in range(50):
        joint = tuple(random_density(rng, 4) for _ in range(2))
        ch = wiretap.WiretapChannel(
            prior=rng.dirichlet(np.ones(2)), joint_states=joint, dims=(2, 2)
        )
        # independent route: both mutual informations via the Umegaki divergence
        # of the explicit block c-q joint state against the product state
        def mutual_via_joint(src):
            d = src.dim_b
            k = src.alphabet_size
            joint_arr = np.zeros((k * d, k * d), dtype=complex)
            for i, (px, sx) in enumerate(zip(src.prior, src.states)):
                joint_arr[i * d : (i + 1) * d, i * d : (i + 1) * d] = px * sx.entries
            marg = sum(px * sx.entries for px, sx in zip(src.prior, src.states))
            prod = np.kron(np.diag(src.prior).astype(complex), marg)
            return dv.umegaki(HermitianOperator(joint_arr), HermitianOperator(prod))

        direct = mutual_via_joint(wiretap.bob_source(ch)) - mutual_via_joint(
            wiretap.eve_source(ch)
        )
        worst = max(worst, abs(wiretap.positivity_threshold(ch) - direct))

    # positivity on both sides of the threshold for a channel with a clear gap
    bob = [
        DensityOperator(HermitianOperator(np.diag([0.95, 0.05]).astype(complex))),
        DensityOperator(HermitianOperator(np.diag([0.1, 0.9]).astype(complex))),
    ]
    eve = [random_density(rng, 2, mix=0.6) for _ in range(2)]
    ch = wiretap.WiretapChannel(
        prior=np.array([0.5, 0.5]),
        joint_states=tuple(DensityOperator(tensor([b, e])) for b, e in zip(bob, eve)),
        dims=(2, 2),
    )
    thr = wiretap.positivity_threshold(ch)
    sign_ok = (
        wiretap.secrecy_exponent(ch, max(thr - 0.02, 0.0), points=100).exponent > 0.0
        and wiretap.secrecy_exponent(ch, thr + 0.02, points=100).exponent <= 1e-9
    )

    # enumerable instance: direct leakage never exceeds the two-PA-term bound
    t = TypeDistribution(n=4, counts=(2, 2))
    alloc = wiretap.RateAllocation(R=math.log(3) / 4, R1=0.0, R2=math.log(2) / 4)
    rep = wiretap.simulate_leakage(ch, t, alloc, trials=10, rng_seed=1)
    triangle_ok = (
        rep.exact and rep.direct is not None and rep.direct <= rep.bound_sum + 1e-10
    )

    ok = worst <= 1e-6 and sign_ok and triangle_ok
    _report(
        10,
        ok,
        f"50 channels: max |threshold - (I_B - I_E via joint states)| = {worst:.2e} "
        f"(cap 1e-6); sign flip at threshold: {sign_ok}; direct leakage "
        f"{rep.direct:.6f} <= bound {rep.bound_sum:.6f}",
    )


def test_criterion_11_cli_determinism(capsys, tmp_path):
    source = tmp_path / "source.json"
    import qpamp.model as model

    rng = np.random.default_rng(SWEEP_SEED + 11)
    states = tuple(random_density(rng, 2) for _ in range(2))
    src = CQSource(prior=np.array([0.5, 0.5]), states=states)
    source.write_text(json.dumps(model.source_to_json(src)))

    channel = tmp_path / "channel.json"
    bob = [
        DensityOperator(HermitianOperator(np.diag([0.9, 0.1]).astype(complex))),
        DensityOperator(HermitianOperator(np.diag([0.15, 0.85]).astype(complex))),
    ]
    eve = [random_density(rng, 2, mix=0.5) for _ in range(2)]
    ch = wiretap.WiretapChannel(
        prior=np.array([0.5, 0.5]),
        joint_states=tuple(DensityOperator(tensor([b, e])) for b, e in zip(bob, eve)),
        dims=(2, 2),
    )
    channel.write_text(json.dumps(wiretap.channel_to_json(ch)))

    commands = [
        ["simulate", str(source), "--task", "pa", "--type", "2,2", "--bins", "3",
         "--trials", "100", "--seed", "42"],
        ["simulate", str(source), "--task", "sc", "--type", "2,2", "--M", "2",
         "--trials", "100", "--seed", "7"],
        ["simulate", str(source), "--task", "pa", "--type", "2,2", "--bins", "3",
         "--trials", "64", "--seed", "42", "--threads", "4"],
        ["wiretap", str(channel), "--simulate", "--rate", "0.05", "--type", "3,3",
         "--delta", "0.06", "--trials", "50", "--seed", "9", "--points", "60"],
    ]
    all_ok = True
    for argv in commands:
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        if not (code1 == code2 == 0 and out1 == out2):
            all_ok = False
    _report(
        11,
        all_ok,
        f"{len(commands)} Monte Carlo CLI commands run twice each: "
        f"bit-identical JSON = {all_ok}",
    )
