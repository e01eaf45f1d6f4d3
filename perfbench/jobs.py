"""The four benchmark workloads: seeded inputs, job lists and output checks.

Every input is generated here from the workload seed with plain numpy, so a
change to ``qpamp.qmat.random_density`` or any other program code cannot
change what the program is asked to do.  The structure of each workload
(types, dimensions, bin counts, trial counts) is fixed; the seed only draws
the states, priors and Monte Carlo seeds, so runs with different seeds do the
same amount of work on different numbers.

A job is one closed-loop request.  In-process jobs call the Python API;
``cli-cold`` jobs start a fresh ``qpamp.cli`` interpreter each.  Checks run
after the timed region: per-job checks see each job's result, and the
workload's ``post_check`` compares jobs with each other and with independent
references.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
WORKLOADS = ("exponent-sweep", "exact-enum", "monte-carlo", "cli-cold")
#: fixed Monte Carlo trial count of every sampled job
MC_TRIALS = 200
#: address-space ceiling of every cli-cold child; a plain job needs < 400 MiB
CHILD_AS_BYTES = 1 << 30
#: tolerances of the output checks
EXACT_ATOL = 1e-10
ORACLE_ATOL = 1e-8
VALUE_ATOL = 1e-9
MC_SIGMAS = 5.0
#: seed of the per-slot template states, and the seeded share mixed into them
TEMPLATE_SEED = 20231017
PERTURBATION = 0.05


@dataclass
class Job:
    """One request.  In-process jobs set ``call``; cli-cold jobs set ``argv``.

    ``check`` maps a result (the returned object, or the parsed CLI JSON) to
    a failure reason, or None when the result is right.  ``expect`` lists the
    CLI exit codes that mean the job did what the README documents.
    """

    name: str
    call: Callable[[], Any] | None = None
    argv: tuple[str, ...] | None = None
    expect: frozenset = frozenset({0})
    check: Callable[[Any], str | None] | None = None
    #: too large to run inside the benchmark process (cli-cold trace pass)
    cold_only: bool = False
    #: the CLI output must match a stored sha256 (bit-identical JSON rule)
    digest: bool = False
    #: key path of the value compared by tolerance with the stored one
    value_key: tuple[str, ...] | None = None


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    #: arrays and file bytes the inputs were made from
    inputs: dict[str, bytes]
    post_check: Callable[[dict[str, Any]], dict[str, str]] = lambda results: {}
    workdir: Path | None = None


def _api(module: str, attr: str, *args, **kwargs) -> Callable[[], Any]:
    """A job calling ``qpamp.<module>.<attr>``, looked up when the job runs.

    The lookup happens at call time so that the traced run, which replaces
    that attribute, sees the benchmark's own calls too.
    """
    return functools.partial(
        _call_late, importlib.import_module(f"qpamp.{module}"), attr, args, kwargs
    )


def _call_late(module, attr: str, args, kwargs):
    return getattr(module, attr)(*args, **kwargs)


# -- seeded inputs (benchmark-owned generators) --------------------------------


def _mixed(rng, d: int, mix: float = 0.1) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (1.0 - mix) * rho + mix * np.eye(d) / d


def _haar(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _seeded_states(rng, key: tuple[int, ...], k: int, d: int, kind: str) -> list[np.ndarray]:
    """A fixed template of states, moved by the seed.

    The cost of a job depends on the geometry of its states: the iterations
    of the Augustin and conditional-Renyi solvers (fresh random states moved
    the cost of an instance by 10 to 30% from seed to seed), and the
    deflation inside LAPACK's Hermitian eigensolver, which depends on the
    spectrum.  So each slot ``key`` has a template drawn once from a
    constant seed; the workload seed mixes in a random state of weight
    ``PERTURBATION`` and, except for the commuting slot, applies a random
    basis (every quantity computed is unitarily invariant).  Different seeds
    give different inputs and values at nearly the same cost.
    """
    template = np.random.default_rng([TEMPLATE_SEED, *key])
    eps = PERTURBATION
    if kind == "diagonal":
        return [
            np.diag((1 - eps) * template.dirichlet(np.ones(d)) + eps * rng.dirichlet(np.ones(d)))
            .astype(complex)
            for _ in range(k)
        ]
    u = _haar(rng, d)
    out = []
    for _ in range(k):
        if kind == "pure":
            psi = template.normal(size=d) + 1j * template.normal(size=d)
            psi /= np.linalg.norm(psi)
            psi = psi + eps * (rng.normal(size=d) + 1j * rng.normal(size=d)) / np.sqrt(2 * d)
            state = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        else:
            state = (1 - eps) * _mixed(template, d) + eps * _mixed(rng, d)
        out.append(u @ state @ u.conj().T)
    return out


def _channel_arrays(rng, key: tuple[int, ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Product wiretap channel B (x) E with a clear Bob advantage.

    Bob's states are noisy copies of the computational basis, so I(X:B) lies
    between about 0.25 and 0.4 nats; the rates used below (0.05 and 0.1 with
    slack 0.06) then stay feasible for the rate allocation at n = 6.  Eve's
    states are seeded states (see ``_seeded_states``) mixed half with I/2.
    """
    e0, e1 = rng.uniform(0.08, 0.16, size=2)
    bob = [np.diag([1.0 - e0, e0]).astype(complex), np.diag([e1, 1.0 - e1]).astype(complex)]
    eve = [0.5 * s + 0.25 * np.eye(2) for s in _seeded_states(rng, key, 2, 2, "mixed")]
    return np.array([0.5, 0.5]), [np.kron(b, e) for b, e in zip(bob, eve)]


def _density(arr):
    from qpamp.qmat import DensityOperator, HermitianOperator

    return DensityOperator(HermitianOperator(arr))


def _constant_type(states, counts):
    from qpamp.model import ConstantTypeSource, TypeDistribution

    t = TypeDistribution(n=sum(counts), counts=tuple(counts))
    return ConstantTypeSource.from_states(tuple(_density(s) for s in states), t)


def _channel(prior, joint):
    from qpamp.wiretap import WiretapChannel

    return WiretapChannel(
        prior=prior, joint_states=tuple(_density(j) for j in joint), dims=(2, 2)
    )


def _divisors(size: int) -> list[int]:
    return [d for d in range(1, size + 1) if size % d == 0]


def _class_size(counts) -> int:
    size = math.factorial(sum(counts))
    for c in counts:
        size //= math.factorial(c)
    return size


def _bytes(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# -- exponent-sweep --------------------------------------------------------------

#: (type counts, d_B, state kind): the acceptance family |X| in {2,3},
#: d_B in {2,3}, n <= 5, |T| <= 12; the diagonal slot is checked against the
#: independent classical oracle
SWEEP_SLOTS = (
    ((2, 1), 2, "mixed"),
    ((1, 1, 1), 2, "mixed"),
    ((2, 2), 3, "mixed"),
    ((2, 2), 2, "pure"),
    ((3, 2), 2, "diagonal"),
)
IID_BLOCKLENGTHS = (4, 5, 6)
IID_RATE = 0.1
SECRECY_RATE = 0.05

_SC_KINDS = ("sc-direct", "sc-converse")


def _check_report(lo: float, hi: float):
    def check(rep) -> str | None:
        if not _finite_number(rep.exponent):
            return f"exponent {rep.exponent!r} is not a finite number"
        if not lo < rep.alpha_star < hi:
            return f"alpha_star {rep.alpha_star} outside ({lo}, {hi})"
        return None

    return check


def build_exponent_sweep(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    jobs: list[Job] = []
    inputs: dict[str, bytes] = {}
    oracle_cases: list[tuple[str, str, float]] = []
    diagonal: tuple = ()
    direct = _check_report(1.0, 2.0)
    converse = _check_report(0.5, 1.0)
    for i, (counts, d, kind) in enumerate(SWEEP_SLOTS):
        states = _seeded_states(rng, (1, i), len(counts), d, kind)
        inputs[f"slot{i}"] = _bytes(states)
        base = _constant_type(states, counts).base
        n, size = sum(counts), _class_size(counts)
        if kind == "diagonal":
            diagonal = (counts, states)
        for b in _divisors(size):
            pa_rate, sc_rate = math.log(b) / n, math.log(size // b) / n
            pa, sc = (base, pa_rate), (base, sc_rate)
            calls = {
                "pa-direct-finite": _api("exponent", "pa_achievability_exponent", *pa,
                                         n=n, finite_n=True),
                "pa-direct": _api("exponent", "pa_achievability_exponent", *pa, n=n),
                "pa-converse": _api("exponent", "pa_strong_converse_exponent", *pa, n=n),
                "sc-direct": _api("exponent", "sc_achievability_exponent", *sc),
                "sc-converse": _api("exponent", "sc_converse_exponent", *sc, n=n),
                "dupuis": _api("exponent", "dupuis_exponent", *pa),
            }
            for k, call in calls.items():
                name = f"s{i}-b{b}-{k}"
                check = converse if k.endswith("converse") else direct
                jobs.append(Job(name=name, call=call, check=check))
                if kind == "diagonal":
                    rate = sc_rate if k in _SC_KINDS else pa_rate
                    oracle_cases.append((name, k, rate))

    iid_states = _seeded_states(rng, (1, len(SWEEP_SLOTS)), 2, 2, "mixed")
    iid_prior = np.array([0.6, 0.4]) + rng.uniform(-0.05, 0.05) * np.array([1.0, -1.0])
    inputs["iid"] = _bytes(iid_states + [iid_prior])
    from qpamp.model import CQSource

    iid_src = CQSource(prior=iid_prior, states=tuple(_density(s) for s in iid_states))
    for n in IID_BLOCKLENGTHS:
        call = _api("exponent", "iid_exponent_via_types", iid_src, IID_RATE, n)
        jobs.append(Job(name=f"iid-n{n}", call=call, check=direct))
    for c in range(2):
        prior, joint = _channel_arrays(rng, (1, 10 + c))
        inputs[f"channel{c}"] = _bytes(joint)
        call = _api("wiretap", "secrecy_exponent", _channel(prior, joint), SECRECY_RATE)
        jobs.append(Job(name=f"secrecy-c{c}", call=call, check=direct))

    return Workload(
        name="exponent-sweep",
        seed=seed,
        jobs=jobs,
        inputs=inputs,
        post_check=functools.partial(_oracle_check, *diagonal, oracle_cases),
    )


def _load_oracles():
    """tests/oracles.py, imported read-only under a private module name."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_perfbench_oracles", ROOT / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_check(counts, states, cases, results: dict[str, Any]) -> dict[str, str]:
    """Diagonal (classical) instance against tests/oracles.py to 1e-8."""
    oracles = _load_oracles()
    n = sum(counts)
    p = np.asarray(counts, dtype=float) / n
    W = np.array([np.diag(s).real for s in states])
    marginal = p @ W
    hp = oracles.entropy(p)
    log_t = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
    s_finite = log_t / n

    @functools.lru_cache(maxsize=None)
    def aug(a: float) -> float:
        return oracles.augustin(p, W, a)

    def up(b: float) -> float:
        return sum(px * oracles.renyi_div(wx, marginal, b) for px, wx in zip(p, W))

    def reference(kind: str, r: float) -> float:
        if kind == "pa-direct-finite":
            fn = lambda a: (a - 1) / a * (s_finite - aug(a) - r)  # noqa: E731
            return oracles.sup_alpha(fn, 1.0, 2.0, grid_points=200)[1]
        if kind == "pa-direct":
            fn = lambda a: (a - 1) / a * (hp - aug(a) - r)  # noqa: E731
            return oracles.sup_alpha(fn, 1.0, 2.0, grid_points=200)[1]
        if kind == "sc-direct":
            fn = lambda a: (1 - a) / a * (aug(a) - r)  # noqa: E731
            return oracles.sup_alpha(fn, 1.0, 2.0, grid_points=200)[1]
        if kind == "pa-converse":
            fn = lambda a: (1 - a) / a * (up(2 - 1 / a) - hp + r)  # noqa: E731
            return oracles.sup_alpha(fn, 0.5, 1.0)[1]
        if kind == "sc-converse":
            fn = lambda a: (1 - a) / a * (up(2 - 1 / a) - r)  # noqa: E731
            return oracles.sup_alpha(fn, 0.5, 1.0)[1]
        fn = lambda a: (a - 1) / a * (oracles.arimoto_conditional(p, W, a) - r)  # noqa: E731
        return oracles.sup_alpha(fn, 1.0, 2.0)[1]

    failures = {}
    for name, kind, rate in cases:
        rep = results.get(name)
        if rep is None:
            continue
        ref = reference(kind, rate)
        if not abs(rep.exponent - ref) <= ORACLE_ATOL:
            failures[name] = f"exponent {rep.exponent!r} vs oracle {ref!r}"
    return failures


# -- exact-enum ------------------------------------------------------------------

#: small acceptance-style classes, enumerated at every divisor bin count
EXACT_SMALL = (((2, 2), 2, "mixed"), ((2, 1, 1), 3, "mixed"), ((3, 2), 2, "pure"))


def _check_distance(x) -> str | None:
    if not _finite_number(x) or not -1e-12 <= x <= 1.0 + 1e-12:
        return f"distance {x!r} outside [0, 1]"
    return None


def _check_equivalence(rep) -> str | None:
    if not rep.gap <= EXACT_ATOL:
        return f"equivalence gap {rep.gap!r} above {EXACT_ATOL}"
    return _check_distance(rep.d_pa) or _check_distance(rep.d_sc)


def build_exact_enum(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    jobs: list[Job] = []
    inputs: dict[str, bytes] = {}
    pairs: list[tuple[str, str]] = []

    def add_pa_sc(tag, src, size, b):
        pa, sc = f"{tag}-pa-b{b}", f"{tag}-sc-M{size // b}"
        jobs.append(Job(pa, _api("simulate", "d_pa_exact", src, b), check=_check_distance))
        jobs.append(
            Job(sc, _api("simulate", "d_sc_exact", src, size // b), check=_check_distance)
        )
        pairs.append((pa, sc))

    for i, (counts, d, kind) in enumerate(EXACT_SMALL):
        states = _seeded_states(rng, (2, i), len(counts), d, kind)
        inputs[f"small{i}"] = _bytes(states)
        src, size = _constant_type(states, counts), _class_size(counts)
        for b in _divisors(size):
            add_pa_sc(f"s{i}", src, size, b)
            jobs.append(
                Job(
                    f"s{i}-eq-b{b}",
                    _api("simulate", "verify_equivalence", src, b),
                    check=_check_equivalence,
                )
            )

    # (3,3) at d_B = 2: 190 and 15,504 codebooks at D = 64; 4 bins is refused
    # by the partition cap (4.9e8 binnings) although it needs only the
    # 15,504 five-subsets of the codebook identity.
    states = _seeded_states(rng, (2, 10), 2, 2, "mixed")
    inputs["l33"] = _bytes(states)
    l33 = _constant_type(states, (3, 3))
    jobs.append(Job("l33-sc-M2", _api("simulate", "d_sc_exact", l33, 2), check=_check_distance))
    jobs.append(Job("l33-sc-M5", _api("simulate", "d_sc_exact", l33, 5), check=_check_distance))
    jobs.append(Job("l33-pa-b4", _api("simulate", "d_pa_exact", l33, 4), check=_check_distance))
    pairs.append(("l33-pa-b4", "l33-sc-M5"))
    # (4,2) with 3 bins: 126,126 regular binnings
    states = _seeded_states(rng, (2, 11), 2, 2, "mixed")
    inputs["l42"] = _bytes(states)
    add_pa_sc("l42", _constant_type(states, (4, 2)), 15, 3)

    def post_check(results):
        failures = {}
        for pa, sc in pairs:
            if pa in results and sc in results:
                if not abs(results[pa] - results[sc]) <= EXACT_ATOL:
                    failures[pa] = f"d_pa_exact {results[pa]!r} != d_sc_exact {results[sc]!r}"
        return failures

    return Workload(name="exact-enum", seed=seed, jobs=jobs, inputs=inputs, post_check=post_check)


# -- monte-carlo -------------------------------------------------------------------

#: (tag, type counts, PA bin counts, SC codebook sizes) at d_B = 2
MC_CLASSES = (
    ("m22", (2, 2), (2, 3), (2, 3)),
    ("m33", (3, 3), (4, 10), (2, 5)),
    ("m42", (4, 2), (3, 5), (3, 5)),
)
#: classes whose exact value is cheap: codebook size M -> d_sc_exact(M);
#: a PA job with b bins is compared with d_sc_exact(|T|/b) (the equivalence)
MC_CHEAP_M = {"m22": (2, 3), "m33": (2,), "m42": (3, 5)}


def _check_estimate(est) -> str | None:
    if not (_finite_number(est.mean) and _finite_number(est.std_error)):
        return f"estimate {est!r} is not finite"
    if est.trials != MC_TRIALS:
        return f"estimate used {est.trials} trials, not {MC_TRIALS}"
    return _check_distance(est.mean)


def _check_leakage(exact: bool):
    def check(rep) -> str | None:
        if rep.exact != exact:
            return f"leakage took the {'exact' if rep.exact else 'Monte Carlo'} route"
        if not _finite_number(rep.bound_sum):
            return f"bound_sum {rep.bound_sum!r} is not finite"
        if exact and not (
            rep.direct is not None and rep.direct <= rep.bound_sum + EXACT_ATOL
        ):
            return f"direct leakage {rep.direct!r} above the bound {rep.bound_sum!r}"
        return None

    return check


def _threads() -> int:
    """The thread-pool job's thread count: 2, never more than nproc."""
    return min(2, len(os.sched_getaffinity(0)))


def build_monte_carlo(seed: int) -> Workload:
    from qpamp import simulate, wiretap

    rng = np.random.default_rng([seed, 3])
    jobs: list[Job] = []
    inputs: dict[str, bytes] = {}
    sources = {}
    estimates: list[tuple[str, str, int]] = []  # (job, class tag, codebook size)
    threads = _threads()
    for i, (tag, counts, bins, codebooks) in enumerate(MC_CLASSES):
        states = _seeded_states(rng, (3, i), 2, 2, "mixed")
        inputs[tag] = _bytes(states)
        src = sources[tag] = _constant_type(states, counts)
        size = _class_size(counts)
        for b in bins:
            mc_seed = int(rng.integers(2**31))
            name = f"{tag}-pa-b{b}"
            call = _api("simulate", "d_pa_monte_carlo", src, b, MC_TRIALS, mc_seed)
            jobs.append(Job(name, call, check=_check_estimate))
            estimates.append((name, tag, size // b))
            if tag == "m33" and b == 4:
                call = _api("simulate", "d_pa_monte_carlo", src, b, MC_TRIALS, mc_seed,
                            threads=threads)
                jobs.append(Job(f"{name}-threads", call, check=_check_estimate))
        for m in codebooks:
            name = f"{tag}-sc-M{m}"
            mc_seed = int(rng.integers(2**31))
            call = _api("simulate", "d_sc_monte_carlo", src, m, MC_TRIALS, mc_seed)
            jobs.append(Job(name, call, check=_check_estimate))
            estimates.append((name, tag, m))

    from qpamp.model import TypeDistribution

    # (2,2) takes the exact route (3 joint bins, 2 key bins), (3,3) the Monte
    # Carlo route (5 and 5 bins over 20 sequences)
    leak_cases = (
        ("leak-exact", (2, 2), (math.log(3) / 4, 0.0, math.log(2) / 4), True),
        ("leak-mc", (3, 3), (0.05, 0.2, 0.24), False),
    )
    for i, (name, counts, rates, exact) in enumerate(leak_cases):
        prior, joint = _channel_arrays(rng, (3, 10 + i))
        inputs[name] = _bytes(joint)
        call = _api(
            "wiretap",
            "simulate_leakage",
            _channel(prior, joint),
            TypeDistribution(n=sum(counts), counts=counts),
            wiretap.RateAllocation(*rates),
            MC_TRIALS,
            int(rng.integers(2**31)),
        )
        jobs.append(Job(name, call, check=_check_leakage(exact)))

    def post_check(results):
        failures = {}
        single, pooled = results.get("m33-pa-b4"), results.get("m33-pa-b4-threads")
        if single is not None and pooled is not None and single != pooled:
            failures["m33-pa-b4-threads"] = f"threads={threads} gave {pooled!r}, serial {single!r}"
        exact = {}
        for name, tag, m in estimates:
            est = results.get(name)
            if est is None or m not in MC_CHEAP_M[tag]:
                continue
            if (tag, m) not in exact:
                exact[tag, m] = simulate.d_sc_exact(sources[tag], m)
            ref = exact[tag, m]
            if not abs(est.mean - ref) <= MC_SIGMAS * est.std_error + EXACT_ATOL:
                failures[name] = (
                    f"estimate {est.mean!r} +- {est.std_error!r} is more than "
                    f"{MC_SIGMAS} standard errors from the exact {ref!r}"
                )
        return failures

    return Workload(name="monte-carlo", seed=seed, jobs=jobs, inputs=inputs, post_check=post_check)


# -- cli-cold ----------------------------------------------------------------------

_BB84 = "data/source_bb84.json"
_WIRETAP = "data/wiretap_product.json"
_SEEDED_SOURCE = "seeded_source.json"
_SEEDED_CHANNEL = "seeded_channel.json"


def _cli_value(*path):
    """Check that the CLI JSON has a finite number at result/<path>."""

    def check(doc) -> str | None:
        node = doc.get("result")
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if not _finite_number(node):
            return f"result/{'/'.join(path)} is {node!r}, not a finite number"
        return None

    return check


def _cli_equivalence(doc) -> str | None:
    gap = doc.get("result", {}).get("gap")
    if not _finite_number(gap) or gap > EXACT_ATOL:
        return f"equivalence gap {gap!r} above {EXACT_ATOL}"
    return None


def _readme_jobs(tag: str, source: str, channel: str, mc_seed: int, leak_seed: int) -> list[Job]:
    """Every README command, each with one rate, on one source and channel."""
    exp = ("exponent", source, "--rate", "0.1", "--n", "4")
    jobs = [
        Job(f"{tag}-info", argv=("info", source), digest=True,
            check=_cli_value("mutual_info")),
        Job(f"{tag}-augustin", argv=("augustin", source, "--alpha", "1.5"),
            check=_cli_value("value"), value_key=("value",)),
    ]
    for kind in ("pa-direct", "pa-converse", "sc-direct", "sc-converse", "dupuis", "iid"):
        extra = ("--finite-n", "--curve-out", f"curve-{tag}.csv") if kind == "pa-direct" else ()
        jobs.append(
            Job(f"{tag}-exponent-{kind}", argv=exp + ("--kind", kind) + extra,
                check=_cli_value("exponent"), value_key=("exponent",))
        )
    jobs += [
        Job(f"{tag}-equivalence",
            argv=("simulate", source, "--task", "equivalence", "--type", "2,2", "--bins", "3"),
            digest=True, check=_cli_equivalence),
        Job(f"{tag}-simulate-pa",
            argv=("simulate", source, "--task", "pa", "--type", "2,2", "--bins", "2",
                  "--trials", "2000", "--seed", str(mc_seed)),
            digest=True, check=_cli_value("mean")),
        Job(f"{tag}-wiretap-threshold", argv=("wiretap", channel, "--threshold"),
            check=_cli_value("threshold"), value_key=("threshold",)),
        Job(f"{tag}-wiretap-rate", argv=("wiretap", channel, "--rate", "0.1"),
            check=_cli_value("exponent"), value_key=("exponent",)),
        Job(f"{tag}-wiretap-leakage",
            argv=("wiretap", channel, "--simulate", "--rate", "0.1", "--type", "3,3",
                  "--delta", "0.06", "--trials", "200", "--seed", str(leak_seed)),
            digest=True, check=_cli_value("leakage", "bound_sum")),
    ]
    return jobs


def build_cli_cold(seed: int, workdir: Path) -> Workload:
    """README commands on data/*.json and on seeded files in ``workdir``.

    Arguments are paths relative to ``workdir``, which is each child's working
    directory, so the manifest (which echoes the paths) does not depend on
    where the checkout lives.
    """
    from qpamp import model, wiretap

    rng = np.random.default_rng([seed, 4])
    (workdir / "data").mkdir(parents=True, exist_ok=True)
    inputs: dict[str, bytes] = {}
    for rel in (_BB84, _WIRETAP):
        shutil.copyfile(ROOT / rel, workdir / rel)
    states = _seeded_states(rng, (4, 0), 2, 2, "mixed")
    src = model.CQSource(prior=np.array([0.5, 0.5]), states=tuple(_density(s) for s in states))
    prior, joint = _channel_arrays(rng, (4, 1))
    files = {
        _SEEDED_SOURCE: model.source_to_json(src),
        _SEEDED_CHANNEL: wiretap.channel_to_json(_channel(prior, joint)),
    }
    for rel, obj in files.items():
        (workdir / rel).write_text(json.dumps(obj, sort_keys=True))
    for rel in (_BB84, _WIRETAP, _SEEDED_SOURCE, _SEEDED_CHANNEL):
        raw = (workdir / rel).read_bytes()
        inputs[rel] = raw
        obj = json.loads(raw)
        if "joint_states" in obj:
            wiretap.channel_from_json(obj)
        else:
            model.source_from_json(obj)

    jobs = _readme_jobs("data", _BB84, _WIRETAP, 7, 1)
    seeds = rng.integers(2**31, size=2)
    jobs += _readme_jobs("seeded", _SEEDED_SOURCE, _SEEDED_CHANNEL, int(seeds[0]), int(seeds[1]))
    bb84_exp = ("exponent", _BB84, "--kind", "pa-direct")
    jobs += [
        # documented as validation errors (exit 1); a traceback or a null
        # result with exit 0 is a failure
        Job("fail-points-0", argv=bb84_exp + ("--rate", "0.1", "--points", "0"),
            expect=frozenset({1})),
        Job("fail-rate-nan", argv=bb84_exp + ("--rate", "nan"), expect=frozenset({1})),
        # inside the partition cap (92,378 binnings) but stacks ~12 GB; must
        # finish in bounded memory or exit 3
        Job("fail-exact-33-b2",
            argv=("simulate", _BB84, "--task", "pa", "--exact", "--type", "3,3", "--bins", "2"),
            expect=frozenset({0, 3}), check=_cli_value("value"), cold_only=True),
        # refused by the cap (exit 3)
        Job("refuse-exact-33-b4",
            argv=("simulate", _BB84, "--task", "pa", "--exact", "--type", "3,3", "--bins", "4"),
            expect=frozenset({0, 3}), check=_cli_value("value")),
    ]
    return Workload(name="cli-cold", seed=seed, jobs=jobs, inputs=inputs, workdir=workdir)


def child_argv(argv: tuple[str, ...]) -> list[str]:
    """Fresh interpreter running ``qpamp.cli`` as __main__ under the ceiling."""
    boot = (
        "import resource, runpy, sys;"
        f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_AS_BYTES}, {CHILD_AS_BYTES}));"
        "runpy.run_module('qpamp.cli', run_name='__main__', alter_sys=True)"
    )
    return [sys.executable, "-c", boot, *argv]


def build(name: str, seed: int, workdir: Path | None = None) -> Workload:
    if name == "exponent-sweep":
        return build_exponent_sweep(seed)
    if name == "exact-enum":
        return build_exact_enum(seed)
    if name == "monte-carlo":
        return build_monte_carlo(seed)
    if name == "cli-cold":
        if workdir is None:
            raise ValueError("cli-cold needs a working directory for its input files")
        return build_cli_cold(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
