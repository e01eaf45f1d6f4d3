"""JSON/CSV command-line front end.

Every run prints one JSON document to stdout: a manifest (command, input
hash, seed, version, parameter echo) plus the result.  Doubles are emitted
with 12 significant digits and keys are sorted, so output is bit-identical
across runs with the same inputs, flags, and seed.  Wall-clock time is only
included when --timing is passed, since it would break that reproducibility.

Exit codes: 0 success, 1 validation error, 2 numerical non-convergence,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, divergence, exponent, model, qmat, simulate, wiretap
from .errors import (
    CapacityError,
    ConvergenceError,
    InvalidInputError,
    InvalidParameterError,
)

LN2 = math.log(2.0)

#: result keys holding entropic values in nats; converted under --bits
_UNIT_KEYS = {
    "shannon_entropy",
    "mutual_info",
    "mutual_info_bob",
    "mutual_info_eve",
    "conditional_entropy",
    "extractable_rate_limit",
    "extraction_limit",
    "value",
    "exponent",
    "prefactor_log",
    "rate",
    "threshold",
    "R",
    "R1",
    "R2",
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise InvalidParameterError(message)


def _round_floats(obj, bits: bool = False, convert: bool = False):
    """Round floats to 12 significant digits; optionally convert nats to bits."""
    if isinstance(obj, dict):
        return {
            k: _round_floats(v, bits, convert or (bits and k in _UNIT_KEYS))
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, bits, convert) for v in obj]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if convert:
            x /= LN2
        return float(f"{x:.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _load_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return obj, digest


def _parse_type(text: str) -> model.TypeDistribution:
    try:
        counts = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"--type must be comma-separated counts: {exc}")
    return model.TypeDistribution(n=sum(counts), counts=counts)


def _constant_type_source(src: model.CQSource, t: model.TypeDistribution):
    if t.alphabet_size != src.alphabet_size:
        raise InvalidInputError("--type length does not match the source alphabet")
    if np.max(np.abs(src.prior - t.probabilities())) > 1e-9:
        raise InvalidInputError(
            f"source prior {list(src.prior)} is not the type {t.counts} at n={t.n}"
        )
    return model.ConstantTypeSource.from_states(src.states, t)


def _report_dict(rep: exponent.ExponentReport) -> dict:
    return {
        "exponent": rep.exponent,
        "alpha_star": rep.alpha_star,
        "prefactor_log": rep.prefactor_log,
        "meta": dict(rep.meta),
    }


def _check_curve_out(path: str | None) -> None:
    """Refuse a --curve-out that cannot be written, before any computation."""
    if not path:
        return
    if os.path.exists(path):
        problem = "is a directory" if os.path.isdir(path) else "not writable"
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(os.path.abspath(path))
        problem = f"no writable directory {parent}"
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise InvalidParameterError(f"cannot write {path}: {problem}")


def _write_curve(path: str, curve) -> None:
    lines = ["alpha,value"]
    lines += [f"{a:.12g},{v:.12g}" for a, v in curve]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc}") from exc


def _estimate_dict(est) -> dict:
    if isinstance(est, simulate.SimEstimate):
        return asdict(est)
    return {"value": float(est)}


# -- subcommands ---------------------------------------------------------------


def cmd_info(args) -> dict:
    obj, digest = _load_json(args.source)
    src = model.source_from_json(obj)
    args._digest = digest
    hp = divergence.shannon_entropy(src.prior)
    mutual = divergence.holevo_mutual_info(src)
    return {
        "alphabet_size": src.alphabet_size,
        "dim_b": src.dim_b,
        "shannon_entropy": hp,
        "mutual_info": mutual,
        "conditional_entropy": hp - mutual,
        "extractable_rate_limit": hp - mutual,
    }


def cmd_augustin(args) -> dict:
    obj, digest = _load_json(args.source)
    src = model.source_from_json(obj)
    args._digest = digest
    res = divergence.augustin_sandwiched(src, args.alpha)
    return {
        "alpha": args.alpha,
        "value": res.value,
        "iterations": res.iterations,
        "final_step": res.final_step,
        "optimizer": qmat.matrix_to_json(res.optimizer),
    }


def cmd_exponent(args) -> dict:
    obj, digest = _load_json(args.source)
    src = model.source_from_json(obj)
    args._digest = digest
    kind = args.kind
    exponent._check_n(args.n)  # also for dupuis, which takes no n
    if args.finite_n and kind not in ("pa-direct", "pa-converse"):
        raise InvalidParameterError(
            f"--finite-n applies to --kind pa-direct and pa-converse only, not {kind}"
        )
    _check_curve_out(args.curve_out)
    kw = dict(points=args.points)
    if kind == "pa-direct":
        rep = exponent.pa_achievability_exponent(
            src, args.rate, n=args.n, finite_n=args.finite_n, **kw
        )
    elif kind == "pa-converse":
        rep = exponent.pa_strong_converse_exponent(
            src, args.rate, n=args.n, finite_n=args.finite_n, **kw
        )
    elif kind == "sc-direct":
        rep = exponent.sc_achievability_exponent(src, args.rate, **kw)
    elif kind == "sc-converse":
        rep = exponent.sc_converse_exponent(src, args.rate, n=args.n, **kw)
    elif kind == "dupuis":
        rep = exponent.dupuis_exponent(src, args.rate, **kw)
    elif kind == "iid":
        if args.n is None:
            raise InvalidParameterError("--kind iid requires --n")
        rep = exponent.iid_exponent_via_types(src, args.rate, args.n, **kw)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidParameterError(f"unknown kind {kind}")
    if args.curve_out:
        _write_curve(args.curve_out, rep.curve)
    return _report_dict(rep)


def cmd_simulate(args) -> dict:
    simulate._check_trials_threads(args.trials, args.threads)
    obj, digest = _load_json(args.source)
    src = model.source_from_json(obj)
    args._digest = digest
    ctype = _constant_type_source(src, _parse_type(args.type))
    if args.task == "equivalence":
        if args.bins is None:
            raise InvalidParameterError("--task equivalence requires --bins")
        rep = simulate.verify_equivalence(ctype, args.bins)
        return {"d_pa": rep.d_pa, "d_sc": rep.d_sc, "gap": rep.gap}
    if args.task == "pa":
        if args.bins is None:
            raise InvalidParameterError("--task pa requires --bins")
        if args.exact:
            return {"value": simulate.d_pa_exact(ctype, args.bins)}
        est = simulate.d_pa_monte_carlo(
            ctype, args.bins, args.trials, args.seed, threads=args.threads
        )
        return _estimate_dict(est)
    if args.task == "sc":
        if args.M is None:
            raise InvalidParameterError("--task sc requires --M")
        if args.exact:
            return {"value": simulate.d_sc_exact(ctype, args.M)}
        est = simulate.d_sc_monte_carlo(
            ctype, args.M, args.trials, args.seed, threads=args.threads
        )
        return _estimate_dict(est)
    raise InvalidParameterError(f"unknown task {args.task}")  # pragma: no cover


def cmd_wiretap(args) -> dict:
    obj, digest = _load_json(args.channel)
    ch = wiretap.channel_from_json(obj)
    args._digest = digest
    _check_curve_out(args.curve_out)
    if args.threshold:
        if args.curve_out:
            raise InvalidParameterError("--threshold computes no curve for --curve-out")
        if args.rate is not None or args.simulate:
            raise InvalidParameterError("--threshold takes neither --rate nor --simulate")
        bob = wiretap.bob_source(ch)
        eve = wiretap.eve_source(ch)
        return {
            "threshold": wiretap.positivity_threshold(ch),
            "mutual_info_bob": divergence.holevo_mutual_info(bob),
            "mutual_info_eve": divergence.holevo_mutual_info(eve),
        }
    if args.simulate:
        if args.type is None or args.rate is None:
            raise InvalidParameterError("--simulate requires --type and --rate")
        t = _parse_type(args.type)
        alloc_rep = wiretap.allocate_rates(
            ch, args.rate, args.delta, t.n, points=args.points
        )
        leak = wiretap.simulate_leakage(
            ch, t, alloc_rep.rates, args.trials, args.seed, threads=args.threads
        )
        if args.curve_out:
            _write_curve(args.curve_out, alloc_rep.bob_decoding_exponent.curve)
        return {
            "rates": asdict(alloc_rep.rates),
            "bob_decoding_exponent": _report_dict(alloc_rep.bob_decoding_exponent),
            "leakage": {
                "pa_joint": _estimate_dict(leak.pa_joint),
                "pa_key": _estimate_dict(leak.pa_key),
                "bound_sum": leak.bound_sum,
                "direct": leak.direct,
                "bins_joint": leak.bins_joint,
                "bins_key": leak.bins_key,
                "realized_rates": asdict(leak.realized),
                "exact": leak.exact,
            },
        }
    if args.rate is not None:
        rep = wiretap.secrecy_exponent(ch, args.rate, points=args.points)
        if args.curve_out:
            _write_curve(args.curve_out, rep.curve)
        return _report_dict(rep)
    raise InvalidParameterError("wiretap needs one of --rate, --threshold, --simulate")


def build_parser() -> _Parser:
    parser = _Parser(prog="qpamp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bits", action="store_true", help="display entropic values in bits")
        p.add_argument("--timing", action="store_true", help="include wall time in the manifest")

    p = sub.add_parser("info", help="entropies and mutual information of a source")
    p.add_argument("source", help="source JSON file")
    common(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("augustin", help="sandwiched Augustin information")
    p.add_argument("source")
    p.add_argument("--alpha", type=float, required=True)
    common(p)
    p.set_defaults(fn=cmd_augustin)

    p = sub.add_parser("exponent", help="achievability / converse exponents")
    p.add_argument("source")
    p.add_argument(
        "--kind",
        required=True,
        choices=["pa-direct", "pa-converse", "sc-direct", "sc-converse", "dupuis", "iid"],
    )
    p.add_argument("--rate", type=float, required=True, help="rate R in nats/symbol")
    p.add_argument("--n", type=int, default=None, help="blocklength for prefactors / finite-n form")
    p.add_argument(
        "--finite-n", action="store_true",
        help="use exact log|T^n_p| instead of H(p) (pa-direct and pa-converse only)",
    )
    p.add_argument("--points", type=int, default=exponent.GRID_POINTS)
    p.add_argument("--curve-out", default=None, help="write the alpha sweep to this CSV file")
    common(p)
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("simulate", help="binning / codebook simulation")
    p.add_argument("source")
    p.add_argument("--task", required=True, choices=["pa", "sc", "equivalence"])
    p.add_argument("--type", required=True, help="type counts, e.g. 2,1")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="enumerate instead of sampling")
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("wiretap", help="wiretap secrecy exponent / leakage")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--threshold", action="store_true")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--type", default=None, help="type counts for the simulation")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=exponent.GRID_POINTS)
    p.add_argument("--curve-out", default=None)
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_wiretap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        result = args.fn(args)
    except (InvalidInputError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    params = {
        k: v
        for k, v in vars(args).items()
        if k not in {"fn", "command", "_digest"} and not k.startswith("_")
    }
    manifest = {
        "command": args.command,
        "input_sha256": getattr(args, "_digest", ""),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "parameters": params,
    }
    if args.timing:
        manifest["wall_time_s"] = time.monotonic() - started
    doc = {
        "manifest": _round_floats(manifest),
        "result": _round_floats(result, bits=args.bits),
        "units": "bits" if args.bits else "nats",
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
