import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qpamp import cli

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SOURCE = os.path.join(DATA, "source_bb84.json")
CHANNEL = os.path.join(DATA, "wiretap_product.json")
#: a 401-digit integer, far past the float range
BIG = "1" + "0" * 400


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


#: runs the CLI on the arguments after ``-c``, as ``python -m qpamp.cli`` does
CLI_MAIN = "import runpy; runpy.run_module('qpamp.cli', run_name='__main__', alter_sys=True)"


def run_python(code: str, *args, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports qpamp from this tree."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=timeout,
    )


def run_bounded(argv):
    """Run the CLI under a 1 GiB address-space limit; it must exit 3 cleanly."""
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
    out = run_python(limit + CLI_MAIN, *argv)
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
    assert out.stdout == ""


class TestInfo:
    def test_golden_output(self, capsys):
        doc = run_json(capsys, ["info", SOURCE])
        with open(os.path.join(GOLDEN, "info_bb84.json")) as fh:
            golden = json.load(fh)
        assert doc["result"] == golden["result"]
        assert doc["manifest"]["input_sha256"] == golden["manifest"]["input_sha256"]

    def test_trivial_source_zero_mutual_info(self, capsys, tmp_path):
        import qpamp.model as model
        from qpamp.qmat import DensityOperator, HermitianOperator

        rho = DensityOperator(HermitianOperator(np.diag([0.6, 0.4]).astype(complex)))
        src = model.CQSource(prior=np.array([0.25, 0.75]), states=(rho, rho))
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(model.source_to_json(src)))
        doc = run_json(capsys, ["info", str(path)])
        assert doc["result"]["mutual_info"] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_source_zero_conditional_entropy(self, capsys, tmp_path):
        import qpamp.model as model
        from conftest import diag_source

        src = diag_source([0.5, 0.5], [[1, 0], [0, 1]])
        path = tmp_path / "orthogonal.json"
        path.write_text(json.dumps(model.source_to_json(src)))
        doc = run_json(capsys, ["info", str(path)])
        assert doc["result"]["conditional_entropy"] == pytest.approx(0.0, abs=1e-12)

    def test_bits_flag_rescales(self, capsys):
        nats = run_json(capsys, ["info", SOURCE])
        bits = run_json(capsys, ["info", SOURCE, "--bits"])
        assert bits["units"] == "bits"
        assert bits["result"]["shannon_entropy"] == pytest.approx(
            nats["result"]["shannon_entropy"] / math.log(2), rel=1e-10
        )


class TestAugustin:
    def test_matches_library(self, capsys):
        doc = run_json(capsys, ["augustin", SOURCE, "--alpha", "1.5"])
        import qpamp.model as model
        from qpamp import divergence

        with open(SOURCE) as fh:
            src = model.source_from_json(json.load(fh))
        res = divergence.augustin_sandwiched(src, 1.5)
        assert doc["result"]["value"] == pytest.approx(res.value, abs=1e-10)
        assert doc["result"]["iterations"] == res.iterations

    def test_convergence_failure_exit_code(self, capsys, monkeypatch):
        from qpamp import divergence

        monkeypatch.setattr(divergence, "MAX_ITER", 2)
        code, out, err = run(capsys, ["augustin", SOURCE, "--alpha", "1.5"])
        assert code == 2
        assert "error" in err


class TestExponent:
    def test_curve_out(self, capsys, tmp_path):
        curve_path = tmp_path / "curve.csv"
        doc = run_json(
            capsys,
            [
                "exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1",
                "--n", "4", "--points", "60", "--curve-out", str(curve_path),
            ],
        )
        lines = curve_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,value"
        assert len(lines) == 61
        alphas, vals = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
        assert max(vals) <= doc["result"]["exponent"] + 1e-9
        assert min(alphas) >= 1.0 and max(alphas) <= 2.0

    def test_iid_requires_n(self, capsys):
        code, _, err = run(capsys, ["exponent", SOURCE, "--kind", "iid", "--rate", "0.1"])
        assert code == 1

    def test_finite_n_past_the_int64_range(self, capsys):
        # the counts 5e18 + 5e18 sum past 2**63 - 1; they are checked as Python integers
        argv = ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--points", "50"]
        finite = run_json(capsys, argv + ["--n", "1" + "0" * 19, "--finite-n"])["result"]
        assert finite["meta"]["entropy_term"] == "log|T|/n"
        asymptotic = run_json(capsys, argv)["result"]
        # log|T|/n is H(p) - O(log(n)/n), about 2e-18 below it
        assert finite["exponent"] == pytest.approx(asymptotic["exponent"], rel=0.0, abs=1e-12)

    def test_finite_n_past_the_float_mantissa(self, capsys, tmp_path):
        # no float holds 1e19 + 2, so past 2**53 the counts come from the exact value of p
        argv = ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--finite-n"]
        doc = run_json(capsys, argv + ["--n", "10000000000000000002"])
        assert math.isfinite(doc["result"]["exponent"])
        code, out, err = run(capsys, argv + ["--n", "10000000000000000001"])
        assert (code, out) == (1, "") and "not an n-type" in err
        # at and below 2**53 the float check stays, so 0.3 (not a dyadic rational) passes
        with open(SOURCE) as fh:
            obj = json.load(fh)
        obj["prior"] = [0.3, 0.7]
        path = tmp_path / "source_37.json"
        path.write_text(json.dumps(obj))
        # past 2**53 every prior the float check accepts stays accepted
        for n in ("100000000", "10000000000000000", "10000000000000000000"):
            doc = run_json(capsys, ["exponent", str(path), "--kind", "pa-direct", "--rate", "0.1",
                                    "--points", "50", "--n", n, "--finite-n"])
            assert doc["result"]["meta"]["entropy_term"] == "log|T|/n"

    def test_all_kinds_run(self, capsys):
        for kind in ("pa-direct", "pa-converse", "sc-direct", "sc-converse", "dupuis"):
            doc = run_json(
                capsys,
                ["exponent", SOURCE, "--kind", kind, "--rate", "0.1", "--n", "4", "--points", "50"],
            )
            assert "exponent" in doc["result"]
        doc = run_json(
            capsys,
            ["exponent", SOURCE, "--kind", "iid", "--rate", "0.1", "--n", "3", "--points", "40"],
        )
        assert sum(doc["result"]["meta"]["minimizing_type"]) == 3


class TestSimulate:
    def test_equivalence_gap(self, capsys):
        doc = run_json(
            capsys,
            ["simulate", SOURCE, "--task", "equivalence", "--type", "2,2", "--bins", "3"],
        )
        assert doc["result"]["gap"] <= 1e-10

    def test_exact_matches_monte_carlo(self, capsys):
        exact = run_json(
            capsys,
            ["simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2", "--exact"],
        )["result"]["value"]
        mc = run_json(
            capsys,
            [
                "simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2",
                "--trials", "300", "--seed", "11",
            ],
        )["result"]
        assert abs(mc["mean"] - exact) <= max(3 * mc["std_error"], 1e-12)

    def test_seed_determinism(self, capsys):
        argv = [
            "simulate", SOURCE, "--task", "sc", "--type", "2,2", "--M", "3",
            "--trials", "50", "--seed", "21",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_type_prior_mismatch(self, capsys):
        code, _, err = run(
            capsys, ["simulate", SOURCE, "--task", "pa", "--type", "3,1", "--bins", "2"]
        )
        assert code == 1

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            ["simulate", SOURCE, "--task", "sc", "--type", "40,40", "--M", "3", "--exact"],
        )
        assert code == 3

    def test_oversized_state_stack_exits_3_in_bounded_memory(self):
        # (5,5) on a qubit source: 252 states of 1024x1024 would stack 3.94 GiB;
        # under a 1 GiB address-space limit the refusal must come first
        run_bounded(["simulate", SOURCE, "--task", "pa", "--type", "5,5", "--bins", "2",
                     "--trials", "2"])

    @pytest.mark.parametrize(
        "argv",
        [
            # 1e8 orders of 2 qubit states: 11.9 GiB of grid states
            ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1",
             "--points", "100000000"],
            ["wiretap", CHANNEL, "--simulate", "--rate", "0.1", "--type", "3,3",
             "--delta", "0.06", "--points", "100000000"],
            # 1e12 trials: 7.28 TiB of per-trial values
            ["simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2",
             "--trials", "1000000000000"],
        ],
        ids=["points", "wiretap-points", "trials"],
    )
    def test_oversized_grid_or_trials_exit_3_in_bounded_memory(self, argv):
        run_bounded(argv)

    @pytest.mark.parametrize(
        "argv, code",
        [
            # counts of thousands of digits, or too costly to build, on the qubit
            # source: the type-class states are refused before anything is counted
            (["simulate", SOURCE, "--task", "pa", "--exact", "--type", "9,9", "--bins", "2"], 3),
            (["simulate", SOURCE, "--task", "sc", "--exact", "--type", "9,9", "--M", "24310"], 3),
            (["simulate", SOURCE, "--task", "equivalence", "--type", "8,8", "--bins", "2"], 3),
            (["simulate", SOURCE, "--task", "pa", "--exact", "--type", "15,15", "--bins", "2"], 3),
            (["simulate", SOURCE, "--task", "equivalence", "--type", "15,15", "--bins", "2"], 3),
            (["simulate", SOURCE, "--task", "sc", "--exact", "--type", "12,12",
              "--M", "1352078"], 3),
            (["simulate", SOURCE, "--task", "sc", "--exact", "--type", "500000,500000",
              "--M", "1352078"], 3),
            (["wiretap", CHANNEL, "--simulate", "--rate", "0.1", "--type", "9,9",
              "--delta", "0.06", "--trials", "2"], 3),
            # |T| ~ 1.18e17: refused before the divisor search walks it
            (["wiretap", CHANNEL, "--simulate", "--rate", "0.1", "--type", "30,30",
              "--delta", "0.06", "--trials", "2"], 3),
            # a one-dimensional source stacks these classes, so the binning and
            # codebook counts themselves are refused
            (["simulate", "{flat}", "--task", "pa", "--exact", "--type", "9,9", "--bins", "2"], 3),
            (["simulate", "{flat}", "--task", "sc", "--exact", "--type", "12,12",
              "--M", "1352078"], 3),
            (["simulate", "{flat}", "--task", "equivalence", "--type", "15,15",
              "--bins", "2"], 3),
            # the Monte Carlo routes stack at most 250,000 sequences
            (["simulate", "{flat}", "--task", "pa", "--type", "11,11", "--bins", "2",
              "--trials", "2"], 3),
            # sigma^c underflows at c ~ 5000: a non-finite step, not a converged one
            (["augustin", SOURCE, "--alpha", "1e-4"], 2),
            # blocklengths no float holds, and an n-type count of 101 digits
            (["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--n", BIG], 1),
            (["exponent", SOURCE, "--kind", "pa-converse", "--rate", "0.1", "--n", BIG], 1),
            (["exponent", SOURCE, "--kind", "sc-converse", "--rate", "0.1", "--n", BIG,
              "--finite-n"], 1),
            (["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--n", BIG,
              "--finite-n"], 1),
            (["exponent", SOURCE, "--kind", "iid", "--rate", "0.1", "--n", BIG], 1),
            (["exponent", SOURCE, "--kind", "iid", "--rate", "0.1", "--n", "1" + "0" * 100], 3),
            (["simulate", SOURCE, "--task", "pa", "--type", BIG + ",1", "--bins", "2"], 1),
            (["wiretap", CHANNEL, "--simulate", "--rate", "0.1", "--type", BIG + ",1",
              "--delta", "0.06"], 1),
        ],
        ids=["pa-9", "sc-9", "eq-8", "pa-15", "eq-15", "sc-12", "sc-500000", "wiretap-9",
             "wiretap-30", "flat-pa-9", "flat-sc-12", "flat-eq-15", "flat-mc-11", "alpha-1e-4",
             "big-n-pa-direct", "big-n-pa-converse", "big-n-sc-converse-finite",
             "big-n-pa-direct-finite", "big-n-iid", "googol-n-iid", "big-type-pa",
             "big-type-wiretap"],
    )
    def test_out_of_reach_input_exits_with_one_short_error(self, tmp_path, argv, code):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"prior": [0.5, 0.5], "states": [[[[1, 0]]]] * 2}))
        argv = [a.replace("{flat}", str(flat)) for a in argv]
        out = run_python(CLI_MAIN, *argv, timeout=30)
        assert out.returncode == code, out.stderr
        assert out.stdout == ""
        assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1, out.stderr
        assert len(out.stderr) < 200 and "Traceback" not in out.stderr

    def test_one_codebook_of_a_large_class_runs_in_bounded_memory(self, tmp_path):
        # M = |T| = 48,620 passes every cap; the orbit ranks hold (|T|-M+1) x M
        # binomials, not the 17.6 GiB |T| x (M+1) table
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"prior": [0.5, 0.5], "states": [[[[1, 0]]]] * 2}))
        limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
        out = run_python(limit + CLI_MAIN, "simulate", str(flat), "--task", "sc", "--exact",
                         "--type", "9,9", "--M", "48620", timeout=30)
        assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
        assert json.loads(out.stdout)["result"] == {"value": 0.0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--task", "pa", "--exact", "--type", "12,12", "--bins", "1"],
            ["--task", "sc", "--exact", "--type", "12,12", "--M", "2704156"],
            ["--task", "pa", "--exact", "--type", "12,12", "--bins", "2704156"],
        ],
        ids=["pa-one-bin", "sc-whole-class", "pa-singleton-bins"],
    )
    def test_exact_routes_refuse_past_the_sequence_cap(self, tmp_path, argv):
        # the 2,704,156 one-dimensional states stack in 41 MiB and pass every
        # binning and codebook count; the 10^6 sequence cap refuses them before
        # the class is enumerated
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"prior": [0.5, 0.5], "states": [[[[1, 0]]]] * 2}))
        limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
        out = run_python(limit + CLI_MAIN, "simulate", str(flat), *argv, timeout=10)
        assert out.returncode == 3, out.stderr
        assert out.stdout == "" and out.stderr.count("\n") == 1
        assert out.stderr.startswith("error: type class has 2704156 sequences")

    def test_one_bin_of_a_class_within_the_sequence_cap_runs(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"prior": [0.5, 0.5], "states": [[[[1, 0]]]] * 2}))
        limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
        out = run_python(limit + CLI_MAIN, "simulate", str(flat), "--task", "pa", "--exact",
                         "--type", "8,8", "--bins", "1", timeout=30)
        assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
        assert json.loads(out.stdout)["result"] == {"value": 0.0}

    def test_long_one_dimensional_class_runs(self, capsys, tmp_path):
        # 1,500 positions: the type class is enumerated without recursion
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"prior": [1.0, 0.0], "states": [[[[1, 0]]]] * 2}))
        doc = run_json(capsys, ["simulate", str(one), "--task", "sc", "--exact",
                                "--type", "1500,0", "--M", "1"])
        assert doc["result"] == {"value": 0.0}


class TestWiretap:
    def test_threshold(self, capsys):
        doc = run_json(capsys, ["wiretap", CHANNEL, "--threshold"])
        res = doc["result"]
        assert res["threshold"] == pytest.approx(
            res["mutual_info_bob"] - res["mutual_info_eve"], abs=1e-10
        )

    def test_exponent_mode(self, capsys):
        doc = run_json(capsys, ["wiretap", CHANNEL, "--rate", "0.05", "--points", "80"])
        assert doc["result"]["exponent"] > 0.0

    def test_simulate_mode_deterministic(self, capsys):
        argv = [
            "wiretap", CHANNEL, "--simulate", "--rate", "0.1", "--type", "3,3",
            "--delta", "0.05", "--trials", "20", "--seed", "5", "--points", "60",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        doc = json.loads(out1)
        leak = doc["result"]["leakage"]
        if leak["direct"] is not None:
            assert leak["direct"] <= leak["bound_sum"] + 1e-10

    def test_simulate_mode_writes_bob_curve(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        run_json(capsys, [
            "wiretap", CHANNEL, "--simulate", "--rate", "0.05", "--type", "2,2",
            "--delta", "0.06", "--trials", "10", "--points", "40", "--curve-out", str(path),
        ])
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,value"
        ch = cli.wiretap.channel_from_json(cli._load_json(CHANNEL)[0])
        curve = cli.wiretap.allocate_rates(ch, 0.05, 0.06, 4, points=40).bob_decoding_exponent.curve
        assert lines[1:] == [f"{a:.12g},{v:.12g}" for a, v in curve]

    def test_mode_required(self, capsys):
        code, _, err = run(capsys, ["wiretap", CHANNEL])
        assert code == 1


class TestOutputSchema:
    COMMANDS = [
        ["info", SOURCE],
        ["info", SOURCE, "--bits", "--timing"],
        ["augustin", SOURCE, "--alpha", "1.5"],
        ["exponent", SOURCE, "--kind", "sc-direct", "--rate", "0.8", "--points", "40"],
        ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--points", "40"],
        ["simulate", SOURCE, "--task", "equivalence", "--type", "2,2", "--bins", "2"],
        ["simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2", "--exact"],
        ["simulate", SOURCE, "--task", "sc", "--type", "2,2", "--M", "2",
         "--trials", "20", "--seed", "3"],
        ["wiretap", CHANNEL, "--threshold"],
        ["wiretap", CHANNEL, "--rate", "0.05", "--points", "40"],
        ["wiretap", CHANNEL, "--simulate", "--rate", "0.05", "--type", "3,3",
         "--delta", "0.06", "--trials", "10", "--seed", "2", "--points", "40"],
    ]

    def test_every_command_output_validates(self, capsys):
        import jsonschema

        from output_schemas import document_schema

        for argv in self.COMMANDS:
            doc = run_json(capsys, argv)
            jsonschema.validate(doc, document_schema(argv[0]))

    def test_round_trip_stable(self, capsys):
        # parse -> re-serialize with the CLI's own conventions is the identity
        doc_text = run(capsys, ["info", SOURCE])[1]
        doc = json.loads(doc_text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == doc_text


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["info", "/nonexistent/file.json"])
        assert code == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["info", str(path)])
        assert code == 1
        assert ":" in err  # line context

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, ["exponent", SOURCE, "--kind", "bogus", "--rate", "0.1"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--points", "0"],
            ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "nan"],
            ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "inf"],
            ["wiretap", CHANNEL, "--rate", "nan"],
            ["wiretap", CHANNEL, "--simulate", "--rate", "0.1", "--type", "3,3", "--delta", "nan"],
            ["augustin", SOURCE, "--alpha", "1.5", "--tol", "nan"],
            ["simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2", "--threads", "0"],
            ["simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2", "--threads", "-3"],
            ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--n", "-5"],
            ["exponent", SOURCE, "--kind", "pa-converse", "--rate", "0.1", "--n", "0"],
            ["exponent", SOURCE, "--kind", "sc-direct", "--rate", "0.1", "--n", "-1"],
            ["exponent", SOURCE, "--kind", "dupuis", "--rate", "0.1", "--n", "-5"],
            ["wiretap", CHANNEL, "--simulate", "--rate", "0.05", "--type", "2,2",
             "--delta", "0.06", "--threads", "0"],
            ["wiretap", CHANNEL, "--simulate", "--rate", "0.05", "--type", "2,2",
             "--delta", "0.06", "--trials", "0"],
            ["augustin", SOURCE, "--alpha", "1.5", "--max-iter", "0"],
            ["augustin", SOURCE, "--alpha", "1.5", "--max-iter", "-3"],
            ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1",
             "--curve-out", os.path.join(DATA, "missing", "curve.csv")],
            ["wiretap", CHANNEL, "--rate", "0.05",
             "--curve-out", os.path.join(DATA, "missing", "curve.csv")],
            ["augustin", SOURCE, "--alpha", "1.5", "--tol", "inf"],
            ["simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2", "--exact",
             "--threads", "0"],
            ["simulate", SOURCE, "--task", "pa", "--type", "2,2", "--bins", "2", "--exact",
             "--trials", "0"],
            ["simulate", SOURCE, "--task", "sc", "--type", "2,2", "--M", "2", "--exact",
             "--trials", "-1"],
            ["simulate", SOURCE, "--task", "equivalence", "--type", "2,2", "--bins", "2",
             "--threads", "0"],
            # a writable path, but --threshold has no curve to write
            ["wiretap", CHANNEL, "--threshold", "--curve-out", os.path.join(DATA, "curve.csv")],
            # --threshold is a mode of its own; a second requested mode is refused
            ["wiretap", CHANNEL, "--threshold", "--rate", "0.1"],
            ["wiretap", CHANNEL, "--threshold", "--simulate", "--rate", "0.05", "--type", "2,2",
             "--delta", "0.06"],
            # only the PA kinds have a finite-n form
            ["exponent", SOURCE, "--kind", "sc-direct", "--rate", "0.1", "--n", "4", "--finite-n"],
        ],
    )
    def test_bad_parameter_exits_1_with_message(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, base, field, value",
        [
            (["augustin", "{}", "--alpha", "1.5"], SOURCE, "prior", [None, 1.0]),
            (["info", "{}"], SOURCE, "prior", [0.5, math.nan]),
            (["info", "{}"], SOURCE, "prior", "abc"),
            (["info", "{}"], SOURCE, "alphabet", 5),
            (["wiretap", "{}", "--rate", "0.05"], CHANNEL, "prior", [None, 1.0]),
            (["wiretap", "{}", "--rate", "0.05"], CHANNEL, "dims", ["a", 2]),
            (["wiretap", "{}", "--rate", "0.05"], CHANNEL, "joint_states", 3),
        ],
        ids=[
            "source-prior-null", "source-prior-nan", "source-prior-string",
            "source-alphabet-number", "channel-prior-null", "channel-dims-string",
            "channel-joint_states-number",
        ],
    )
    def test_malformed_field_exits_1_naming_it(self, capsys, tmp_path, argv, base, field, value):
        with open(base) as f:
            obj = json.load(f)
        obj[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, [str(path) if a == "{}" else a for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize(
        "argv, module, function",
        [
            (["exponent", SOURCE, "--kind", "iid", "--rate", "0.1", "--n", "6",
              "--curve-out", os.path.join(DATA, "missing", "curve.csv")],
             "exponent", "iid_exponent_via_types"),
            (["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1",
              "--curve-out", DATA],
             "exponent", "pa_achievability_exponent"),
            (["wiretap", CHANNEL, "--rate", "0.05",
              "--curve-out", os.path.join(DATA, "missing", "curve.csv")],
             "wiretap", "secrecy_exponent"),
            (["wiretap", CHANNEL, "--simulate", "--rate", "0.05", "--type", "2,2",
              "--delta", "0.06", "--curve-out", os.path.join(DATA, "missing", "curve.csv")],
             "wiretap", "allocate_rates"),
            (["wiretap", CHANNEL, "--threshold",
              "--curve-out", os.path.join(DATA, "missing", "curve.csv")],
             "wiretap", "positivity_threshold"),
        ],
    )
    def test_unwritable_curve_out_refused_before_computing(
        self, capsys, monkeypatch, argv, module, function
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"{function} ran before --curve-out was checked")

        monkeypatch.setattr(getattr(cli, module), function, never)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write")

    def test_timing_flag_adds_wall_time(self, capsys):
        doc = run_json(capsys, ["info", SOURCE, "--timing"])
        assert "wall_time_s" in doc["manifest"]
        doc2 = run_json(capsys, ["info", SOURCE])
        assert "wall_time_s" not in doc2["manifest"]


class TestColdStart:
    def test_import_does_not_load_csgraph(self):
        # the orbit labelling is numpy-only; scipy.sparse.csgraph would add
        # about 90 ms to every CLI start
        out = run_python("import sys, qpamp.cli; print('scipy.sparse.csgraph' in sys.modules)")
        assert out.stdout.strip() == "False", out.stderr

    def test_import_loads_no_scipy(self):
        # scipy.special alone would load about 290 more modules and double
        # the start-up time of every command
        out = run_python(
            "import sys, qpamp.cli;"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.stdout.strip() == "[]", out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", SOURCE],
            ["augustin", SOURCE, "--alpha", "1.5"],
            ["exponent", SOURCE, "--kind", "dupuis", "--rate", "0.1"],
            ["exponent", SOURCE, "--kind", "pa-direct", "--rate", "0.1", "--finite-n",
             "--n", "4"],
            ["simulate", SOURCE, "--task", "equivalence", "--type", "2,2", "--bins", "3"],
            ["wiretap", CHANNEL, "--simulate", "--rate", "0.1", "--type", "3,3",
             "--delta", "0.06", "--trials", "20", "--seed", "1"],
        ],
        ids=["info", "augustin", "dupuis", "pa-direct-finite-n", "equivalence", "wiretap-sim"],
    )
    def test_runs_with_scipy_blocked(self, argv):
        # a None entry makes any import of scipy raise ImportError
        out = run_python("import sys; sys.modules['scipy'] = None;" + CLI_MAIN, *argv)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["result"] is not None
