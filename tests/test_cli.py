import json
import math
import os

import numpy as np
import pytest

from qpamp import cli

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SOURCE = os.path.join(DATA, "source_bb84.json")
CHANNEL = os.path.join(DATA, "wiretap_product.json")


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_convergence_failure_exit_code(self, capsys):
        code, out, err = run(capsys, ["augustin", SOURCE, "--alpha", "1.5", "--max-iter", "2"])
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

        from qpamp.schemas import document_schema

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
        ],
    )
    def test_bad_parameter_exits_1_with_message(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

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
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        probe = "import sys, qpamp.cli; print('scipy.sparse.csgraph' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
