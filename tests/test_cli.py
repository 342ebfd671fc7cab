import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infocoupling.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONSTRAINT,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARSE,
    dump_report,
    load_report,
    main,
    parse_channel_spec,
)

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else None)


class TestSpectrumCommand:
    def test_ternary_spectrum(self, capsys):
        code, report = run(capsys, "spectrum", str(SPEC_DIR / "ternary_eta02_gamma01.json"))
        assert code == EXIT_OK
        values = report["results"]["singular_values"]
        assert np.max(np.abs(np.array(values) - [1.0, 0.4, 0.14])) <= 1e-9
        assert report["results"]["maximal_correlation"]["rho"] == pytest.approx(0.4)

    def test_identity_spectrum(self, capsys, tmp_path):
        code, report = run(capsys, "spectrum", str(SPEC_DIR / "identity2.json"))
        assert code == EXIT_OK
        assert report["results"]["singular_values"] == pytest.approx([1.0, 1.0])

    def test_malformed_json_names_byte_offset(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "input_dist": [0.5, 0.5], ')
        code = main(["spectrum", str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert "byte offset" in err

    def test_degenerate_output_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "degenerate.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "dead output",
                    "input_dist": [0.5, 0.5],
                    "channel": [[1.0, 1.0], [0.0, 0.0]],
                }
            )
        )
        assert main(["spectrum", str(spec)]) == EXIT_DEGENERATE


class TestCoupleCommand:
    def test_p2p_zero_epsilon(self, capsys):
        code, report = run(
            capsys,
            "couple",
            str(SPEC_DIR / "bsc01.json"),
            "--mode",
            "p2p",
            "--epsilon",
            "0",
        )
        assert code == EXIT_OK
        assert report["results"]["rate"]["nats"] == 0.0
        assert report["results"]["rate"]["bits"] == 0.0

    def test_windmill_broadcast(self, capsys):
        code, report = run(
            capsys,
            "couple",
            str(SPEC_DIR / "windmill_delta01.json"),
            "--mode",
            "broadcast",
            "--single-direction",
        )
        assert code == EXIT_OK
        res = report["results"]
        assert res["lambda"] == pytest.approx(0.213333, abs=1e-6)
        assert np.max(np.abs(np.array(res["dual_weights"]) - 1 / 3)) <= 1e-3
        assert res["duality_gap"] <= 1e-7
        assert res["single_direction"]["lambda_b"] <= 0.106667 + 1e-6

    def test_adder_mac(self, capsys):
        code, report = run(capsys, "couple", str(SPEC_DIR / "adder_mac.json"), "--mode", "mac")
        assert code == EXIT_OK
        res = report["results"]
        assert res["gain_db"] == pytest.approx(3.0103, abs=1e-3)
        assert res["sigma_common"] == pytest.approx(1.0, abs=1e-10)

    def test_xor_mac_is_degenerate(self, capsys, tmp_path):
        spec = tmp_path / "xor_mac.json"
        spec.write_text(
            json.dumps(
                {
                    "transmitters": [{"input_dist": [0.5, 0.5]}, {"input_dist": [0.5, 0.5]}],
                    "joint_channel": [1, 0, 0, 1, 0, 1, 1, 0],
                }
            )
        )
        code = main(["couple", str(spec), "--mode", "mac"])
        captured = capsys.readouterr()
        assert code == EXIT_DEGENERATE
        assert captured.out == ""
        assert captured.err.startswith("numeric degeneracy:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_mode_mismatch_exit_code(self, capsys):
        code = main(["couple", str(SPEC_DIR / "adder_mac.json"), "--mode", "p2p"])
        assert code == EXIT_CONSTRAINT

    def test_too_small_alphabet_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "one_output.json"
        spec.write_text(json.dumps({"input_dist": [0.5, 0.5], "channel": [[1.0, 1.0]]}))
        code = main(["couple", str(spec), "--mode", "p2p"])
        err = capsys.readouterr().err
        assert code == EXIT_CONSTRAINT
        assert err.startswith("constraint violation:")
        assert len(err.strip().splitlines()) == 1

    def test_broadcast_requires_shared_inputs(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(
            json.dumps(
                {"input_dist": [0.4, 0.6], "channel": [[0.9, 0.1], [0.1, 0.9]]}
            )
        )
        code = main(
            [
                "couple",
                str(SPEC_DIR / "bsc01.json"),
                str(other),
                "--mode",
                "broadcast",
            ]
        )
        assert code == EXIT_CONSTRAINT


class TestVerifyCommand:
    def test_tensor_suite_passes(self, capsys):
        code, report = run(capsys, "verify", "--suite", "tensor", "--seed", "42", "--budget", "100")
        assert code == EXIT_OK
        assert report["results"]["all_passed"] is True

    def test_oracle_suite_passes(self, capsys):
        code, report = run(capsys, "verify", "--suite", "oracle", "--seed", "42", "--budget", "60")
        assert code == EXIT_OK
        names = [c["name"] for c in report["results"]["checks"]]
        assert "ace_matches_spectrum" in names

    def test_injected_corruption_fails(self, capsys):
        code = main(
            ["verify", "--suite", "tensor", "--seed", "42", "--budget", "60", "--inject-corruption"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_CHECK_FAILED
        assert "first failing check" in err


    def test_closed_stdout(self):
        # the reader is gone before the report is written: one stderr line
        # and exit 1, not a traceback
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "infocoupling.cli", "verify", "--suite", "tensor", "--budget", "20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_CHECK_FAILED
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("error: stdout was closed")


class TestLayeredCommand:
    def test_plan_rate(self, capsys):
        code, report = run(capsys, "layered", "--eta", "0.05", "--gamma", "0.02")
        assert code == EXIT_OK
        assert report["results"]["total_rate"]["nats"] == pytest.approx(0.00522, abs=1e-12)
        assert report["results"]["total_rate"]["bits"] == pytest.approx(
            0.00522 / math.log(2), abs=1e-12
        )

    def test_simulation_reproducible(self, capsys):
        args = [
            "layered", "--eta", "0.2", "--gamma", "0.1", "--simulate",
            "--n1", "100", "--k1", "20", "--n2", "25", "--k2", "4",
            "--trials", "20", "--seed", "5",
        ]
        code1, rep1 = run(capsys, *args)
        code2, rep2 = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert rep1["results"]["simulation"] == rep2["results"]["simulation"]
        assert rep1["seeds"]["simulation_seed"] == 5

    def test_regime_violation_exit_code(self, capsys):
        assert main(["layered", "--eta", "0.02", "--gamma", "0.05"]) == EXIT_CONSTRAINT


class TestReports:
    def test_round_trip(self, capsys):
        code, report = run(capsys, "spectrum", str(SPEC_DIR / "ternary_eta02_gamma01.json"))
        text = dump_report(report)
        assert load_report(text) == report

    def test_byte_identical_up_to_wall_time(self, capsys):
        argv = ["verify", "--suite", "tensor", "--seed", "9", "--budget", "60"]
        main(argv)
        text1 = capsys.readouterr().out
        main(argv)
        text2 = capsys.readouterr().out
        r1, r2 = json.loads(text1), json.loads(text2)
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert dump_report(r1) == dump_report(r2)


class TestSpecParsing:
    def test_shipped_specs_parse(self):
        for path in SPEC_DIR.glob("*.json"):
            spec = parse_channel_spec(str(path))
            assert spec["kind"] in ("channel", "mac")

    def test_column_tolerance(self, tmp_path):
        spec = tmp_path / "loose.json"
        spec.write_text(
            json.dumps(
                {
                    "input_dist": [0.5, 0.5],
                    "channel": [[0.9 + 5e-10, 0.1], [0.1, 0.9]],
                }
            )
        )
        parsed = parse_channel_spec(str(spec))
        assert parsed["kind"] == "channel"

    def test_loose_columns_are_renormalized(self, capsys, tmp_path):
        bsc = {"input_dist": [0.5, 0.5], "channel": [[0.9 + 1e-10, 0.1], [0.1, 0.9]]}
        adder = json.loads((SPEC_DIR / "adder_mac.json").read_text())
        adder["joint_channel"][0] += 1e-10
        for body, mode in ((bsc, "p2p"), (adder, "mac")):
            path = tmp_path / f"loose_{mode}.json"
            path.write_text(json.dumps(body))
            code, report = run(capsys, "couple", str(path), "--mode", mode)
            assert code == EXIT_OK, body
        assert report["results"]["gain_db"] == pytest.approx(3.0103, abs=1e-3)
        parsed = parse_channel_spec(str(tmp_path / "loose_p2p.json"))
        assert np.max(np.abs(parsed["channels"][0].entries.sum(axis=0) - 1.0)) <= 1e-15

    def test_non_numeric_and_non_finite_entries(self, capsys, tmp_path):
        bad_entries = ["a", float("nan"), float("inf")]
        specs = []
        for entry in bad_entries:
            specs.append(
                ("spectrum", {"input_dist": [0.5, 0.5], "channel": [[entry, 0.1], [0.1, 0.9]]})
            )
            specs.append(("spectrum", {"input_dist": [entry, 0.5], "channel": [[0.9, 0.1], [0.1, 0.9]]}))
            specs.append(
                (
                    "mac",
                    {
                        "transmitters": [{"input_dist": [0.5, 0.5]}, {"input_dist": [0.5, 0.5]}],
                        "joint_channel": [entry, 1, 1, 0, 0, 0, 0, 1],
                    },
                )
            )
        for i, (kind, body) in enumerate(specs):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(body))
            argv = ["spectrum", str(path)] if kind == "spectrum" else ["couple", str(path), "--mode", "mac"]
            code = main(argv)
            err = capsys.readouterr().err
            assert code == EXIT_PARSE, (body, err)
            assert err.startswith("parse error:")
            assert len(err.strip().splitlines()) == 1

    def test_mac_transmitters_must_be_objects(self, capsys, tmp_path):
        bad = [[1, 2], [], "x", {"input_dist": [0.5, 0.5]}, [{"input_dist": [0.5, 0.5]}, None]]
        for i, transmitters in enumerate(bad):
            path = tmp_path / f"mac{i}.json"
            path.write_text(
                json.dumps({"transmitters": transmitters, "joint_channel": [1, 0, 0, 1]})
            )
            code = main(["couple", str(path), "--mode", "mac"])
            err = capsys.readouterr().err
            assert code == EXIT_PARSE, (transmitters, err)
            assert err.startswith("parse error:")
            assert len(err.strip().splitlines()) == 1
