import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infocoupling import errors
from infocoupling.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONSTRAINT,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARSE,
    SpecError,
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
        assert err == (
            "parse error: invalid JSON at byte offset 40: "
            "Expecting property name enclosed in double quotes\n"
        )

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

    @pytest.mark.parametrize("name", ["windmill_delta01.json", "adder_mac.json"])
    def test_spectrum_of_a_spec_of_the_wrong_kind(self, name, capsys):
        # a well-formed multi-channel or MAC spec is a constraint violation, as in couple --mode p2p
        code = main(["spectrum", str(SPEC_DIR / name)])
        captured = capsys.readouterr()
        assert code == EXIT_CONSTRAINT
        assert captured.out == ""
        assert captured.err == "constraint violation: spectrum expects a single-channel spec\n"


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

    def test_broadcast_with_mismatched_alphabets(self):
        # a binary and a ternary receiver: one constraint line, no traceback
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "infocoupling.cli",
                "couple",
                str(SPEC_DIR / "bsc01.json"),
                str(SPEC_DIR / "ternary_eta02_gamma01.json"),
                "--mode",
                "broadcast",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == EXIT_CONSTRAINT
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            "constraint violation: receivers do not share the input alphabet"
        ]


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

    @pytest.mark.parametrize("n1", ["0", "401"])
    def test_block_configuration_exit_code(self, capsys, n1):
        # n1 = 0 is not a positive size; n1 = 401 breaks n2 * k2 == n1
        code = main(["layered", "--eta", "0.2", "--gamma", "0.1", "--simulate", "--n1", n1])
        captured = capsys.readouterr()
        assert code == EXIT_CONSTRAINT
        assert captured.out == ""
        assert captured.err.startswith("constraint violation:")
        assert len(captured.err.strip().splitlines()) == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", str(SPEC_DIR / "bsc01.json")],
        ["couple", str(SPEC_DIR / "bsc01.json"), "--mode", "p2p"],
        ["verify", "--suite", "tensor", "--budget", "20"],
        ["layered", "--eta", "0.2", "--gamma", "0.1"],
    ],
)
def test_output_flag_writes_the_stdout_report(argv, capsys, tmp_path):
    path = tmp_path / "report.json"
    assert main(argv) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert main([*argv, "--output", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    written = json.loads(path.read_text())
    assert written.pop("command") == ["infocoupling", *argv, "--output", str(path)]
    for report in (printed, written):
        report.pop("wall_time_s")
    printed.pop("command")
    assert dump_report(written) == dump_report(printed)


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


# the whole mapping written out, so a new error class must be given its code on purpose
EXIT_TABLE = {
    "InfoCouplingError": (EXIT_CHECK_FAILED, "error"),
    "SpecError": (EXIT_PARSE, "parse error"),
    "DegenerateOutputError": (EXIT_DEGENERATE, "numeric degeneracy"),
    "SingularWeightError": (EXIT_DEGENERATE, "numeric degeneracy"),
    "ConfigurationError": (EXIT_CONSTRAINT, "constraint violation"),
    "DimensionMismatchError": (EXIT_CONSTRAINT, "constraint violation"),
    "InputMismatchError": (EXIT_CONSTRAINT, "constraint violation"),
    "InvalidDistributionError": (EXIT_CONSTRAINT, "constraint violation"),
    "RegimeError": (EXIT_CONSTRAINT, "constraint violation"),
    "BudgetError": (EXIT_CHECK_FAILED, "error"),
    "CapacityError": (EXIT_CHECK_FAILED, "error"),
    "DegenerateLayerError": (EXIT_CHECK_FAILED, "error"),
    "InfeasibleError": (EXIT_CHECK_FAILED, "error"),
    "ResolutionError": (EXIT_CHECK_FAILED, "error"),
}


def _package_errors(cls=errors.InfoCouplingError):
    found = {cls} if cls.__module__.startswith("infocoupling.") else set()
    return found.union(*(_package_errors(sub) for sub in cls.__subclasses__()))


def test_every_error_class_names_its_exit_code():
    table = {cls.__name__: (cls.exit_code, cls.label) for cls in _package_errors()}
    assert table == EXIT_TABLE
    assert SpecError is errors.SpecError


def _one_line_failure(capsys, argv, code):
    """Runs ``main(argv)``, expecting ``code``, an empty stdout and one
    stderr line; returns that line."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    return lines[0]


class TestForeignFailures:
    """A spec or ``--output`` path that cannot be read, parsed or written
    is one parse-error line.  All but the missing directory printed a
    traceback and exited 1."""

    def test_spec_path_is_a_directory(self, capsys):
        line = _one_line_failure(capsys, ["spectrum", str(SPEC_DIR)], EXIT_PARSE)
        assert line.startswith("parse error: [Errno")

    @pytest.mark.parametrize(
        "content",
        [
            b'{"name": "caf\xe9", "input_dist": [1.0], "channel": [[1.0]]}',  # not UTF-8
            b"[" * 5000 + b"]" * 5000,  # nested deeper than the JSON decoder recurses
            # 400 digits overflow the float conversion; 5000 exceed Python's int parsing limit
            b'{"input_dist": [%s, 0.5], "channel": [[1, 0], [0, 1]]}' % (b"1" * 400),
            b'{"input_dist": [%s, 0.5], "channel": [[1, 0], [0, 1]]}' % (b"1" * 5000),
        ],
        ids=["latin1", "deep", "400-digits", "5000-digits"],
    )
    def test_unreadable_spec(self, content, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        line = _one_line_failure(capsys, ["spectrum", str(path)], EXIT_PARSE)
        assert line.startswith("parse error:")

    def test_output_is_a_directory(self, capsys, tmp_path):
        argv = ["layered", "--eta", "0.2", "--gamma", "0.1", "--output", str(tmp_path)]
        line = _one_line_failure(capsys, argv, EXIT_PARSE)
        assert line.startswith("parse error: [Errno")

    def test_output_in_a_missing_directory(self, capsys, tmp_path):
        argv = ["layered", "--eta", "0.2", "--gamma", "0.1", "--output", str(tmp_path / "no" / "r.json")]
        line = _one_line_failure(capsys, argv, EXIT_PARSE)
        assert line.startswith("parse error: [Errno 2]")


class TestSchemaRefusals:
    """Specs that ``docs/channel_spec_schema.json`` refuses and that the
    parser used to run."""

    BSC = {"input_dist": [0.5, 0.5], "channel": [[0.9, 0.1], [0.1, 0.9]]}
    MAC = {
        "transmitters": [{"input_dist": [0.5, 0.5]}, {"input_dist": [0.5, 0.5]}],
        "joint_channel": [1, 0, 0, 1, 0, 1, 1, 0],
    }

    @pytest.mark.parametrize(
        "body, message",
        [
            (dict(BSC, channels=[[[1, 0], [0, 1]]]), "spec has both 'channel' and 'channels'"),
            (dict(BSC, name=5), "'name' must be a string"),
            (dict(BSC, channel=[[True, False], [False, True]]), "channel must hold numbers only"),
            (dict(BSC, input_dist=[True, False]), "input_dist must hold numbers only"),
            (dict(BSC, input_dist=["0.5", "0.5"]), "input_dist must hold numbers only"),
            ({"input_dist": [0.5, 0.5], "channels": []}, "'channels' must be a non-empty list"),
            (dict(MAC, joint_channel=[[1, 0, 0, 1], [0, 1, 1, 0]]), "joint_channel must be a flat list"),
            (dict(MAC, joint_channel=[1, 0, 0, 1, 0, 1, 1, False]), "joint_channel must hold numbers only"),
            # columns sum to 1, and the marginal channels average the -0.5 away
            (dict(MAC, joint_channel=[1.5, 0, 0, 1, -0.5, 1, 1, 0]), "joint_channel entries must be non-negative"),
            (dict(MAC, **BSC), "spec is both a channel spec and a MAC spec"),
        ],
    )
    def test_refused_with_one_line(self, body, message, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(body))
        mode = "mac" if "transmitters" in body else "p2p"
        for argv in (["spectrum", str(path)], ["couple", str(path), "--mode", mode]):
            line = _one_line_failure(capsys, argv, EXIT_PARSE)
            assert line.startswith(f"parse error: {message}"), line

    def test_mac_spec_may_carry_an_unused_channel(self, capsys, tmp_path):
        # the schema's oneOf refuses a spec only when both kinds are complete
        adder = json.loads((SPEC_DIR / "adder_mac.json").read_text())
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(adder, channel=[[1, 0], [0, 1]])))
        assert main(["couple", str(path), "--mode", "mac"]) == EXIT_OK


def test_schema_accepts_shipped_and_loose_specs():
    # entries may exceed 1 by the parser's 1e-9 column tolerance, as in
    # the loose specs of test_loose_columns_are_renormalized
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SPEC_DIR.parent / "docs" / "channel_spec_schema.json").read_text())
    specs = [json.loads(path.read_text()) for path in sorted(SPEC_DIR.glob("*.json"))]
    bsc = {"input_dist": [0.5, 0.5], "channel": [[0.9 + 1e-10, 0.1], [0.1, 0.9]]}
    adder = json.loads((SPEC_DIR / "adder_mac.json").read_text())
    adder["joint_channel"][0] += 1e-10
    assert specs
    for spec in specs + [bsc, adder]:
        jsonschema.validate(spec, schema)
