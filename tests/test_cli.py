"""Serialization round-trips, CLI exit codes, and report determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import degradability
from degradability import jsonio
from degradability.channels import QuantumChannel, depolarizing, epsilon_scan
from degradability.cli import build_parser, main
from degradability.feasibility import KrausSet, decide, verify_channel
from degradability.linalg import COMPLETENESS_TOL
from degradability.states import TripartiteState, build_fixture, extract_blocks
from helpers import crandn, random_state_vector, rng


def write_state(path: Path, state: TripartiteState) -> Path:
    path.write_text(jsonio.dumps(jsonio.state_to_obj(state)) + "\n", encoding="utf-8")
    return path


def write_channel(path: Path, channel: QuantumChannel) -> Path:
    path.write_text(jsonio.dumps(jsonio.channel_to_obj(channel)) + "\n", encoding="utf-8")
    return path


def random_state(seed: int, dims: tuple[int, int, int] = (2, 2, 2)) -> TripartiteState:
    n, p, q = dims
    return TripartiteState(dims, random_state_vector(rng(seed), n * p * q))


class TestDumps:
    def test_scalar_forms(self) -> None:
        assert jsonio.dumps(None) == "null"
        assert jsonio.dumps(True) == "true"
        assert jsonio.dumps(7) == "7"
        assert jsonio.dumps("a\"b") == '"a\\"b"'
        assert jsonio.dumps([1, [2.5]]) == "[1,[2.5]]"
        assert jsonio.dumps({"k": 1, "j": 2}) == '{"k":1,"j":2}'

    @pytest.mark.parametrize("x", [0.1, 1 / 3, 1e-300, 1e300, -0.0, 123456789.123456789])
    def test_floats_round_trip_exactly(self, x: float) -> None:
        assert json.loads(jsonio.dumps(x)) == x

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(float("inf"))

    def test_loads_reports_line_and_column(self) -> None:
        with pytest.raises(ValueError, match="line 2 column"):
            jsonio.loads('{"dims": [2, 2, 2],\n "amplitudes": [[1,')


class TestStateSchema:
    def test_round_trip_preserves_amplitudes_exactly(self) -> None:
        state = random_state(0)
        back = jsonio.state_from_obj(json.loads(jsonio.dumps(jsonio.state_to_obj(state))))
        assert back.dims == state.dims
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_missing_field_names_the_field(self) -> None:
        with pytest.raises(jsonio.SchemaError, match="'amplitudes'"):
            jsonio.state_from_obj({"dims": [2, 2, 2]})

    def test_bad_dims_rejected(self) -> None:
        with pytest.raises(jsonio.SchemaError, match="dims"):
            jsonio.state_from_obj({"dims": [2, 2], "amplitudes": []})
        with pytest.raises(jsonio.SchemaError, match="dims"):
            jsonio.state_from_obj({"dims": [2, 2, 0], "amplitudes": []})

    def test_wrong_amplitude_count_rejected(self) -> None:
        with pytest.raises(jsonio.SchemaError, match="8"):
            jsonio.state_from_obj({"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 5})

    def test_non_pair_entries_rejected(self) -> None:
        with pytest.raises(jsonio.SchemaError, match="re, im"):
            jsonio.state_from_obj({"dims": [1, 1, 2], "amplitudes": [[1.0], [0.0, 0.0]]})


class TestChannelSchema:
    def test_round_trip_preserves_kraus_exactly(self) -> None:
        ch = depolarizing(0.3)
        back = jsonio.channel_from_obj(json.loads(jsonio.dumps(jsonio.channel_to_obj(ch))))
        assert back.kraus.r == 4
        for F, G in zip(back.kraus.operators, ch.kraus.operators):
            assert np.array_equal(F, G)

    def test_shape_mismatch_names_operator(self) -> None:
        obj = jsonio.channel_to_obj(depolarizing(0.3))
        obj["kraus"][2] = [[[1.0, 0.0]]]
        with pytest.raises(jsonio.SchemaError, match=r"kraus\[2\]"):
            jsonio.channel_from_obj(obj)

    def test_empty_kraus_list_rejected(self) -> None:
        with pytest.raises(jsonio.SchemaError, match="non-empty"):
            jsonio.kraus_from_obj({"in_dim": 2, "out_dim": 2, "kraus": []})

    def test_non_cptp_rejected_with_defect(self) -> None:
        obj = {
            "in_dim": 2,
            "out_dim": 2,
            "kraus": [[[[1.005, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        }
        with pytest.raises(ValueError, match="trace preserving"):
            jsonio.channel_from_obj(obj)


class TestParser:
    def test_defaults(self) -> None:
        args = build_parser().parse_args(["analyze-state", "s.json"])
        assert (args.max_iter, args.witnesses, args.seed) == (20000, 200, 0)
        assert (args.direction, args.format) == ("both", "text")

    @pytest.mark.parametrize(
        "flags",
        [["--direction", "up"], ["--format", "xml"], ["--feas-tol", "1e-6"], ["--seed", "-1"]],
        ids=["direction", "format", "feas-tol", "seed"],
    )
    def test_rejects_bad_flags(self, tmp_path: Path, capsys, flags: list[str]) -> None:
        path = write_state(tmp_path / "s.json", build_fixture("ghz"))
        assert main(["analyze-state", str(path), *flags]) == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyzeState:
    def test_example2_both_directions_feasible(self, tmp_path: Path, capsys) -> None:
        path = write_state(tmp_path / "s.json", build_fixture("example2", a=0.5, b=0.5))
        rc = main(["analyze-state", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("Feasible") == 2
        assert "elapsed" in out

    def test_asymmetric_example2_splits_by_direction(self, tmp_path: Path, capsys) -> None:
        a, b = np.sqrt(0.4), np.sqrt(0.1)
        path = write_state(tmp_path / "s.json", build_fixture("example2", a=a, b=b))
        rc = main(["analyze-state", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["results"]["EtoB"]["status"] == "Feasible"
        assert report["results"]["BtoE"]["status"] == "RuledOut"

    def test_ghz_decided_by_rank_one_stage(self, tmp_path: Path, capsys) -> None:
        path = write_state(tmp_path / "s.json", build_fixture("ghz"))
        rc = main(["analyze-state", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        for direction in ("EtoB", "BtoE"):
            assert report["results"][direction]["status"] == "Feasible"
            assert report["results"][direction]["stage"] == "rank_one"

    def test_feasible_certificate_reverifies_on_load(self, tmp_path: Path, capsys) -> None:
        state = build_fixture("example2", a=0.5, b=0.5)
        path = write_state(tmp_path / "s.json", state)
        main(["analyze-state", str(path), "--direction", "EtoB", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        cert = jsonio.kraus_from_obj(report["results"]["EtoB"]["certificate"])
        assert verify_channel(cert, extract_blocks(state.unit())) <= 1e-7

    def test_report_echoes_config(self, tmp_path: Path, capsys) -> None:
        path = write_state(tmp_path / "s.json", build_fixture("ghz"))
        main(["analyze-state", str(path), "--format", "json", "--max-iter", "77", "--seed", "3"])
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["max_iter"] == 77
        assert report["config"]["seed"] == 3
        assert report["config"]["verify_tol"] == 1e-7
        assert report["config"]["rank_tol"] == 1e-10

    def test_inconclusive_exits_two_and_reports_stall(self, tmp_path: Path, capsys) -> None:
        # After one iteration the affine point of this (2,2,3) state is not
        # PSD, so the run ends on its budget without a certificate.
        path = write_state(tmp_path / "s.json", random_state(1, (2, 2, 3)))
        rc = main(
            ["analyze-state", str(path), "--direction", "EtoB", "--max-iter", "1", "--witnesses", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 2
        assert "Inconclusive" in out
        assert "stall residual" in out

    def test_psd_affine_point_certifies_at_one_iteration(self, tmp_path: Path, capsys) -> None:
        # The affine projection of the first cone iterate is already PSD here,
        # so one iteration yields a certificate that re-verifies from the JSON.
        state = random_state(0)
        path = write_state(tmp_path / "s.json", state)
        rc = main(
            ["analyze-state", str(path), "--direction", "EtoB", "--max-iter", "1",
             "--witnesses", "0", "--format", "json"]
        )
        result = json.loads(capsys.readouterr().out)["results"]["EtoB"]
        assert rc == 0
        assert (result["status"], result["stage"], result["iterations"]) == ("Feasible", "sdp", 1)
        assert result["detail"].startswith("affine point PSD after 1 iterations")
        cert = jsonio.kraus_from_obj(result["certificate"])
        assert verify_channel(cert, extract_blocks(state.unit())) <= 1e-7
        assert cert.completeness_defect() <= COMPLETENESS_TOL

    def test_json_reports_are_byte_identical(self, tmp_path: Path) -> None:
        path = write_state(tmp_path / "s.json", random_state(1))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze-state", str(path), "--format", "json", "--out", str(out1)]) == 0
        assert main(["analyze-state", str(path), "--format", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_truncated_json_exits_one(self, tmp_path: Path, capsys) -> None:
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2, 2], "ampl', encoding="utf-8")
        rc = main(["analyze-state", str(path)])
        assert rc == 1
        assert "line 1 column" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path: Path, capsys) -> None:
        rc = main(["analyze-state", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyzeChannel:
    def test_depolarizing_ruled_out_with_witness(self, tmp_path: Path, capsys) -> None:
        path = write_channel(tmp_path / "c.json", depolarizing(0.1))
        rc = main(["analyze-channel", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["label"] == "ruled_out_for_filtered_inputs"
        assert report["results"]["EtoB"]["filter_witness"]["violated"] is True
        assert "invertible" in report["scope"]

    def test_identity_channel_degradable(self, tmp_path: Path, capsys) -> None:
        ch = QuantumChannel(KrausSet([np.eye(2, dtype=complex)]))
        path = write_channel(tmp_path / "c.json", ch)
        rc = main(["analyze-channel", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degradable_certified" in out

    def test_non_cptp_file_exits_one_with_defect(self, tmp_path: Path, capsys) -> None:
        obj = jsonio.channel_to_obj(depolarizing(0.2))
        obj["kraus"][0][0][0] = [1.01, 0.0]
        path = tmp_path / "c.json"
        path.write_text(jsonio.dumps(obj), encoding="utf-8")
        rc = main(["analyze-channel", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "trace preserving" in err
        assert "defect" in err

    def test_non_finite_kraus_file_exits_one(self, tmp_path: Path, capsys) -> None:
        obj = jsonio.channel_to_obj(depolarizing(0.2))
        text = jsonio.dumps(obj).replace("[0,0]", "[NaN,0]", 1)
        assert "NaN" in text
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")
        rc = main(["analyze-channel", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Kraus set contains non-finite entries" in err
        assert "amplitudes" not in err

    def test_channel_reports_byte_identical(self, tmp_path: Path) -> None:
        path = write_channel(tmp_path / "c.json", depolarizing(0.3))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze-channel", str(path), "--format", "json", "--out", str(out1)]) == 0
        assert main(["analyze-channel", str(path), "--format", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestScanCommand:
    def test_csv_shape_and_threshold_line(self, capsys) -> None:
        rc = main(["scan", "depolarizing", "--lo", "0.2", "--hi", "0.3", "--step", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,d_R,d_S,verdict,qber"
        assert len(lines) == 13
        assert lines[-1] == "# threshold: 0.24 < eps* <= 0.25 (midpoint 0.245)"
        assert "\r" not in out

    def test_csv_row_values_at_eps_point_one(self, capsys) -> None:
        main(["scan", "depolarizing", "--lo", "0.1", "--hi", "0.12", "--step", "0.01"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "0.1"
        assert float(row[1]) == pytest.approx(0.4131, abs=5e-4)
        assert float(row[2]) == pytest.approx(0.8667, abs=5e-4)
        assert row[3] == "RuledOut"
        assert float(row[4]) == pytest.approx(1 / 15, abs=1e-12)

    def test_json_format_carries_rows_and_bracket(self, capsys) -> None:
        rc = main(["scan", "depolarizing", "--lo", "0.2", "--hi", "0.3", "--step", "0.05", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["bracket"] == [0.2, 0.25]
        assert report["threshold"] == pytest.approx(0.225)
        assert [r["epsilon"] for r in report["rows"]] == [0.2, 0.25, 0.3]

    def test_bad_range_exits_one(self, capsys) -> None:
        assert main(["scan", "depolarizing", "--lo", "0.4", "--hi", "0.2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFixtureCommand:
    def test_ghz_two_nonzero_amplitudes(self, capsys) -> None:
        rc = main(["fixture", "ghz"])
        obj = json.loads(capsys.readouterr().out)
        assert rc == 0
        nonzero = [p for p in obj["amplitudes"] if p != [0.0, 0.0]]
        assert len(nonzero) == 2

    def test_example2_round_trip_matches_in_memory_analysis(self, tmp_path: Path, capsys) -> None:
        path = tmp_path / "f.json"
        assert main(["fixture", "example2", "--a", "0.5", "--b", "0.5", "--out", str(path)]) == 0
        loaded = jsonio.state_from_obj(json.loads(path.read_text(encoding="utf-8")))
        reference = build_fixture("example2", a=0.5, b=0.5)
        assert np.array_equal(loaded.amplitudes, reference.amplitudes)
        got = decide(loaded, "EtoB")
        want = decide(reference, "EtoB")
        assert (got.status, got.stage) == (want.status, want.stage)

    def test_sec4_accepts_squared_parameters(self, tmp_path: Path, capsys) -> None:
        path = tmp_path / "f.json"
        assert main(["fixture", "sec4", "--alpha2", "0.8", "--a2", "0.65", "--out", str(path)]) == 0
        loaded = jsonio.state_from_obj(json.loads(path.read_text(encoding="utf-8")))
        reference = build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65))
        assert loaded.dims == (3, 2, 2)
        assert np.allclose(loaded.amplitudes, reference.amplitudes, atol=1e-16)

    def test_depolarizing_fixture_is_channel_schema(self, capsys) -> None:
        assert main(["fixture", "depolarizing", "--eps", "0.1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        ch = jsonio.channel_from_obj(obj)
        assert ch.kraus.r == 4

    def test_invalid_example2_parameters_exit_one(self, capsys) -> None:
        assert main(["fixture", "example2", "--a", "0.9", "--b", "0.9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_name_exits_one(self, capsys) -> None:
        assert main(["fixture", "w_state"]) == 1
        assert "invalid choice" in capsys.readouterr().err


class TestOutcomeSerialization:
    def test_ruled_out_outcome_embeds_witness(self) -> None:
        outcome = decide(build_fixture("sec4", alpha=np.sqrt(0.8), a=np.sqrt(0.65)), "EtoB")
        obj = jsonio.outcome_to_obj(outcome)
        assert obj["status"] == "RuledOut"
        assert obj["certificate"] is None
        w = obj["filter_witness"]
        assert w["violated"] is True
        assert w["d_in"] < w["d_out"]
        lam = jsonio.pairs_to_complex_matrix(w["coefficients"], "coefficients")
        assert lam.shape == (3, 3)

    def test_scan_csv_helper_uses_lf_only(self) -> None:
        text = jsonio.scan_to_csv(epsilon_scan(0.2, 0.3, 0.05))
        assert text.endswith("\n") and "\r" not in text
        assert text.splitlines()[0] == "epsilon,d_R,d_S,verdict,qber"


def test_cli_import_needs_only_numpy() -> None:
    src = str(Path(degradability.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, degradability.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
