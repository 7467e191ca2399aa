import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coniccond.cli
from coniccond import InconsistentClassification, NumericalFailure
from coniccond.cli import main
from coniccond.harness import read_matrix

SQ2 = math.sqrt(2.0)


@pytest.fixture
def a_eps_file(tmp_path):
    path = tmp_path / "a_eps.txt"
    path.write_text("# eps = 0.1\n0.2 1 1\n0 -1 1\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_json_report(self, capsys, a_eps_file):
        code, out, _ = run(capsys, ["analyze", "--cone", "orthant:3", "--matrix", a_eps_file, "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["gcc"] == pytest.approx(SQ2, abs=1e-9)
        assert report["status"] == "dual_strict"
        assert report["renegar"]["kind"] == "exact"

    def test_multistart_dual_route_is_heuristic(self, capsys, tmp_path):
        # A dual strict lorentz:5 instance: its dual-route minimum comes from
        # multistart, so R(A) is a heuristic point estimate, not "exact".
        path = tmp_path / "lorentz.txt"
        np.savetxt(path, np.random.default_rng(3).standard_normal((2, 5)), fmt="%.17g")
        code, out, _ = run(capsys, ["analyze", "--cone", "lorentz:5", "--matrix", str(path),
                                    "--json"])
        assert code == 0
        renegar = json.loads(out)["renegar"]
        assert set(renegar) == {"kind", "lower", "upper", "basis"}
        assert (renegar["kind"], renegar["basis"]) == ("heuristic", "dual-route-multistart")
        assert renegar["lower"] == renegar["upper"] == pytest.approx(3.4233, abs=1e-4)

    def test_human_report(self, capsys, a_eps_file):
        code, out, _ = run(capsys, ["analyze", "--cone", "orthant:3", "--matrix", a_eps_file])
        assert code == 0
        assert "status    : dual_strict" in out
        assert "gcc" in out

    def test_witness_flag(self, capsys, a_eps_file):
        code, out, _ = run(capsys, ["analyze", "--cone", "orthant:3", "--matrix", a_eps_file,
                                    "--json", "--witness"])
        report = json.loads(out)
        assert report["witnesses"][0]["property"] == "flips_to_primal"

    def test_strict_ill_posed_exit(self, capsys, tmp_path):
        path = tmp_path / "touch.txt"
        path.write_text("2 0\n")
        code, _, _ = run(capsys, ["analyze", "--cone", "orthant:2", "--matrix", str(path), "--strict"])
        assert code == 4
        code, _, _ = run(capsys, ["analyze", "--cone", "orthant:2", "--matrix", str(path)])
        assert code == 0

    def test_deterministic_output(self, capsys, a_eps_file):
        argv = ["analyze", "--cone", "orthant:3", "--matrix", a_eps_file, "--json", "--seed", "3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


    def test_human_report_with_interval_and_witness(self, capsys, tmp_path):
        path = tmp_path / "primal.txt"
        path.write_text("1 -2 0.5 0\n0 1 -1.5 -0.4\n")
        code, out, _ = run(capsys, ["analyze", "--cone", "orthant:4", "--matrix", str(path),
                                    "--witness"])
        assert code == 0
        assert "status    : primal_strict" in out
        assert "renegar   : [3.20869084421" in out and "(sandwich)" in out
        assert "witness   : image_contains on balanced_representative, frob_norm 0.311654" in out


class TestDistance:
    def test_orthogonal_planes(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 0 0 0\n0 1 0 0\n")
        b.write_text("1 0 0 0\n0 0 1 0\n")
        code, out, _ = run(capsys, ["distance", "--a", str(a), "--b", str(b), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["d_p"] == pytest.approx(1.0, abs=1e-12)
        assert payload["d_H"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert payload["angles"][0] == pytest.approx(0.0, abs=1e-7)

    def test_human_output(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 0 0\n")
        b.write_text("0 1 0\n")
        code, out, _ = run(capsys, ["distance", "--a", str(a), "--b", str(b)])
        assert code == 0
        assert out.splitlines() == ["angles : 1.57079632679", "d_p    : 1", "d_g    : 1.57079632679",
                                    "d_H    : 1.57079632679"]


class TestPrecondition:
    def test_balances_diagonal(self, capsys, tmp_path):
        src = tmp_path / "a.txt"
        out_path = tmp_path / "b.txt"
        src.write_text("2 0 0\n0 3 0\n")
        code, _, _ = run(capsys, ["precondition", "--matrix", str(src), "--out", str(out_path)])
        assert code == 0
        np.testing.assert_allclose(read_matrix(out_path), [[1, 0, 0], [0, 1, 0]], atol=1e-12)


class TestExperiment:
    def test_runs_and_writes(self, capsys, tmp_path):
        out = tmp_path / "rec.jsonl"
        code, stdout, _ = run(capsys, ["experiment", "--n", "4", "--m", "2",
                                       "--trials", "20", "--seed", "9", "--out", str(out)])
        assert code == 0
        assert "trials=20" in stdout
        assert "sandwich_failures=0" in stdout
        assert len(out.read_text().splitlines()) == 20


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, ["bogus"])
        assert code == 1

    def test_bad_cone_spec(self, capsys, a_eps_file):
        code, _, err = run(capsys, ["analyze", "--cone", "simplex:3", "--matrix", a_eps_file])
        assert code == 1
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, ["analyze", "--cone", "orthant:3", "--matrix", "/nonexistent.txt"])
        assert code == 1

    def test_dimension_mismatch(self, capsys, a_eps_file):
        code, _, _ = run(capsys, ["analyze", "--cone", "orthant:5", "--matrix", a_eps_file])
        assert code == 3

    def test_rank_deficient(self, capsys, tmp_path):
        path = tmp_path / "rank1.txt"
        path.write_text("1 0 0\n2 0 0\n")
        code, _, _ = run(capsys, ["analyze", "--cone", "orthant:3", "--matrix", str(path)])
        assert code == 3

    def test_bad_matrix_body(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nthree 4\n")
        code, _, _ = run(capsys, ["analyze", "--cone", "orthant:2", "--matrix", str(path)])
        assert code == 1

    @pytest.mark.parametrize("error", [NumericalFailure, InconsistentClassification])
    def test_solver_fault_exits_numerical(self, capsys, monkeypatch, a_eps_file, error):
        def fail(*args, **kwargs):
            raise error("solver fault")

        monkeypatch.setattr(coniccond.cli, "condition_report", fail)
        code, _, err = run(capsys, ["analyze", "--cone", "orthant:3", "--matrix", a_eps_file])
        assert code == 2
        assert err == "numerical failure: solver fault\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "analyze" in out

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
        result = subprocess.run([sys.executable, "-m", "coniccond.cli", "bogus"], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
