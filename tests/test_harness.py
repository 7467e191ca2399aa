import json
import math

import numpy as np
import pytest

import coniccond.harness
from coniccond import (
    DimensionError,
    ExperimentConfig,
    Feasibility,
    Orthant,
    classify_feasibility,
    condition_report,
    cone_subspace_angle,
    distance_to_primal_feasible,
    gaussian,
    grassmann_condition,
    oracle_cone_angle,
    oracle_perturbation_bracket,
    random_subspace,
    read_matrix,
    renegar_condition,
    run_experiment,
    subspace_from_rowspan,
    trial_stream,
    write_matrix,
)
from conftest import random_balanced, stream

SQ2 = math.sqrt(2.0)


class TestRng:
    def test_streams_are_deterministic_and_distinct(self):
        a = gaussian(trial_stream(7, 0), (4, 4))
        b = gaussian(trial_stream(7, 0), (4, 4))
        c = gaussian(trial_stream(7, 1), (4, 4))
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a - c) > 1e-3

    def test_gaussian_moments(self):
        z = gaussian(trial_stream(8, 0), (200_000,))
        assert abs(float(z.mean())) < 0.01
        assert float(z.std()) == pytest.approx(1.0, abs=0.01)

    def test_odd_count(self):
        assert gaussian(trial_stream(9, 0), (7,)).shape == (7,)


class TestMatrixIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        a = gaussian(trial_stream(10, 0), (3, 5))
        write_matrix(path, a)
        np.testing.assert_array_equal(read_matrix(path), a)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n1 2 3\n\n4 5 6 # trailing\n")
        np.testing.assert_allclose(read_matrix(path), [[1, 2, 3], [4, 5, 6]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ValueError):
            read_matrix(path)


class TestOracleConeAngle:
    def test_halfline_case(self):
        w = subspace_from_rowspan([[1.0, -1.0, 0.0]])
        estimate = oracle_cone_angle(Orthant(3), w, samples=1_000_000, seed=3)
        assert abs(estimate - math.pi / 4) <= 3e-2

    def test_interior_case(self):
        w = subspace_from_rowspan([[1.0, 1.0]])
        assert oracle_cone_angle(Orthant(2), w, samples=10_000, seed=4) <= 3e-2

    def test_never_below_exact(self):
        rng = stream(80)
        for trial in range(10):
            n, m = (4, 2) if trial % 2 else (6, 3)
            w = random_subspace(n, m, rng)
            exact = cone_subspace_angle(Orthant(n), w).angle
            estimate = oracle_cone_angle(Orthant(n), w, samples=20_000, seed=trial)
            assert estimate >= exact - 1e-12

    def test_gap_closes_at_scale(self):
        rng = stream(81)
        for trial in range(5):
            n, m = (4, 2) if trial % 2 else (6, 3)
            w = random_subspace(n, m, rng)
            exact = cone_subspace_angle(Orthant(n), w).angle
            estimate = oracle_cone_angle(Orthant(n), w, samples=1_000_000, seed=trial)
            assert estimate - exact <= 3e-2


class TestPerturbationBracket:
    def test_dual_balanced_matches_distance(self):
        b = np.array([[1 / SQ2, 1 / SQ2]])
        upper = oracle_perturbation_bracket(Orthant(2), b, budget=1000, seed=5)
        reference = distance_to_primal_feasible(Orthant(2), b)
        assert upper <= reference * 1.05
        assert abs(upper - reference) <= 0.05 * reference

    def test_ill_posed_shrinks_to_zero(self):
        upper = oracle_perturbation_bracket(Orthant(2), np.array([[2.0, 0.0]]), budget=1500, seed=6)
        assert upper <= 1e-4

    @pytest.mark.parametrize("a", [[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
                                   [[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]]],
                             ids=["dual_feasible", "ill_posed"])
    def test_rank_deficient_stays_an_upper_bound(self, a):
        # A rank-deficient A is dual feasible: only a full-rank probe that
        # leaves strict dual feasibility counts as a flip.
        a = np.array(a)
        upper = oracle_perturbation_bracket(Orthant(3), a, budget=1000)
        assert np.linalg.norm(a, 2) / upper <= renegar_condition(Orthant(3), a).value

    def test_primal_balanced_brackets_condition(self):
        rng = stream(82)
        found = 0
        for trial in range(50):
            b = random_balanced(rng, 2, 4)
            w = subspace_from_rowspan(b)
            status = classify_feasibility(Orthant(4), w)
            if status.tag is not Feasibility.PRIMAL_STRICT:
                continue
            found += 1
            upper = oracle_perturbation_bracket(Orthant(4), b, budget=1000, seed=trial)
            grassmann = grassmann_condition(Orthant(4), w).value
            assert np.linalg.norm(b, 2) / upper >= grassmann - 1e-6
            assert abs(upper - math.sin(status.primal_angle)) <= 0.05 * math.sin(status.primal_angle)
            if found >= 5:
                break
        assert found >= 3


class TestExperiment:
    def test_reference_run(self, tmp_path):
        out = tmp_path / "records.jsonl"
        cfg = ExperimentConfig(n=4, m=2, trials=100, seed=42, output_path=str(out))
        records = run_experiment(cfg)
        assert len(records) == 100
        assert all(r.status != "ill_posed" for r in records)
        assert all(r.sandwich_ok for r in records)
        lines = out.read_text().splitlines()
        assert len(lines) == 100
        parsed = json.loads(lines[0])
        assert set(parsed) == {"trial_index", "status", "grassmann", "kappa", "renegar", "sandwich_ok"}

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_experiment(ExperimentConfig(n=4, m=2, trials=50, seed=7, output_path=str(out1)))
        run_experiment(ExperimentConfig(n=4, m=2, trials=50, seed=7, output_path=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_trial(self):
        records = run_experiment(ExperimentConfig(n=5, m=2, trials=1, seed=1))
        record = records[0]
        assert record.trial_index == 0
        assert record.status in {"primal_strict", "dual_strict"}
        assert record.grassmann >= 1.0
        assert record.kappa >= 1.0
        assert record.renegar.kind in {"exact", "interval"}

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_experiment(ExperimentConfig(n=4, m=2, trials=30, seed=3, output_path=str(out1)))
        monkeypatch.setenv("CONIC_COND_THREADS", "4")
        run_experiment(ExperimentConfig(n=4, m=2, trials=30, seed=3, output_path=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("threads, pools", [(None, 0), ("1", 0), ("2", 1)])
    def test_one_worker_runs_inline(self, tmp_path, monkeypatch, threads, pools):
        out = tmp_path / "records.jsonl"
        reference = tmp_path / "reference.jsonl"
        monkeypatch.delenv("CONIC_COND_THREADS", raising=False)
        run_experiment(ExperimentConfig(n=4, m=2, trials=6, seed=3, output_path=str(reference)))
        if threads is not None:
            monkeypatch.setenv("CONIC_COND_THREADS", threads)
        started = []
        pool = coniccond.harness.ThreadPoolExecutor

        def counted(*args, **kwargs):
            started.append(kwargs.get("max_workers"))
            return pool(*args, **kwargs)

        monkeypatch.setattr(coniccond.harness, "ThreadPoolExecutor", counted)
        run_experiment(ExperimentConfig(n=4, m=2, trials=6, seed=3, output_path=str(out)))
        assert len(started) == pools
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("raw", ["0", "two"])
    def test_bad_thread_count_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("CONIC_COND_THREADS", raw)
        with pytest.raises(ValueError, match=f"CONIC_COND_THREADS must be a positive integer, got '{raw}'"):
            run_experiment(ExperimentConfig(n=4, m=2, trials=1, seed=3))

    def test_config_validation(self):
        with pytest.raises(DimensionError):
            ExperimentConfig(n=3, m=3, trials=10)
        with pytest.raises(ValueError):
            ExperimentConfig(n=3, m=2, trials=0)

    def test_log_sandwich_at_scale(self):
        records = run_experiment(ExperimentConfig(n=6, m=3, trials=1000, seed=11))
        for record in records:
            lower, upper = record.renegar.bounds()
            assert math.log(lower) <= math.log(record.grassmann) + math.log(record.kappa) + 1e-9 \
                or record.renegar.kind == "interval"
            assert math.log(upper) <= math.log(record.kappa) + math.log(record.grassmann) + 1e-9
            assert math.log(record.grassmann) <= math.log(upper) + 1e-9


class TestConditionReport:
    def test_reference_report(self):
        eps = 0.1
        a = np.array([[2 * eps, 1.0, 1.0], [0.0, -1.0, 1.0]])
        report = condition_report(Orthant(3), a, include_witnesses=True)
        assert report["m"] == 2 and report["n"] == 3
        assert report["cone"] == "orthant:3"
        assert report["status"] == "dual_strict"
        assert report["gcc"] == pytest.approx(SQ2, abs=1e-9)
        assert report["grassmann"] == pytest.approx(math.sqrt(1.02) / (eps * SQ2), rel=1e-6)
        assert report["renegar"]["kind"] == "exact"
        assert report["witnesses"][0]["property"] == "flips_to_primal"
        expected_iters = math.sqrt(3) * math.log(3 * report["grassmann"])
        assert report["iteration_estimate"] == pytest.approx(expected_iters, rel=1e-9)

    def test_infinities_serialize_as_strings(self):
        report = condition_report(Orthant(2), np.array([[2.0, 0.0]]))
        assert report["grassmann"] == "inf"
        assert report["renegar"]["value"] == "inf"
        assert report["iteration_estimate"] == "inf"
        json.dumps(report)  # must be serializable

    def test_primal_witness_uses_balanced_representative(self):
        a = np.array([[1.0, -2.0], [0.0, 0.0]])[:1] * 3.0  # 1x2 primal-strict scaled
        report = condition_report(Orthant(2), a, include_witnesses=True)
        assert report["status"] == "primal_strict"
        entry = report["witnesses"][0]
        assert entry["property"] == "image_contains"
        assert entry["applies_to"] == "balanced_representative"
