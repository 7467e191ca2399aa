"""One analysis per instance: solve counts, golden outputs and agreeing views."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import coniccond
from coniccond import (
    ExperimentConfig,
    Feasibility,
    FeasibilityStatus,
    InconsistentClassification,
    NotDualFeasible,
    NumericalFailure,
    NotPrimalFeasible,
    Orthant,
    analyze,
    classify_feasibility,
    condition_report,
    cone_subspace_angle,
    gaussian_matrix,
    grassmann_condition,
    kappa,
    parse_cone,
    polar_decompose,
    renegar_condition,
    run_experiment,
    subspace_from_rowspan,
    trial_stream,
    witness_flip_dual_to_primal,
    witness_image,
)
from coniccond.cli import main
from coniccond.condition import json_number

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_REPORTS = [json.loads(line) for line in
                  (DATA / "golden_reports.jsonl").read_text().splitlines()]
# From tests/data/make_golden.py.
GOLDEN_EXPERIMENT = dict(n=8, m=4, trials=40, seed=0)
GOLDEN_EXPERIMENT_N12 = tuple(dict(n=12, m=m, trials=12, seed=0) for m in (6, 9))

DUAL_STRICT = np.array([[1.0, 2.0, 0.5, 1.5], [0.3, -1.0, 1.2, 0.4]])
PRIMAL_STRICT = np.array([[1.0, -2.0, 0.5, 0.0], [0.0, 1.0, -1.5, -0.4]])
# W = span(e1 - e2, e3) touches the orthant, and so does W_perp = span(e1 + e2, e4).
ILL_POSED = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]])


@pytest.fixture
def solves(monkeypatch):
    """Counts extremize_quadratic_over_cone calls, wrapped wherever it is bound."""
    original = coniccond.cones.extremize_quadratic_over_cone
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "coniccond" or name.startswith("coniccond.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def no_threads(monkeypatch):
    monkeypatch.delenv("CONIC_COND_THREADS", raising=False)


class TestSolveCounts:
    def test_classify_solves_two_angles(self, solves):
        classify_feasibility(Orthant(4), subspace_from_rowspan(DUAL_STRICT))
        assert len(solves) == 2

    def test_primal_strict_report_with_witness(self, solves):
        # The primal angle; the dual side is the exact zero its witness proves.
        report = condition_report(Orthant(4), PRIMAL_STRICT, include_witnesses=True)
        assert report["status"] == "primal_strict" and report["witnesses"]
        assert report["angles"]["dual"] == 0.0
        assert len(solves) == 1

    def test_dual_strict_report_with_witness(self, solves):
        # n = 4 takes no realizable table, so the touching primal side, solved
        # first, is solved in full before the dual one proves it 0.  The
        # Renegar dual route and the flip witness share one minimum.
        report = condition_report(Orthant(4), DUAL_STRICT, include_witnesses=True)
        assert report["status"] == "dual_strict"
        assert report["renegar"]["basis"] == "dual-route-exact"
        assert report["witnesses"]
        assert len(solves) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_one_trial_solves_at_most_three(self, solves, no_threads, seed):
        # Primal strict: the primal angle, the dual side the exact zero its
        # witness proves.  Dual strict: both angles and the dual-route minimum.
        # Ill posed: both angles.  n = 6 takes no realizable table, so a
        # touching side solved first is solved in full.
        (record,) = run_experiment(ExperimentConfig(n=6, m=3, trials=1, seed=seed))
        expected = {"primal_strict": 1, "dual_strict": 3, "ill_posed": 2}[record.status]
        assert len(solves) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 8, 12])
    def test_trial_above_half_dimension_solves_dual_first(self, solves, no_threads, seed):
        # m > n/2, so the dual angle comes first.  Dual strict (seeds 0-2):
        # the dual angle, the primal side the exact zero its witness proves, then
        # the dual-route minimum.  Primal strict (seeds 8, 12): the dual
        # angle, solved in full, then the primal angle.
        (record,) = run_experiment(ExperimentConfig(n=6, m=4, trials=1, seed=seed))
        assert record.status == ("primal_strict" if seed in (8, 12) else "dual_strict")
        assert len(solves) == 2

    @pytest.mark.parametrize("shape", [(1, 2), (2, 6), (3, 8), (5, 10), (9, 10)])
    def test_one_svd_gives_norm_and_kappa(self, shape):
        # ||A|| and kappa(A) read the singular values of one SVD, with the
        # bits of np.linalg.norm(A, 2) and kappa(A).
        for seed in range(5):
            a = gaussian_matrix(trial_stream(seed, 0), *shape)
            analysis = analyze(Orthant(shape[1]), None, a=a)
            assert analysis.singular_values[0] == np.linalg.norm(a, 2)
            assert analysis.kappa == kappa(a)

    @pytest.mark.parametrize("a", [PRIMAL_STRICT, DUAL_STRICT], ids=["primal", "dual"])
    def test_report_classifies_once(self, monkeypatch, a):
        # The status, both conditions and the witness read one classification.
        original, calls = FeasibilityStatus.from_angles, []

        def counted(primal_angle, dual_angle):
            calls.append(1)
            return original(primal_angle, dual_angle)

        monkeypatch.setattr(FeasibilityStatus, "from_angles", staticmethod(counted))
        report = condition_report(Orthant(4), a, include_witnesses=True)
        assert report["witnesses"]
        assert len(calls) == 1

    def test_dual_minimum_is_solved_once(self, solves):
        analysis = analyze(Orthant(4), None, a=DUAL_STRICT)
        first = analysis.dual_minimum
        assert analysis.dual_minimum is first
        analysis.renegar()
        analysis.flip_witness()
        assert len(solves) == 3


class TestGolden:
    @pytest.mark.parametrize(
        "case", GOLDEN_REPORTS, ids=[f"{c['name']}-w{int(c['witnesses'])}" for c in GOLDEN_REPORTS]
    )
    def test_report_bytes(self, case):
        report = condition_report(parse_cone(case["cone"]), case["matrix"],
                                  include_witnesses=case["witnesses"])
        assert json.dumps(report, sort_keys=True) == case["report"]

    def test_experiment_bytes(self, tmp_path, no_threads):
        out = tmp_path / "records.jsonl"
        run_experiment(ExperimentConfig(**GOLDEN_EXPERIMENT, output_path=str(out)))
        assert out.read_bytes() == (DATA / "golden_experiment.jsonl").read_bytes()

    def test_experiment_n12_bytes(self, no_threads):
        # Dual strict trials here take the pruned, rank-capped dual-route minimum.
        lines = [json.dumps(record.to_json(), sort_keys=True) + "\n"
                 for config in GOLDEN_EXPERIMENT_N12
                 for record in run_experiment(ExperimentConfig(**config))]
        assert "".join(lines) == (DATA / "golden_experiment_n12.jsonl").read_text(encoding="utf-8")


def _views(cone, a) -> dict:
    """The report's fields, each from its standalone public function."""
    w = subspace_from_rowspan(a)
    status = classify_feasibility(cone, w)
    fields = {
        "status": status.tag.value,
        "angles": {"primal": status.primal_angle, "dual": status.dual_angle},
        "kappa": json_number(kappa(a)),
        "grassmann": json_number(grassmann_condition(cone, w).value),
        "renegar": renegar_condition(cone, a).to_json(),
    }
    if status.tag is Feasibility.DUAL_STRICT:
        witness = witness_flip_dual_to_primal(cone, a)
    elif status.tag is Feasibility.PRIMAL_STRICT:
        target = cone_subspace_angle(cone, w).witness
        witness = witness_image(polar_decompose(a).balanced_part, target)
    else:
        return fields
    fields["witness"] = (witness.frob_norm, witness.residual, witness.vector.tolist(),
                         witness.delta.tolist())
    return fields


class TestViewsAgree:
    @pytest.mark.parametrize(
        "case", [c for c in GOLDEN_REPORTS if c["witnesses"]], ids=lambda c: c["name"]
    )
    def test_report_fields_equal_public_functions(self, case):
        cone, a = parse_cone(case["cone"]), np.array(case["matrix"])
        report = condition_report(cone, a, include_witnesses=True)
        expected = _views(cone, a)
        for key in ("status", "angles", "kappa", "grassmann", "renegar"):
            assert report[key] == expected[key], key
        if "witness" in expected:
            entry = report["witnesses"][0]
            got = (entry["frob_norm"], entry["residual"], entry["vector"], entry["delta"])
            assert got == expected["witness"]
        else:
            assert report["witnesses"] == []

    @pytest.mark.parametrize("a", [PRIMAL_STRICT, polar_decompose(PRIMAL_STRICT).balanced_part],
                             ids=["input", "balanced"])
    def test_image_witness_is_witness_image_bit_for_bit(self, a):
        analysis = analyze(Orthant(4), None, a=a)
        got = analysis.image_witness()
        expected = witness_image(analysis.w.basis, analysis.primal.witness)
        assert np.array_equal(got.delta, expected.delta)
        assert np.array_equal(got.vector, expected.vector)
        assert (got.frob_norm, got.residual, got.normalization, got.property_forced) == (
            expected.frob_norm, expected.residual, expected.normalization,
            expected.property_forced)

    @pytest.mark.parametrize("a", [DUAL_STRICT, ILL_POSED], ids=["dual", "ill_posed"])
    def test_image_witness_needs_primal_strict(self, a):
        with pytest.raises(NotPrimalFeasible):
            analyze(Orthant(4), None, a=a).image_witness()

    def test_flip_witness_needs_dual_strict(self):
        with pytest.raises(NotDualFeasible):
            analyze(Orthant(4), None, a=PRIMAL_STRICT).flip_witness()

    def test_matrix_free_analysis(self):
        analysis = analyze(Orthant(4), subspace_from_rowspan(DUAL_STRICT))
        assert analysis.status.tag is Feasibility.DUAL_STRICT
        with pytest.raises(ValueError):
            analysis.renegar()

    def test_subspace_and_matrix_together_are_refused(self):
        # W would not be checked to be the row span of A.
        with pytest.raises(ValueError):
            analyze(Orthant(4), subspace_from_rowspan(PRIMAL_STRICT), a=DUAL_STRICT)


class TestTrialRenegar:
    """A trial line's Renegar entry is the report's ConditionValue.to_json() less "basis"."""

    @pytest.mark.parametrize("a, basis", [
        (DUAL_STRICT, "dual-route-exact"),
        (PRIMAL_STRICT, "sandwich"),
        (polar_decompose(PRIMAL_STRICT).balanced_part, "balanced:primal-angle"),
        (ILL_POSED, "ill-posed"),
    ], ids=["dual_route", "interval", "balanced", "ill_posed"])
    def test_trial_line_encodes_the_condition_value(self, monkeypatch, no_threads, a, basis):
        # The trial runs on a, in place of its Gaussian draw.
        monkeypatch.setattr(coniccond.harness, "gaussian_matrix", lambda rng, m, n: a)
        (record,) = run_experiment(ExperimentConfig(n=4, m=2, trials=1, seed=0))
        ren = renegar_condition(Orthant(4), a, seed=0)
        assert ren.basis_of_claim == basis
        assert record.renegar == ren
        expected = ren.to_json()
        del expected["basis"]
        assert record.to_json()["renegar"] == expected


class TestErrorTrials:
    """A trial whose analysis raises is recorded as an error, and the run goes on.

    No trial of this lorentz:5 run fails by itself (trials 0 and 2 are
    dual strict, trial 1 primal strict), so the analysis of trial FAILED
    is made to raise: NumericalFailure for the records,
    InconsistentClassification for the CLI.
    """

    CONFIG = dict(n=5, m=2, cone_spec="lorentz:5", trials=3, seed=3)
    FAILED = 1

    def _fail_trial(self, monkeypatch, error):
        """Make the analysis of trial FAILED raise ``error``."""
        analyze_trial = coniccond.harness.analyze

        def analyze_or_fail(cone, w, seed=0, a=None):
            if seed == self.CONFIG["seed"] + self.FAILED:
                raise error("injected failure")
            return analyze_trial(cone, w, seed=seed, a=a)

        monkeypatch.setattr(coniccond.harness, "analyze", analyze_or_fail)

    def test_failed_trial_is_recorded(self, monkeypatch, tmp_path, no_threads):
        self._fail_trial(monkeypatch, NumericalFailure)
        out = tmp_path / "records.jsonl"
        records = run_experiment(ExperimentConfig(**self.CONFIG, output_path=str(out)))
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["trial_index"] for r in lines] == [0, 1, 2]
        assert lines[self.FAILED] == {"trial_index": self.FAILED, "status": "error",
                                      "error": "NumericalFailure: injected failure"}
        good = [r for r in records if r.status != "error"]
        assert [r.trial_index for r in good] == [0, 2]
        cone, seed = parse_cone(self.CONFIG["cone_spec"]), self.CONFIG["seed"]
        for record in good:
            index = record.trial_index
            a = gaussian_matrix(trial_stream(seed, index), 2, 5)
            ren = renegar_condition(cone, a, seed=seed + index)
            assert record.status == classify_feasibility(
                cone, subspace_from_rowspan(a), seed=seed + index).tag.value
            assert record.grassmann == grassmann_condition(
                cone, subspace_from_rowspan(a), seed=seed + index).value
            assert record.kappa == kappa(a)
            assert record.renegar == ren and ren.kind == "heuristic"

    def test_cli_writes_records_and_exits_two(self, monkeypatch, capsys, tmp_path, no_threads):
        self._fail_trial(monkeypatch, InconsistentClassification)
        out = tmp_path / "f.jsonl"
        cfg = self.CONFIG
        code = main(["experiment", "--cone", cfg["cone_spec"], "--n", str(cfg["n"]),
                     "--m", str(cfg["m"]), "--trials", str(cfg["trials"]),
                     "--seed", str(cfg["seed"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "trials=3" in captured.out and "error=1" in captured.out
        assert "sandwich_failures=0" in captured.out
        assert len(out.read_text().splitlines()) == 3
