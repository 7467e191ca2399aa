"""Brute-force oracles, random ensembles, file I/O, and report assembly.

Randomness is counter based: every consumer derives an independent
Philox stream from (master seed, stream index), so results are
reproducible regardless of evaluation order, and Gaussian variates come
from an explicit Box-Muller transform for cross-platform stability.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .condition import ConditionValue, analyze, iteration_bound_estimate, json_number
from .cones import (Cone, Feasibility, Orthant, _angle_of_cos2, _stream, classify_feasibility,
                    cone_subspace_angle, dual_cone, parse_cone)
from .errors import DimensionError, InconsistentClassification, NumericalFailure, RankDeficient
from .gcc import gcc_condition
from .grassmann import Subspace, complement, subspace_from_rowspan
from .linalg import polar_decompose, require_matrix
from .tolerances import ANGLE_THRESHOLD, BRACKET_OVERSHOOT, SANDWICH_SLACK

THREADS_ENV = "CONIC_COND_THREADS"


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one trial: stream (seed, index)."""
    return _stream(seed, index)


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal variates via Box-Muller from uniform draws."""
    count = int(np.prod(shape))
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return z[:count].reshape(shape)


def gaussian_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return gaussian(rng, (m, n))


def random_subspace(n: int, m: int, rng: np.random.Generator) -> Subspace:
    """Row span of an m x n matrix with independent Gaussian entries."""
    return subspace_from_rowspan(gaussian_matrix(rng, m, n))


def read_matrix(path) -> np.ndarray:
    """Read a whitespace-separated text matrix; '#' starts a comment."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                row = [float(tok) for tok in body.split()]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} entries, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    return np.array(rows, dtype=float)


def write_matrix(path, a) -> None:
    """Write a matrix in the plain text row format, 17 significant digits."""
    arr = require_matrix(a)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in arr:
            handle.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def oracle_cone_angle(cone: Cone, w: Subspace, samples: int = 1_000_000, seed: int = 0) -> float:
    """Sampled upper estimate of the cone-subspace angle.

    Minimizes the point-subspace angle over ``samples`` cone points; it
    can only overestimate the exact angle (a restricted minimum), and
    the gap shrinks as the sample count grows.
    """
    if samples < 1000:
        raise ValueError("samples must be at least 1000")
    if cone.dim != w.ambient_dim:
        raise DimensionError(f"cone dimension {cone.dim} != ambient {w.ambient_dim}")
    basis = w.basis
    best_cos = 0.0
    drawn = 0
    chunk_index = 0
    while drawn < samples:
        take = min(200_000, samples - drawn)
        pts = cone.sample_units(_stream(seed, chunk_index), take)
        chunk_index += 1
        drawn += take
        cosines = np.linalg.norm(pts @ basis.T, axis=1)
        best_cos = max(best_cos, float(cosines.max()))
    return _angle_of_cos2(best_cos**2)


def oracle_perturbation_bracket(cone: Cone, a, budget: int = 2000, seed: int = 0) -> float:
    """Smallest spectral norm found for a feasibility-flipping perturbation.

    Searches witness-guided rank-one perturbations plus random rank-one
    directions with shrinking norms.  The result upper-bounds the true
    distance to the ill-posed set, so norm(A) / result lower-bounds the
    Renegar condition.
    """
    if budget < 1000:
        raise ValueError("budget must be at least 1000")
    arr = require_matrix(a)
    m, n = arr.shape
    try:
        analysis = analyze(cone, None, seed=seed, a=arr)
        tag0 = analysis.status.tag
    except RankDeficient:
        # Rank deficiency is dual feasibility, as in renegar_condition, and
        # leaves no row span whose witness could guide the search.
        analysis, tag0 = None, Feasibility.DUAL_STRICT
    spectral = float(np.linalg.norm(arr, 2))
    best = math.inf

    dual = dual_cone(cone)

    def flips(delta: np.ndarray) -> bool:
        """Whether A + delta has another feasibility tag than A.

        Leaving a strict class is decided by that class's own angle
        alone, which halves the classification work per probe.
        """
        try:
            w = subspace_from_rowspan(arr + delta)
        except RankDeficient:
            # Rank deficiency means dual feasibility, so it only counts
            # as a flip away from a strictly primal instance.
            return tag0 is Feasibility.PRIMAL_STRICT
        if tag0 is Feasibility.PRIMAL_STRICT:
            return cone_subspace_angle(cone, w, seed=seed).angle <= ANGLE_THRESHOLD
        if tag0 is Feasibility.DUAL_STRICT:
            return cone_subspace_angle(dual, complement(w), seed=seed).angle <= ANGLE_THRESHOLD
        return classify_feasibility(cone, w, seed=seed).tag is not tag0

    # Witness-guided candidates realize the exact distance when available.
    guided = []
    if analysis is not None and tag0 is Feasibility.DUAL_STRICT:
        guided.append(analysis.flip_witness().delta)
    elif tag0 is Feasibility.PRIMAL_STRICT:
        scale = polar_decompose(arr).scale
        balanced_delta = analysis.image_witness().delta
        guided.append(scale @ balanced_delta)
        # Overshoot slightly so the perturbed span crosses the boundary
        # instead of landing exactly on it.
        guided.append(scale @ (balanced_delta * (1.0 + BRACKET_OVERSHOOT)))
    for delta in guided:
        if flips(delta):
            best = min(best, float(np.linalg.norm(delta, 2)))

    if math.isinf(best):
        best = spectral  # random search starts from the scale of A itself

    rng = _stream(seed, 2**33)
    for _ in range(budget):
        u = gaussian(rng, (m,))
        v = gaussian(rng, (n,))
        direction = np.outer(u, v)
        direction /= float(np.linalg.norm(u) * np.linalg.norm(v))
        scale = best * (0.2 + 0.8 * rng.random())
        if flips(scale * direction):
            best = scale
    return best


@dataclass(frozen=True)
class ExperimentConfig:
    """Random ensemble settings: Gaussian m x n matrices against a cone."""

    n: int
    m: int
    cone_spec: str = ""
    trials: int = 100
    seed: int = 0
    output_path: str = ""

    def __post_init__(self):
        if not 1 <= self.m < self.n:
            raise DimensionError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def cone(self) -> Cone:
        return parse_cone(self.cone_spec) if self.cone_spec else Orthant(self.n)


@dataclass(frozen=True)
class TrialRecord:
    """One trial: a Feasibility value as status, or status "error" and the error."""

    trial_index: int
    status: str
    grassmann: float = math.nan
    kappa: float = math.nan
    renegar: ConditionValue | None = None
    sandwich_ok: bool = False
    error: str = ""

    def to_json(self) -> dict:
        """The trial's JSON line; the Renegar entry leaves out the report's "basis"."""
        if self.status == "error":
            return {"trial_index": self.trial_index, "status": "error", "error": self.error}
        renegar = self.renegar.to_json()
        del renegar["basis"]
        return {
            "trial_index": self.trial_index,
            "status": self.status,
            "grassmann": json_number(self.grassmann),
            "kappa": json_number(self.kappa),
            "renegar": renegar,
            "sandwich_ok": self.sandwich_ok,
        }


def _sandwich_ok(grassmann: float, kap: float, lower: float, upper: float) -> bool:
    if math.isinf(grassmann):
        return math.isinf(upper)
    left = grassmann <= lower * (1.0 + SANDWICH_SLACK) + SANDWICH_SLACK
    right = upper <= kap * grassmann * (1.0 + SANDWICH_SLACK) + SANDWICH_SLACK
    return left and right


def _run_trial(cfg: ExperimentConfig, cone: Cone, index: int) -> TrialRecord:
    """One trial; a numerical failure is recorded as an error, not raised."""
    a = gaussian_matrix(trial_stream(cfg.seed, index), cfg.m, cfg.n)
    try:
        # A record reads the tag and the strict angle only.
        analysis = analyze(cone, None, seed=cfg.seed + index, a=a)
        status = analysis.status
        g = analysis.grassmann.value
        ren = analysis.renegar()
    except (NumericalFailure, InconsistentClassification) as exc:
        return TrialRecord(trial_index=index, status="error", error=f"{type(exc).__name__}: {exc}")
    kap = analysis.kappa
    return TrialRecord(
        trial_index=index,
        status=status.tag.value,
        grassmann=g,
        kappa=kap,
        renegar=ren,
        sandwich_ok=_sandwich_ok(g, kap, *ren.bounds()),
    )


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return workers


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run the Gaussian ensemble; deterministic for a fixed seed.

    Per-trial streams are keyed by (seed, trial index), so the records,
    and the JSON-lines file written to ``output_path`` when set, do not
    depend on the worker count.
    """
    cone = cfg.cone()
    if cone.dim != cfg.n:
        raise DimensionError(f"cone dimension {cone.dim} != n={cfg.n}")
    workers = _worker_count()
    trial = functools.partial(_run_trial, cfg, cone)
    if workers == 1:
        # A one-worker pool only adds its start-up: 6.14 against 5.62 ms for
        # a 4-trial n = 12, m = 3 chunk (2 cores).
        records = list(map(trial, range(cfg.trials)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map yields the results in input order, so records stay in trial order.
            records = list(pool.map(trial, range(cfg.trials)))
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as handle:
            for record in records:
                handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
    return records


def _witness_entry(witness, applies_to: str) -> dict:
    return {
        "property": witness.property_forced,
        "applies_to": applies_to,
        "frob_norm": witness.frob_norm,
        "residual": witness.residual,
        "vector": witness.vector.tolist(),
        "delta": witness.delta.tolist(),
    }


def condition_report(cone: Cone, a, seed: int = 0, include_witnesses: bool = False) -> dict:
    """Full report: feasibility, kappa, Grassmann, Renegar, GCC, estimate.

    The GCC entry appears only for the orthant, and only when no column
    of A is zero.  Witnesses, when asked for, describe the minimal
    flipping perturbation: exact for the input matrix in the dual
    feasible case, and for its balanced representative in the primal
    case.
    """
    arr = require_matrix(a)
    m, n = arr.shape
    analysis = analyze(cone, None, seed=seed, a=arr)
    status = analysis.status
    grassmann = analysis.grassmann
    report = {
        "m": m,
        "n": n,
        "cone": cone.spec(),
        "status": status.tag.value,
        "kappa": json_number(analysis.kappa),
        "grassmann": json_number(grassmann.value),
        "renegar": analysis.renegar().to_json(),
        "angles": {"primal": status.primal_angle, "dual": status.dual_angle},
        "iteration_estimate": json_number(iteration_bound_estimate(grassmann.value, n)),
    }
    if isinstance(cone, Orthant) and np.all(np.linalg.norm(arr, axis=0) > 0.0):
        report["gcc"] = json_number(gcc_condition(arr).value)
    if include_witnesses:
        witnesses = []
        if status.tag is Feasibility.DUAL_STRICT:
            witnesses.append(_witness_entry(analysis.flip_witness(), "input"))
        elif status.tag is Feasibility.PRIMAL_STRICT:
            witnesses.append(_witness_entry(analysis.image_witness(), "balanced_representative"))
        report["witnesses"] = witnesses
    return report
