"""Independent output checks, run outside the timed span.

Each check returns None when the output passes and a message when it
does not.  The oracles use numpy and scipy directly and never call
coniccond:

* orthant status against two scipy ``linprog`` margin problems;
* pure Lorentz angles against the closed form in theta = angle(e_n, W);
* the Grassmann condition against 1/sin of the active angle;
* the sandwich C(W) <= R_lower, R_upper <= kappa(A) C(W);
* the Cheung-Cucker GCC bounds;
* witness residuals;
* ensemble records against the same trials run by two workers.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
WITNESS_RESIDUAL = 1e-8
LORENTZ_ANGLE_TOL = 1e-6
# An LP margin below this is too close to ill-posed to overrule the classifier.
LP_MARGIN = 1e-7


def _num(x) -> float:
    return math.inf if x == "inf" else float(x)


def _close(value: float, expected: float) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def _kappa(a: np.ndarray) -> float:
    s = np.linalg.svd(a, compute_uv=False)
    return math.inf if s[-1] <= 1e-9 * s[0] else float(s[0] / s[-1])


def orthant_margins(a: np.ndarray) -> tuple[float, float]:
    """Margins of strict dual and strict primal feasibility for the orthant.

    dual: max t with A^T y >= t, |y|_inf <= 1 (positive iff some y has A^T y > 0);
    primal: max t with A x = 0, t <= x <= 1 (positive iff some x > 0 has A x = 0).
    """
    from scipy.optimize import linprog

    m, n = a.shape
    # Variables (y, t): minimize -t subject to t - A^T y <= 0.
    dual = linprog(
        np.r_[np.zeros(m), -1.0],
        A_ub=np.c_[-a.T, np.ones(n)], b_ub=np.zeros(n),
        bounds=[(-1.0, 1.0)] * m + [(None, 1.0)], method="highs",
    )
    # Variables (x, t): minimize -t subject to A x = 0, t - x <= 0.
    primal = linprog(
        np.r_[np.zeros(n), -1.0],
        A_ub=np.c_[-np.eye(n), np.ones(n)], b_ub=np.zeros(n),
        A_eq=np.c_[a, np.zeros(m)], b_eq=np.zeros(m),
        bounds=[(0.0, 1.0)] * n + [(None, 1.0)], method="highs",
    )
    if dual.status != 0 or primal.status != 0:
        raise RuntimeError(f"linprog failed: {dual.message} / {primal.message}")
    return -float(dual.fun), -float(primal.fun)


def _status_from_margins(dual: float, primal: float):
    if dual > LP_MARGIN:
        return "dual_strict"
    if primal > LP_MARGIN:
        return "primal_strict"
    return None  # too close to the boundary to decide


def lorentz_angles(a: np.ndarray) -> tuple[float, float]:
    """Closed-form (primal, dual) angles of a pure Lorentz cone against row span(A)."""
    _, _, vh = np.linalg.svd(a, full_matrices=False)
    cos_theta = min(1.0, float(np.linalg.norm(vh[:, -1])))
    theta = math.acos(cos_theta)
    return max(0.0, theta - math.pi / 4.0), max(0.0, math.pi / 4.0 - theta)


def _sandwich(grassmann: float, kap: float, lower: float, upper: float) -> str | None:
    if math.isinf(grassmann):
        return None if math.isinf(upper) else "finite Renegar value on an ill-posed instance"
    if lower < grassmann * (1.0 - REL_TOL):
        return f"sandwich: C(W) {grassmann!r} > R_lower {lower!r}"
    if upper > kap * grassmann * (1.0 + REL_TOL):
        return f"sandwich: R_upper {upper!r} > kappa C(W) {kap * grassmann!r}"
    return None


def check_report(report: dict, cone_spec: str, a: np.ndarray) -> str | None:
    """Check one condition_report output for the input matrix a."""
    m, n = a.shape
    status = report["status"]
    primal, dual = report["angles"]["primal"], report["angles"]["dual"]
    kap = _kappa(a)
    if not _close(_num(report["kappa"]), kap):
        return f"kappa {report['kappa']!r} != oracle {kap!r}"

    if cone_spec.startswith("orthant"):
        expected = _status_from_margins(*orthant_margins(a))
        if expected is not None and status != expected:
            return f"status {status} but the LP oracle says {expected}"
    elif cone_spec.startswith("lorentz"):
        exp_primal, exp_dual = lorentz_angles(a)
        if abs(primal - exp_primal) > LORENTZ_ANGLE_TOL or abs(dual - exp_dual) > LORENTZ_ANGLE_TOL:
            return (f"angles ({primal!r}, {dual!r}) differ from the closed form "
                    f"({exp_primal!r}, {exp_dual!r})")

    grassmann = _num(report["grassmann"])
    if status == "primal_strict":
        active = primal
    elif status == "dual_strict":
        active = dual
    else:
        active = 0.0
    expected_g = math.inf if active == 0.0 else 1.0 / math.sin(active)
    if not _close(grassmann, expected_g):
        return f"grassmann {grassmann!r} != 1/sin(active angle) {expected_g!r}"

    renegar = report["renegar"]
    if renegar["kind"] == "exact":
        lower = upper = _num(renegar["value"])
    else:
        lower, upper = _num(renegar["lower"]), _num(renegar["upper"])
    problem = _sandwich(grassmann, kap, lower, upper)
    if problem:
        return problem

    if "gcc" in report and not math.isinf(grassmann):
        gcc = _num(report["gcc"])
        col_min = float(np.linalg.norm(a, axis=0).min())
        spectral = float(np.linalg.norm(a, 2))
        low = (col_min / spectral) * grassmann
        high = math.sqrt(n) * kap * grassmann
        if not (low <= gcc * (1.0 + REL_TOL) and gcc <= high * (1.0 + REL_TOL)):
            return f"gcc {gcc!r} outside the Cheung-Cucker bounds [{low!r}, {high!r}]"

    for witness in report.get("witnesses", ()):
        if not witness["residual"] <= WITNESS_RESIDUAL:
            return f"witness {witness['property']} residual {witness['residual']!r}"
    return None


def trial_matrix(seed: int, index: int, m: int, n: int) -> np.ndarray:
    """The Gaussian matrix of experiment trial ``index``.

    Philox keyed by (seed, index) and a Box-Muller transform of its
    uniforms, as documented for coniccond's experiment streams; the
    kappa comparison in ``check_trial`` confirms the reconstruction.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed % 2**64, index % 2**64]))
    count = m * n
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:count].reshape(m, n)


def check_trial(record: dict, seed: int, m: int, n: int) -> str | None:
    """Check one experiment record (its ``to_json`` form)."""
    a = trial_matrix(seed, record["trial_index"], m, n)
    kap = _kappa(a)
    if not _close(_num(record["kappa"]), kap):
        return f"kappa {record['kappa']!r} != oracle {kap!r}"
    expected = _status_from_margins(*orthant_margins(a))
    if expected is not None and record["status"] != expected:
        return f"status {record['status']} but the LP oracle says {expected}"
    renegar = record["renegar"]
    if renegar["kind"] == "exact":
        lower = upper = _num(renegar["value"])
    else:
        lower, upper = _num(renegar["lower"]), _num(renegar["upper"])
    problem = _sandwich(_num(record["grassmann"]), kap, lower, upper)
    if problem:
        return problem
    if record["sandwich_ok"] is not True:
        return "sandwich_ok is false"
    return None
