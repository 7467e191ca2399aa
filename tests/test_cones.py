import itertools
import math

import numpy as np
import pytest

import coniccond.cones
from coniccond import (
    ConeSpecError,
    DimensionError,
    Feasibility,
    Lorentz,
    Negated,
    Orthant,
    Product,
    Subspace,
    classify_feasibility,
    complement,
    condition_report,
    cone_membership,
    cone_subspace_angle,
    dual_cone,
    extremize_quadratic_over_cone,
    grassmann_condition,
    grassmann_distances,
    FeasibilityStatus,
    InconsistentClassification,
    analyze,
    gaussian_matrix,
    parse_cone,
    subspace_from_rowspan,
    trial_stream,
)
from coniccond.cones import _angle_of_cos2, primal_dual_angles
from coniccond.grassmann import angle_point_subspace
from conftest import random_matrix, span, stream

SQ2 = math.sqrt(2.0)


class UnsignedOrthant(Orthant):
    """The orthant without its sign vector: the cone multistart serves."""

    def __init__(self, n):
        super().__init__(n)
        self.orthant_signs = None


class TestMembership:
    def test_orthant(self):
        assert cone_membership(Orthant(3), [1.0, 0.0, 2.0])
        assert not cone_membership(Orthant(3), [1.0, -1e-6, 2.0])

    def test_lorentz_boundary(self):
        assert cone_membership(Lorentz(3), [3.0, 4.0, 5.0])
        assert not cone_membership(Lorentz(3), [3.0, 4.0, 4.9])

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            cone_membership(Orthant(3), [1.0, 2.0])

    def test_product_blockwise(self):
        cone = Product([Orthant(1), Lorentz(3)])
        assert cone_membership(cone, [0.5, 3.0, 4.0, 5.0])
        assert not cone_membership(cone, [-0.5, 3.0, 4.0, 5.0])
        assert not cone_membership(cone, [0.5, 3.0, 4.0, 4.0])


class TestDual:
    def test_orthant_dual_is_nonpositive(self):
        dual = dual_cone(Orthant(2))
        assert cone_membership(dual, [-1.0, -3.0])
        assert not cone_membership(dual, [1.0, -3.0])

    def test_double_dual_agrees(self):
        rng = stream(40)
        cone = Lorentz(3)
        double = dual_cone(dual_cone(cone))
        pts = rng.standard_normal((10_000, 3))
        for p in pts[:200]:
            assert cone.contains(p) == double.contains(p)
        inside = cone.sample_units(rng, 10_000)
        assert all(double.contains(p) for p in inside[:200])

    @pytest.mark.parametrize("cone", [Orthant(3), Lorentz(3), Negated(Orthant(2)),
                                      Product([Orthant(1), Lorentz(3)])])
    def test_dual_of_dual_is_the_cone(self, cone):
        assert cone.dual().dual().spec() == cone.spec()

    def test_product_dual_blockwise(self):
        cone = Product([Orthant(1), Lorentz(3)])
        dual = dual_cone(cone)
        assert cone_membership(dual, [-1.0, -3.0, -4.0, -5.0])
        rng = stream(41)
        for p in cone.sample_units(rng, 100):
            # every dual point has nonpositive inner product against the cone
            for q in dual.sample_units(rng, 50):
                assert float(p @ q) <= 1e-9


class TestProjection:
    @pytest.mark.parametrize("cone", [Orthant(4), Lorentz(4), Negated(Lorentz(3)),
                                      Product([Orthant(2), Lorentz(3)])])
    def test_projection_properties(self, cone):
        rng = stream(42)
        for _ in range(50):
            x = rng.standard_normal(cone.dim)
            p = cone.project(x)
            assert cone.contains(p)
            # idempotent
            assert np.linalg.norm(cone.project(p) - p) <= 1e-9
            # distance-minimizing: no sampled cone point is closer
            others = cone.sample_units(rng, 50) * (1.0 + rng.random(50))[:, None]
            dists = np.linalg.norm(others - x, axis=1)
            assert np.linalg.norm(p - x) <= dists.min() + 1e-9

    def test_stack_matches_points(self):
        # A (count, dim) stack projects each row to the same bits as the row alone.
        rng = stream(43)
        cones = [Lorentz(n) for n in range(2, 9)]
        cones += [Negated(Lorentz(4)), Product([Orthant(1), Lorentz(3)]), Orthant(4)]
        for cone in cones:
            xs = rng.standard_normal((1000, cone.dim))
            points = np.array([cone.project(x) for x in xs])
            np.testing.assert_array_equal(cone.project(xs), points, err_msg=cone.spec())


class TestOrthantSigns:
    def test_sign_vectors(self):
        mixed = Product([Orthant(2), Negated(Orthant(1)),
                         Negated(Product([Orthant(1), Negated(Orthant(1))]))])
        for cone, expected in [(Orthant(3), [1.0, 1.0, 1.0]),
                               (Negated(Orthant(2)), [-1.0, -1.0]),
                               (mixed, [1.0, 1.0, -1.0, -1.0, 1.0])]:
            np.testing.assert_array_equal(cone.orthant_signs, expected)
            # x in C iff d*x >= 0
            assert np.all(cone.sample_units(stream(44), 100) * cone.orthant_signs >= 0.0)

    @pytest.mark.parametrize("cone", [Lorentz(3), Negated(Lorentz(3)),
                                      Product([Orthant(2), Lorentz(3)]),
                                      Negated(Product([Lorentz(2), Negated(Orthant(1))]))])
    def test_a_lorentz_factor_gives_none(self, cone):
        assert cone.orthant_signs is None

    @pytest.mark.parametrize("cone", [Orthant(2), Negated(Orthant(2)),
                                      Product([Orthant(1), Negated(Orthant(1))])])
    def test_read_only(self, cone):
        with pytest.raises(ValueError):
            cone.orthant_signs[0] = 0.0


class TestParse:
    def test_repr_shows_the_spec(self):
        assert repr(Negated(Orthant(2))) == "Negated('negated(orthant:2)')"

    def test_round_trips(self):
        for text, expected in [
            ("orthant:3", Orthant),
            ("LORENTZ:4", Lorentz),
            ("Product(orthant:1,lorentz:3)", Product),
            ("product(product(orthant:1,orthant:2),lorentz:2)", Product),
        ]:
            cone = parse_cone(text)
            assert isinstance(cone, expected)
            assert parse_cone(cone.spec()).spec() == cone.spec()

    @pytest.mark.parametrize("bad", ["", "orthant", "orthant:x", "simplex:3",
                                     "product(orthant:2", "product()"])
    def test_rejects(self, bad):
        with pytest.raises(ConeSpecError):
            parse_cone(bad)


class TestConeSubspaceAngle:
    def test_halfline_against_orthant(self):
        # e_1 and e_2 both attain cos^2 = 1/2 exactly; in the computed
        # projector e_2's diagonal entry is the larger, so e_2 is the witness.
        res = cone_subspace_angle(Orthant(3), span([1, -1, 0]))
        assert res.angle == pytest.approx(math.pi / 4, abs=1e-12)
        np.testing.assert_allclose(res.witness, [0.0, 1.0, 0.0], atol=1e-12)
        assert res.method == "exact"

    @pytest.mark.parametrize("t", [1e-4, 1e-5, 1e-6, 2e-7])
    def test_small_strict_angle_is_read_from_the_peak(self, t):
        # W = span(cos t, -sin t) misses Orthant(2) at angle t, witness
        # e_1.  Below SMALL_ANGLE the angle is read from the sine
        # ||e_1 - P e_1|| = sin t, where the eigenvalue cos^2 t gave
        # C(W) sin t - 1 = 1.4e-9, 4.1e-8 and 4.4e-5 at t = 1e-4, 1e-5 and 1e-6.
        w = span([math.cos(t), -math.sin(t)])
        res = cone_subspace_angle(Orthant(2), w)
        assert res.method == "exact" and res.angle == angle_point_subspace(res.witness, w)
        assert abs(grassmann_condition(Orthant(2), w).value * math.sin(t) - 1.0) <= 1e-12

    def test_small_strict_angle_skips_a_tied_witness(self):
        # W = nu-perp, nu = (1.2e-6, 1e-6, 1), misses Orthant(3).  Only e_1,
        # e_2 and e_3 are accepted; cos^2 = 1 - 1.44e-12 at e_1 and 1 - 1e-12
        # at e_2 differ by less than 1e-12, yet only e_2 attains the maximum,
        # so e_2 is the witness and the angle arcsin(1e-6 / ||nu||) is read
        # there.  At e_1 the angle, and the printed perturbation's norm,
        # would be 1.2e-6, 20% off.
        nu = np.array([1.2e-6, 1e-6, 1.0])
        w = complement(span(nu))
        res = cone_subspace_angle(Orthant(3), w)
        sine = 1e-6 / np.linalg.norm(nu)
        assert res.method == "exact" and np.array_equal(res.witness, [0.0, 1.0, 0.0])
        assert res.angle == angle_point_subspace(res.witness, w)
        assert abs(res.angle / math.asin(sine) - 1.0) <= 1e-12
        assert abs(grassmann_condition(Orthant(3), w).value * sine - 1.0) <= 1e-12
        report = condition_report(Orthant(3), w.basis, include_witnesses=True)
        (image,) = [wit for wit in report["witnesses"] if wit["property"] == "image_contains"]
        assert abs(image["frob_norm"] * report["grassmann"] - 1.0) <= 1e-12

    def test_strict_angle_above_small_angle_keeps_the_eigenvalue(self):
        # At t = 1e-3 > SMALL_ANGLE the angle is arccos of the eigenvalue's
        # square root, within eps / t^2 of t relative.
        t = 1e-3
        w = span([math.cos(t), -math.sin(t)])
        res = cone_subspace_angle(Orthant(2), w)
        lam = float(res.witness @ w.projector() @ res.witness)
        assert res.angle == _angle_of_cos2(lam)
        assert abs(res.angle / t - 1.0) <= 16 * np.finfo(float).eps / t**2

    def test_interior_meeting_line(self):
        res = cone_subspace_angle(Orthant(2), span([1, 1]))
        assert res.angle <= 1e-7
        assert Orthant(2).contains(res.witness)

    def test_coordinate_plane(self):
        assert cone_subspace_angle(Orthant(3), span([1, 0, 0], [0, 1, 0])).angle <= 1e-7

    def test_exact_vs_multistart(self):
        rng = stream(44)
        for trial in range(15):
            n = 4 + trial % 7  # up to 10
            w = subspace_from_rowspan(random_matrix(rng, 2, n))
            exact = cone_subspace_angle(Orthant(n), w)
            multi = cone_subspace_angle(UnsignedOrthant(n), w, seed=trial)
            assert math.cos(multi.angle) == pytest.approx(math.cos(exact.angle), abs=1e-6)
            assert exact.method == "exact"
            assert multi.method == "multistart"

    def test_multistart_deterministic(self):
        rng = stream(45)
        w = subspace_from_rowspan(random_matrix(rng, 2, 5))
        first = cone_subspace_angle(UnsignedOrthant(5), w, seed=9)
        second = cone_subspace_angle(UnsignedOrthant(5), w, seed=9)
        assert first.method == "multistart"
        assert first.angle == second.angle
        np.testing.assert_array_equal(first.witness, second.witness)

    def test_lorentz_quarter_angle(self):
        # max |x_1| over unit (head, t) with ||head|| <= t is 1/sqrt(2)
        res = cone_subspace_angle(Lorentz(4), span([1, 0, 0, 0]), seed=2)
        assert res.angle == pytest.approx(math.pi / 4, abs=1e-9)
        assert res.method == "multistart"

    def test_permutation_invariance(self):
        rng = stream(46)
        w = subspace_from_rowspan(random_matrix(rng, 2, 5))
        base = cone_subspace_angle(Orthant(5), w).angle
        for perm in itertools.islice(itertools.permutations(range(5)), 8):
            permuted = Subspace(w.basis[:, list(perm)])
            assert cone_subspace_angle(Orthant(5), permuted).angle == pytest.approx(base, abs=1e-9)


MIXED = Product([Orthant(2), Lorentz(3)])


class TestMixedProductLine:
    """Multistart over a product with a Lorentz factor, against a closed form.

    For a line W = span(u), angle(C, W) = arccos max(||proj_C(u)||,
    ||proj_C(-u)||) for unit u, and a product projects blockwise exactly.
    The tolerance is the benchmark's LORENTZ_ANGLE_TOL.
    """

    @pytest.mark.parametrize("cone", [MIXED, Negated(MIXED)], ids=lambda c: c.spec())
    @pytest.mark.parametrize("seed", range(4))
    def test_primal_angle_matches_projection(self, cone, seed):
        u = np.random.default_rng(seed).standard_normal(cone.dim)
        u /= np.linalg.norm(u)
        cos = max(np.linalg.norm(cone.project(u)), np.linalg.norm(cone.project(-u)))
        primal, _ = primal_dual_angles(cone, span(u))
        assert primal.method == "multistart"
        assert primal.angle == pytest.approx(math.acos(min(cos, 1.0)), abs=1e-6)
        assert np.linalg.norm(primal.witness) == pytest.approx(1.0, abs=1e-12)
        assert cone.contains(primal.witness)


def _lorentz_closed_form(a):
    """(primal, dual) angles of Lorentz(n) against row span(a): max(0, +-(theta - pi/4)).

    theta is the angle between e_n and W; L is circular with axis e_n and
    half-aperture pi/4.
    """
    _, _, vh = np.linalg.svd(a, full_matrices=False)
    theta = math.acos(min(1.0, float(np.linalg.norm(vh[:, -1]))))
    return max(0.0, theta - math.pi / 4.0), max(0.0, math.pi / 4.0 - theta)


def _multistart_instances():
    """(cone, A, seed): the lorentz:5 trial 0 of ExperimentConfig(n=5, m=2, seed=0), 30
    lorentz:3..8 instances of every row count and four products with a Lorentz factor."""
    rng = np.random.default_rng(777)
    cases = [(Lorentz(5), gaussian_matrix(trial_stream(0, 0), 2, 5), 0)]
    for i in range(30):
        n = 3 + i % 6
        cases.append((Lorentz(n), rng.standard_normal((int(rng.integers(1, n)), n)), i))
    products = [Product([Orthant(2), Lorentz(3)]), Product([Lorentz(3), Negated(Orthant(2))]),
                Product([Orthant(3), Lorentz(3)]), Product([Lorentz(4), Lorentz(3)])]
    cases += [(cone, rng.standard_normal((2, cone.dim)), i) for i, cone in enumerate(products)]
    return [pytest.param(*case, id=f"{k}-{case[0].spec()}-{case[1].shape[0]}x{case[0].dim}")
            for k, case in enumerate(cases)]


class TestMultistartRanksEveryRun:
    """Every multistart run is ranked, converged or not, so no extremum raises.

    Each iterate is a unit point of the cone, so a run stopped at
    ASCENT_MAX_STEPS still bounds the angle from above.  While such runs
    were dropped, the lorentz:5 trial (case 0) and cases 3 and 20 raised
    NumericalFailure: every run of one extremum had stopped there.  None
    of these 31 pure Lorentz instances raises InconsistentClassification;
    a near ill-posed one may, when the touching side's best run stops just
    above ANGLE_THRESHOLD.
    """

    @pytest.mark.parametrize("cone, a, seed", _multistart_instances())
    def test_analysis_succeeds_above_the_closed_form(self, cone, a, seed):
        analysis = analyze(cone, None, seed=seed, a=a)
        lower, upper = analysis.renegar().bounds()
        assert 1.0 <= lower <= upper
        assert (analysis.primal.method, analysis.dual.method) == ("multistart", "multistart")
        if isinstance(cone, Lorentz):
            primal, dual = _lorentz_closed_form(a)
            assert analysis.status.tag is FeasibilityStatus.from_angles(primal, dual).tag
            assert analysis.primal.angle >= primal - 1e-12
            assert analysis.dual.angle >= dual - 1e-12

    def test_converged_values_keep_only_converged_runs(self, monkeypatch):
        # A step limit of 1 stops every run before it converges: the
        # extremum is still the best run, and no value counts as converged.
        monkeypatch.setattr(coniccond.cones, "ASCENT_MAX_STEPS", 1)
        ext = extremize_quadratic_over_cone(np.diag([1.0, 2.0, 3.0]), Lorentz(3), maximize=True)
        assert ext.method == "multistart" and ext.converged_values.size == 0
        assert Lorentz(3).contains(ext.point)
        assert ext.value == pytest.approx(float(ext.point @ np.diag([1.0, 2.0, 3.0]) @ ext.point),
                                          rel=1e-12)


class TestExtremumRoute:
    def test_ties_across_sizes_pick_smallest_support(self):
        # Every support of every size attains 1; the witness is e_1.
        ext = extremize_quadratic_over_cone(np.eye(4), Orthant(4), True)
        assert ext.method == "exact" and ext.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(ext.point, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("cone", [Orthant(17), Negated(Orthant(17)),
                                      Product([Orthant(9), Negated(Orthant(8))])],
                             ids=lambda c: c.spec())
    def test_orthant_past_enum_limit_raises(self, cone):
        with pytest.raises(DimensionError, match="EXACT_ENUM_LIMIT = 16"):
            extremize_quadratic_over_cone(np.eye(17), cone, True)
        with pytest.raises(DimensionError, match="EXACT_ENUM_LIMIT = 16"):
            condition_report(cone, random_matrix(stream(47), 10, 17))


def brute_dual_angle_for_line_2d(theta_line, grid=200_000):
    """Dense sampling oracle for W = span(cos t, sin t): the minimal angle
    between the nonpositive orthant and the perpendicular line W_perp."""
    phis = np.linspace(math.pi, 1.5 * math.pi, grid)
    pts = np.column_stack([np.cos(phis), np.sin(phis)])
    perp = np.array([-math.sin(theta_line), math.cos(theta_line)])
    cosines = np.abs(pts @ perp)
    return float(np.arccos(np.clip(cosines.max(), 0.0, 1.0)))


class TestTwoDimensionalClosedForm:
    def test_brute_force_confirms_closed_form(self):
        # Establish min(theta, pi/2 - theta) by dense sampling before
        # trusting it as the oracle for the exact path.
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 9):
            brute = brute_dual_angle_for_line_2d(theta)
            assert brute == pytest.approx(min(theta, math.pi / 2 - theta), abs=1e-4)

    def test_exact_path_matches_closed_form(self):
        for theta in np.linspace(0.02, math.pi / 2 - 0.02, 50):
            w = span([math.cos(theta), math.sin(theta)])
            status = classify_feasibility(Orthant(2), w)
            assert status.tag is Feasibility.DUAL_STRICT
            expected = min(theta, math.pi / 2 - theta)
            assert status.dual_angle == pytest.approx(expected, rel=1e-8)


class TestClassification:
    def test_examples(self):
        assert classify_feasibility(Orthant(2), span([1, 1])).tag is Feasibility.DUAL_STRICT
        status = classify_feasibility(Orthant(2), span([1, -1]))
        assert status.tag is Feasibility.PRIMAL_STRICT
        assert status.primal_angle == pytest.approx(math.pi / 4, abs=1e-9)
        assert classify_feasibility(Orthant(2), span([1, 0])).tag is Feasibility.ILL_POSED

    def test_both_angles_strict_is_inconsistent(self):
        with pytest.raises(InconsistentClassification, match="both angles exceed"):
            FeasibilityStatus.from_angles(0.5, 0.25)

    def test_random_subspaces_consistent(self):
        # Ill-posed subspaces have measure zero; the alternative theorem
        # forbids both angles being large.
        rng = stream(47)
        for trial in range(200):
            n, m = (4, 2) if trial % 2 else (6, 3)
            w = subspace_from_rowspan(random_matrix(rng, m, n))
            status = classify_feasibility(Orthant(n), w)
            assert status.tag is not Feasibility.ILL_POSED

    def test_boundary_approach(self):
        # A touching subspace is the limit of strictly dual feasible ones.
        rng = stream(48)
        n, m = 5, 2
        x = np.zeros(n)
        x[0] = 1.0
        tail = random_matrix(rng, 1, n - 1)[0]
        tail[0] = abs(tail[0]) + 0.1    # mixed signs keep span(tail) off the cone
        tail[1] = -abs(tail[1]) - 0.1
        tail /= np.linalg.norm(tail)
        shared = np.concatenate([[0.0], tail])
        w = Subspace(np.vstack([x, shared]))
        assert classify_feasibility(Orthant(n), w).tag is Feasibility.ILL_POSED
        interior = np.ones(n) / math.sqrt(n)
        previous = math.inf
        for k in (10, 100, 1000):
            xk = x + interior / k
            wk = subspace_from_rowspan(np.vstack([xk, shared]))
            assert classify_feasibility(Orthant(n), wk).tag is Feasibility.DUAL_STRICT
            d_p = grassmann_distances(wk, w)[0]
            assert d_p < previous
            previous = d_p
        assert previous <= 2e-3


class TestSampling:
    @pytest.mark.parametrize("cone", [Orthant(4), Lorentz(4), Negated(Orthant(3)),
                                      Product([Orthant(2), Lorentz(3)])])
    def test_samples_are_unit_members(self, cone):
        pts = cone.sample_units(stream(49), 500)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert all(cone.contains(p) for p in pts)

    @pytest.mark.parametrize("cone", [Orthant(4), Lorentz(4),
                                      Product([Orthant(2), Lorentz(3)])])
    def test_extreme_rays_are_unit_members(self, cone):
        rays = cone.extreme_unit_rays(16)
        assert len(rays) >= 1
        np.testing.assert_allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
        assert all(cone.contains(r) for r in rays)

    @pytest.mark.parametrize("cone", [Orthant(3), Lorentz(3), Negated(Lorentz(3)),
                                      Product([Lorentz(3), Orthant(2)])])
    @pytest.mark.parametrize("limit", [0, 1])
    def test_extreme_rays_respect_limit(self, cone, limit):
        assert cone.extreme_unit_rays(limit).shape == (limit, cone.dim)
