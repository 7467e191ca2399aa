"""Realizable supports and the strict cap: which supports an orthant maximum solves."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coniccond.cones
from coniccond import Orthant, Subspace, cone_subspace_angle, subspace_from_rowspan
from coniccond.cones import (_BUILD, REALIZABLE_MIN_DIM, _angle_of_cos2, _enumerate_orthant_extremum,
                             _realizable_supports, _route_table, extremize_quadratic_over_cone,
                             primal_dual_angles)
from coniccond.grassmann import complement
from coniccond.tolerances import GORDAN_MARGIN
from conftest import (STRUCTURED_KINDS, count_decided, full_orthant_minimum, orthant_like,
                      reference_realizable_supports, structured_matrix)


def _row_basis(a):
    """Orthonormal rows spanning the rows of a full-rank a."""
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u @ vh


def _gaussian_basis(n, r, seed):
    return _row_basis(np.random.default_rng(seed).standard_normal((r, n)))


def _cover_bound(n, r):
    """Cover's (1965) bound on the cells of n central hyperplanes in R^r."""
    return 2 * sum(math.comb(n - 1, k) for k in range(r))


def _near_face(rng, signs, eps):
    """A point of a random face of the sign-orthant {signs * x >= 0}, moved off by eps."""
    n = len(signs)
    face = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.6)
    face[rng.integers(n)] = 1.0
    return signs * face + eps * rng.standard_normal(n)


@st.composite
def arrangements(draw):
    """An orthant-like cone with n <= 12 and a basis B of W, often degenerate.

    W may contain a boundary point of the cone moved off by eps, or B may
    have a zero or a duplicated column.
    """
    blocks = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 6)), min_size=1, max_size=3)
                  .filter(lambda b: 2 <= sum(k for _, k in b) <= 12))
    cone = orthant_like(blocks)
    n = cone.dim
    r = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((r, n))
    kind = draw(st.sampled_from(["generic", "boundary", "zero column", "duplicated column"]))
    if kind == "boundary":
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]))
        a[0] = _near_face(rng, cone.orthant_signs, eps)
    elif kind == "zero column":
        a[:, rng.integers(n)] = 0.0
    elif kind == "duplicated column":
        i, j = rng.choice(n, 2, replace=False)
        a[:, i] = a[:, j]
    if np.linalg.matrix_rank(a) < r:
        a = rng.standard_normal((r, n))
    return cone, _row_basis(a)


class TestRealizableRoute:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(arrangements())
    def test_realizable_route_is_the_full_enumeration_bit_for_bit(self, arrangement):
        cone, basis = arrangement
        signs = cone.orthant_signs
        conj = basis.T @ basis * np.outer(signs, signs)
        full = _enumerate_orthant_extremum(conj, True)
        # Every r, not only those the route rule sends to the table.
        table = _realizable_supports(basis * signs)
        if table is not None:
            value, point = _enumerate_orthant_extremum(conj, True, table)
            assert value == full[0]
            assert np.array_equal(point, full[1])
        ext = extremize_quadratic_over_cone(basis.T @ basis, cone, True, _factor=basis)
        assert ext.value == full[0]
        assert np.array_equal(ext.point, signs * full[1])

    def test_angle_matches_the_unfiltered_solve(self):
        # cone_subspace_angle passes the basis; the projector alone gives
        # the full enumeration.
        w = Subspace(_gaussian_basis(12, 3, seed=4))
        angle = cone_subspace_angle(Orthant(12), w)
        full = extremize_quadratic_over_cone(w.projector(), Orthant(12), True)
        assert angle.method == "exact"
        assert angle.angle == _angle_of_cos2(full.value)
        assert np.array_equal(angle.witness, full.point)


@st.composite
def instances(draw):
    """An orthant-like cone with 7 <= n <= 12 and the row span of a Gaussian or structured matrix."""
    n = draw(st.integers(REALIZABLE_MIN_DIM, 12))
    m = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(("gaussian",) + STRUCTURED_KINDS))
    split = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, n)) if kind == "gaussian" else structured_matrix(rng, m, n, kind)
    blocks = [(positive, k) for positive, k in ((True, split), (False, n - split)) if k]
    return kind, orthant_like(blocks), subspace_from_rowspan(a)


class TestOneTablePerInstance:
    """primal_dual_angles builds the realizable table of the smaller side only.

    The other side, the dual cone against the complement, reads its
    complement: a cell of one side is never a cell of the other, since
    d * w > 0 on P and < 0 off P, and d * z < 0 on P and >= 0 off P
    (d = C's sign vector) would give <w, z> < 0 for w in W, z in W_perp.
    """

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances())
    def test_the_other_side_reads_the_complement(self, instance):
        kind, cone, w = instance
        sides = sorted([(cone, w), (cone.dual(), complement(w))], key=lambda side: side[1].dim)
        (small_cone, small_w), (other_cone, other_w) = sides
        table = _route_table(small_cone, small_w.basis)
        small, other = ("primal", "dual") if small_w is w else ("dual", "primal")
        passed = {}
        solve = coniccond.cones.cone_subspace_angle

        def spy(side_cone, side_w, seed=0, *, _table=_BUILD):
            passed["primal" if side_w is w else "dual"] = _table
            return solve(side_cone, side_w, seed, _table=_table)

        with mock.patch.object(coniccond.cones, "cone_subspace_angle", spy):
            primal_dual_angles(cone, w)
        if table is None:
            # Refused: the other side builds its own table wherever the route rule says so.
            assert passed.get(small, None) is None
            assert passed.get(other, _BUILD) is _BUILD
            return
        assert np.array_equal(passed.get(small, table), table)
        assert np.array_equal(passed.get(other, ~table), ~table)
        # The other side's own table, built whatever its dimension, lies in the complement.
        direct = _realizable_supports(other_w.basis * other_cone.orthant_signs)
        if direct is not None:
            assert not (direct & table).any()
            if kind == "gaussian":
                assert np.array_equal(direct, ~table)
        through = cone_subspace_angle(other_cone, other_w, _table=~table)
        full = cone_subspace_angle(other_cone, other_w, _table=None)
        assert through.angle == full.angle
        assert np.array_equal(through.witness, full.witness)

    def test_a_tie_reads_one_table(self, monkeypatch):
        # Dual strict at m = n/2: W's table marks the full support, so W_perp
        # goes first and reads the complement instead of building its own.
        a = np.random.default_rng(3).standard_normal((6, 12))
        a[0] = np.abs(a[0])
        w = subspace_from_rowspan(a)
        build, built = coniccond.cones._realizable_supports, []

        def counted(basis):
            built.append(basis.shape)
            return build(basis)

        monkeypatch.setattr(coniccond.cones, "_realizable_supports", counted)
        primal, dual = primal_dual_angles(Orthant(12), w)
        assert built == [(6, 12)]
        assert primal.angle == 0.0 < dual.angle


class TestTableOracle:
    def test_table_is_the_cofactor_reference_on_gaussian_bases(self):
        # 2000 fixed-seed Gaussian bases, n = 7..12 and 2 <= r <= n/2: the rays
        # from the batched inverse mark the same cells as the signed cofactors.
        rng = np.random.default_rng(20)
        shapes = set()
        for _ in range(2000):
            n = int(rng.integers(7, 13))
            r = int(rng.integers(2, n // 2 + 1))
            basis = _row_basis(rng.standard_normal((r, n)))
            table, reference = _realizable_supports(basis), reference_realizable_supports(basis)
            assert reference is not None
            assert table is not None and np.array_equal(table, reference), (n, r)
            shapes.add((n, r))
        assert len(shapes) == sum(n // 2 - 1 for n in range(7, 13))


class TestCellCount:
    @pytest.mark.parametrize("n, r, cells", [(8, 2, 16), (10, 3, 92), (12, 3, 134), (12, 4, 464)])
    def test_generic_count_is_covers_bound(self, n, r, cells):
        table = _realizable_supports(_gaussian_basis(n, r, seed=n + r))
        assert table is not None
        assert int(table.sum()) == cells == _cover_bound(n, r)

    def test_one_dimensional_subspace_has_two_cells(self):
        table = _realizable_supports(np.array([[3.0, -4.0, 1.0]]) / math.sqrt(26.0))
        assert np.flatnonzero(table).tolist() == [0b010, 0b101]

    def test_half_dimension_rule_is_covers_bound_at_half_the_sign_patterns(self):
        # C(n-1, k) = C(n-1, n-1-k) pairs the terms of the bound, so it is at
        # most 2^(n-1) exactly when r <= n - r; the route rule reads 2r <= n.
        for n in range(2, 40):
            for r in range(1, n):
                assert (2 * r <= n) == (_cover_bound(n, r) <= 2 ** (n - 1)), (n, r)


def _decided_by_size(monkeypatch, *args, **kwargs):
    """{support size: supports decided} for one extremize_quadratic_over_cone call.

    A support is decided when eigh solves it or the sign certificate rejects it.
    """
    _, decided, _ = count_decided(monkeypatch,
                                  lambda: extremize_quadratic_over_cone(*args, **kwargs))
    return dict(decided)


def _supports_up_to(n, size):
    """The number of nonempty supports of at most ``size`` of n coordinates."""
    return sum(math.comb(n, k) for k in range(1, size + 1))


def _sizes_at_most(n, size):
    """A support table, as _realizable_supports gives, that marks every support of at most size.

    A maximum over it is the best candidate of the supports a cap of
    ``size`` solves first, whatever the certificate decides.
    """
    counts = np.array([bin(mask).count("1") for mask in range(1 << n)])
    return (counts >= 1) & (counts <= size)


def _cells_up_to(table, size):
    """The nonempty supports of at most ``size`` coordinates that a realizable table marks."""
    sizes = np.array([bin(mask).count("1") for mask in range(len(table))])
    return int(table[(sizes >= 1) & (sizes <= size)].sum())


class TestFullRouteFallback:
    """Route counts, as supports decided: solved by eigh or rejected by the sign
    certificate.  A strict side (r = dim W) decides no support of more than n - r
    coordinates; a side that touches the cone refuses the Gordan certificate and
    decides every support its route has."""

    def _decided(self, monkeypatch, *args, **kwargs):
        return sum(_decided_by_size(monkeypatch, *args, **kwargs).values())

    # Strict sides here: every r = 1 and (5, 2); the rest touch.
    STRICT_BELOW_THE_TABLE = {(4, 1), (5, 1), (5, 2), (6, 1)}

    @pytest.mark.parametrize("n, r", [(n, r) for n in (4, 5, 6) for r in range(1, n)])
    def test_below_the_table_dimension_solves_every_support(self, monkeypatch, n, r):
        assert n < REALIZABLE_MIN_DIM
        basis = _gaussian_basis(n, r, seed=n + r)
        assert _realizable_supports(basis) is not None
        decided = self._decided(monkeypatch, basis.T @ basis, Orthant(n), True,
                                _factor=basis)
        # No table: (4, 1) 14, (5, 1) 30, (5, 2) 25 and (6, 1) 62 of 2^n - 1.
        if (n, r) in self.STRICT_BELOW_THE_TABLE:
            assert decided == _supports_up_to(n, n - r)
        else:
            assert decided == 2**n - 1

    @pytest.mark.parametrize("n, r", [(7, 3), (8, 4), (10, 5), (12, 6)])
    def test_half_dimension_subspace_solves_only_realizable_supports(self, monkeypatch, n, r):
        basis = _gaussian_basis(n, r, seed=n + r)
        table = _realizable_supports(basis)
        assert table is not None
        _, by_size, solved = count_decided(monkeypatch, lambda: extremize_quadratic_over_cone(
            basis.T @ basis, Orthant(n), True, _factor=basis))
        decided = sum(by_size.values())
        if (n, r) == (8, 4):
            # Strict: the 83 of its 128 cells with at most n - r = 4 coordinates.
            assert decided == _cells_up_to(table, n - r) == 83
        else:
            # W meets the interior, so the table marks the full support.
            assert table[-1]
            assert decided == int(table[1:].sum()) < 2**n - 1
        if (n, r) == (12, 6):
            # The sign certificate settles most of them without eigh.
            assert sum(solved.values()) < decided

    def test_generic_basis_solves_only_realizable_supports(self, monkeypatch):
        # Strict: the 88 of its 92 cells with at most n - r = 7 coordinates.
        basis = _gaussian_basis(10, 3, seed=1)
        decided = self._decided(monkeypatch, basis.T @ basis, Orthant(10), True,
                                _factor=basis)
        assert decided == _cells_up_to(_realizable_supports(basis), 7) == 88

    @pytest.mark.parametrize("degeneracy", ["zero column", "duplicated column", "boundary point"])
    def test_non_general_position_takes_the_full_route(self, monkeypatch, degeneracy):
        a = np.random.default_rng(2).standard_normal((3, 10))
        if degeneracy == "zero column":
            a[:, 4] = 0.0
        elif degeneracy == "duplicated column":
            a[:, 4] = a[:, 7]
        else:
            # W through a point of the orthant with four zero coordinates.
            a[0] = [1.0, 0.5, 2.0, 0.0, 0.0, 1.5, 0.0, 0.3, 0.0, 1.0]
        basis = _row_basis(a)
        assert _realizable_supports(basis) is None
        assert reference_realizable_supports(basis) is None
        decided = self._decided(monkeypatch, basis.T @ basis, Orthant(10), True,
                                _factor=basis)
        if degeneracy == "boundary point":
            # The boundary point touches.
            assert decided == 2**10 - 1
        else:
            # Strict: every support of at most n - r = 7 coordinates.  With the zero
            # column e_4 lies in W_perp, so (x - P x)_4 = 0; the certificate adds
            # ||x - P x|| e_4, which stays in W_perp.
            assert decided == _supports_up_to(10, 7) == 967
            monkeypatch.undo()
            full = _enumerate_orthant_extremum(basis.T @ basis, True)
            ext = extremize_quadratic_over_cone(basis.T @ basis, Orthant(10), True,
                                                _factor=basis)
            assert ext.value == full[0]
            assert np.array_equal(ext.point, full[1])

    def test_minimization_takes_the_full_route(self):
        # Here the realizable table misses the minimizer's support (its
        # minimum would be 0.058 against about 0), so a minimum never reads
        # it, and a minimum near 0 refuses the cap at 3 coordinates; the
        # pruned enumeration must still equal the one that solves every support.
        basis = _gaussian_basis(10, 3, seed=1)
        ext = extremize_quadratic_over_cone(basis.T @ basis, Orthant(10), False, _factor=basis)
        value, point = full_orthant_minimum(basis.T @ basis)
        assert ext.value == value
        assert np.array_equal(ext.point, point)

    def test_minimum_refuses_a_table(self):
        # The prune would skip every support below one the table leaves out.
        basis = _gaussian_basis(8, 3, seed=1)
        with pytest.raises(ValueError):
            _enumerate_orthant_extremum(basis.T @ basis, False, realizable=_sizes_at_most(8, 3))

    def test_no_basis_takes_the_full_route(self, monkeypatch):
        basis = _gaussian_basis(10, 3, seed=1)
        decided = self._decided(monkeypatch, basis.T @ basis, Orthant(10), True)
        assert decided == 2**10 - 1

    def test_subspace_above_half_the_dimension_takes_the_full_route(self, monkeypatch):
        # Cover's bound at (10, 6) is 764 of 1024 sign patterns.  W is strict, so
        # the full route solves every support of at most n - r = 4 coordinates.
        basis = _gaussian_basis(10, 6, seed=1)
        assert _realizable_supports(basis) is not None
        decided = self._decided(monkeypatch, basis.T @ basis, Orthant(10), True,
                                _factor=basis)
        assert decided == _supports_up_to(10, 4) == 385


class TestStrictCap:
    """A strict maximum stops at n - dim W coordinates when Gordan's alternative certifies it."""

    def test_certified_table_route_solves_no_support_above_n_minus_r(self, monkeypatch):
        basis = _gaussian_basis(12, 6, seed=2)
        assert cone_subspace_angle(Orthant(12), Subspace(basis)).angle > 0.3
        decided = _decided_by_size(monkeypatch, basis.T @ basis, Orthant(12), True, _factor=basis)
        assert max(decided) == 6

    def test_certified_full_route_solves_no_support_above_n_minus_r(self, monkeypatch):
        # The strict side of a dual strict (3, 12) instance: W_perp of a row span
        # through the orthant's interior, dimension 9 and too large for a table.
        a = np.random.default_rng(0).standard_normal((3, 12))
        a[0] = np.abs(a[0])
        w = complement(Subspace(_row_basis(a)))
        decided = _decided_by_size(monkeypatch, w.projector(), Orthant(12), True, _factor=w.basis)
        assert sorted(decided) == [1, 2, 3]
        assert sum(decided.values()) == _supports_up_to(12, 3) == 298

    def test_near_boundary_subspace_refuses_the_certificate(self, monkeypatch):
        # W passes within 2.8e-8 of a point with 8 > n - r = 7 positive
        # coordinates, two of them below 3e-9, so the capped candidate fails the
        # certificate and every size is solved.  The largest computed eigenvalue
        # is at the support of the other 6 coordinates.
        n, r = 10, 3
        rng = np.random.default_rng(8)
        a = rng.standard_normal((r, n))
        a[0] = _near_face(rng, np.ones(n), eps=1e-9)
        basis = _row_basis(a)
        projector = basis.T @ basis
        assert _realizable_supports(basis) is None
        _, capped = _enumerate_orthant_extremum(projector, True, _sizes_at_most(n, n - r))
        assert (capped - projector @ capped).min() <= GORDAN_MARGIN
        decided = _decided_by_size(monkeypatch, projector, Orthant(n), True, _factor=basis)
        assert decided == {size: math.comb(n, size) for size in range(1, n + 1)}
        monkeypatch.undo()
        full = _enumerate_orthant_extremum(projector, True)
        ext = extremize_quadratic_over_cone(projector, Orthant(n), True, _factor=basis)
        assert 0.0 < _angle_of_cos2(full[0]) < 3e-8
        assert np.count_nonzero(full[1]) == 6
        assert ext.value == full[0]
        assert np.array_equal(ext.point, full[1])

    def test_certificate_below_the_margin_solves_every_size(self, monkeypatch):
        # W = span(u) misses the orthant at sin(angle) = 0.01.  At the best support of
        # at most n - r = 4 coordinates, w = x - P x is positive, 5e-9 at its least,
        # but below GORDAN_MARGIN (x^T w)^(1/2) = 1e-8, so the full support is solved too.
        u = np.array([0.6, 0.5, 0.6, -1e-2, -5e-9])
        basis = (u / np.linalg.norm(u))[None, :]
        projector = basis.T @ basis
        _, capped = _enumerate_orthant_extremum(projector, True, _sizes_at_most(5, 4))
        w = capped - projector @ capped
        assert 0.0 < w.min() < GORDAN_MARGIN * math.sqrt(capped @ w)
        decided = _decided_by_size(monkeypatch, projector, Orthant(5), True, _factor=basis)
        assert decided == {size: math.comb(5, size) for size in range(1, 6)}
        monkeypatch.undo()
        full = _enumerate_orthant_extremum(projector, True)
        ext = extremize_quadratic_over_cone(projector, Orthant(5), True, _factor=basis)
        assert ext.value == full[0]
        assert np.array_equal(ext.point, full[1])
