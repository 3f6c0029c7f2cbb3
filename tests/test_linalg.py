import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fusionframes import (
    Subspace,
    Tolerance,
    coordinate_subspace,
    frobenius_norm,
    full_subspace,
    image_subspace,
    operator_norm,
    orthogonal_complement,
    orthonormal_basis,
    projector,
    spd_inv_sqrt,
    spd_inverse,
    subspace_contains,
    subspace_intersection,
    subspace_sum,
    subspaces_equal,
    zero_subspace,
)
from helpers import (
    SQRT54,
    OVERCOMPLETE_SINV,
    orthonormal_basis_reference,
    random_spd,
    random_subspace,
    random_unitary,
)


class TestOrthonormalBasis:
    def test_spanning_set_of_full_space(self):
        s = orthonormal_basis([[1, 0, 1], [-1, 0, 1], [0, 1, 0]])
        assert s.dim == 3
        assert np.allclose(projector(s), np.eye(3))

    def test_single_vector_normalized(self):
        s = orthonormal_basis([[1, 0, 1]])
        assert np.allclose(s.basis[:, 0], [1 / np.sqrt(2), 0, 1 / np.sqrt(2)])

    def test_rank_drop_on_parallel_vectors(self):
        # oracle: pairwise Gram determinant vanishes, so the span is a line
        v1, v2 = np.array([1.0, 0, 1]), np.array([2.0, 0, 2])
        gram = np.array([[v1 @ v1, v1 @ v2], [v2 @ v1, v2 @ v2]])
        assert abs(np.linalg.det(gram)) < 1e-12
        assert orthonormal_basis([v1, v2]).dim == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            orthonormal_basis([[1, 0], [1, 0, 0]])

    def test_empty_needs_ambient(self):
        assert orthonormal_basis([], ambient_dim=3).is_zero
        with pytest.raises(ValueError):
            orthonormal_basis([])


def _matches_reference(vectors, tol=Tolerance(), ambient_dim=None):
    """The array form and the loop reference agree on dimension and projector."""
    got = orthonormal_basis(vectors, tol, ambient_dim=ambient_dim)
    ref = orthonormal_basis_reference(vectors, tol, ambient_dim=ambient_dim)
    assert got.dim == ref.dim
    assert np.abs(projector(got) - projector(ref)).max(initial=0.0) <= 1e-12
    assert np.abs(got.basis.T @ got.basis - np.eye(got.dim)).max(initial=0.0) <= 1e-12
    return got


class TestOrthonormalBasisMatchesLoop:
    @pytest.mark.parametrize("k, n", [(1, 3), (3, 3), (5, 3), (8, 64), (12, 6), (40, 8), (200, 16)])
    def test_random(self, rng, k, n):
        for _ in range(5):
            s = _matches_reference(rng.standard_normal((k, n)))
            assert s.dim == min(k, n)

    def test_duplicates_and_zero_vectors(self, rng):
        v = rng.standard_normal((3, 6))
        cases = [
            (np.vstack([v, v]), 3),
            (np.vstack([v[:1], 2.0 * v[:1], -v[:1]]), 1),
            (np.vstack([np.zeros(6), v, np.zeros(6)]), 3),
            (np.zeros((4, 6)), 0),
            (np.vstack([v, rng.standard_normal((5, 3)) @ v]), 3),
        ]
        for vectors, dim in cases:
            assert _matches_reference(vectors).dim == dim

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    @pytest.mark.parametrize("factor, dim", [(1.5, 3), (0.5, 2)])
    def test_residual_around_the_discard_threshold(self, rng, scale, factor, dim):
        # the third residual is factor * rank_eps * (largest input norm)
        tol = Tolerance(rank_eps=1e-9)
        vectors = scale * np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 0, factor * 1e-9, 0]])
        assert _matches_reference(vectors, tol).dim == dim
        u = random_unitary(rng, 4)
        assert _matches_reference(vectors @ u.T, tol).dim == dim

    def test_pivots_on_the_largest_residual(self):
        vectors = [[1.0, 0, 0], [0, 3.0, 0], [0, 0, 2.0]]
        s = orthonormal_basis(vectors)
        assert np.array_equal(s.basis, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert np.array_equal(s.basis, orthonormal_basis_reference(vectors).basis)

    @pytest.mark.parametrize("scale", [1e-5, 1e5])
    def test_scaled_inputs(self, rng, scale):
        for k, n in [(4, 3), (8, 64), (6, 6)]:
            v = rng.standard_normal((k, n))
            v[-1] = v[0] + v[1]
            s = _matches_reference(scale * v)
            assert s.dim == min(k - 1, n)
            assert np.abs(projector(s) - projector(orthonormal_basis(v))).max() <= 1e-12

    def test_columns_of_a_transposed_matrix(self, rng):
        m = rng.standard_normal((5, 3))
        assert np.array_equal(orthonormal_basis(m.T).basis, orthonormal_basis(list(m.T)).basis)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(
    mat=arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 6)),
        elements=st.integers(-3, 3).map(float)
        | st.floats(min_value=-10, max_value=10).filter(lambda x: x == 0 or abs(x) > 1e-3),
    )
)
def test_orthonormal_basis_matches_loop(mat):
    _matches_reference(mat)


class TestProjector:
    def test_full_space(self):
        assert np.allclose(projector(full_subspace(4)), np.eye(4))

    def test_plane_projection_column(self):
        w2 = orthonormal_basis([[-1, 0, 1], [0, 1, 0]])
        assert np.allclose(projector(w2) @ np.array([1.0, 0, 0]), [0.5, 0, -0.5])

    def test_zero_subspace(self):
        assert np.allclose(projector(zero_subspace(3)), np.zeros((3, 3)))


class TestSpdInverse:
    def test_identity(self):
        assert np.allclose(spd_inverse(np.eye(3)), np.eye(3))

    def test_overlap_frame_operator(self):
        got = spd_inverse(np.diag([1.0, 2.0, 1.0, 1.0]))
        assert np.abs(got - np.diag([1, 0.5, 1, 1])).max() < 1e-12

    def test_overcomplete_frame_operator(self):
        s = np.array([[1.5, -0.5, 0], [-0.5, 2.5, 0], [0, 0, 1]])
        assert np.abs(spd_inverse(s) - OVERCOMPLETE_SINV).max() < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            spd_inverse(np.diag([1.0, 0.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            spd_inverse(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSpdInvSqrt:
    def test_identity(self):
        assert np.allclose(spd_inv_sqrt(np.eye(5)), np.eye(5))

    def test_diagonal(self):
        assert np.allclose(spd_inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))

    def test_squares_to_inverse(self, rng):
        a = random_spd(rng, 5)
        root = spd_inv_sqrt(a)
        assert np.abs(root @ root @ a - np.eye(5)).max() < 1e-9
        assert np.allclose(root, root.T)


class TestNorms:
    def test_frobenius_identity(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_frobenius_worked_value(self):
        assert frobenius_norm(np.diag([1.0, 0.5, 0, 0])) == pytest.approx(SQRT54, abs=1e-12)

    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_operator_identity(self):
        assert operator_norm(np.eye(6)) == pytest.approx(1.0)

    def test_operator_rank_one(self, rng):
        g = rng.standard_normal(4)
        f = rng.standard_normal(4)
        assert operator_norm(np.outer(g, f)) == pytest.approx(
            np.linalg.norm(g) * np.linalg.norm(f)
        )

    def test_operator_matches_eigen_oracle(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            oracle = np.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])
            assert operator_norm(a) == pytest.approx(oracle, abs=1e-8)


class TestContainment:
    def test_extended_member_contains_original(self):
        v1 = orthonormal_basis([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
        w1 = coordinate_subspace(4, [1, 2])
        assert subspace_contains(v1, w1)

    def test_reflexive(self, rng):
        s = random_subspace(rng, 5, 3)
        assert subspace_contains(s, s)

    def test_distinct_lines(self):
        assert not subspace_contains(coordinate_subspace(3, [2]), coordinate_subspace(3, [1]))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            subspace_contains(full_subspace(3), full_subspace(4))


class TestIntersection:
    def test_coordinate_planes(self):
        a = coordinate_subspace(3, [1, 2])
        b = coordinate_subspace(3, [2, 3])
        inter = subspace_intersection(a, b)
        assert subspaces_equal(inter, coordinate_subspace(3, [2]))

    def test_overlap_frame_split_spans(self):
        h1 = coordinate_subspace(4, [1, 2, 3])
        h2 = coordinate_subspace(4, [4])
        assert subspace_intersection(h1, h2).is_zero

    def test_idempotent(self, rng):
        s = random_subspace(rng, 6, 3)
        assert subspaces_equal(subspace_intersection(s, s), s)


class TestSumAndComplement:
    def test_two_lines(self):
        total = subspace_sum([coordinate_subspace(3, [1]), coordinate_subspace(3, [2])])
        assert subspaces_equal(total, coordinate_subspace(3, [1, 2]))

    def test_overlap_frame_members(self):
        total = subspace_sum([coordinate_subspace(4, [1, 2]), coordinate_subspace(4, [2, 3])])
        assert subspaces_equal(total, coordinate_subspace(4, [1, 2, 3]))

    def test_empty_list(self):
        assert subspace_sum([], ambient_dim=5).is_zero
        with pytest.raises(ValueError):
            subspace_sum([])

    def test_complement_of_line(self):
        comp = orthogonal_complement(coordinate_subspace(3, [1]))
        assert subspaces_equal(comp, coordinate_subspace(3, [2, 3]))

    def test_complement_of_spanning_vector(self):
        comp = orthogonal_complement(orthonormal_basis([[1, 0, 0]]))
        assert subspaces_equal(comp, coordinate_subspace(3, [2, 3]))

    def test_complement_of_full_space(self):
        assert orthogonal_complement(full_subspace(4)).is_zero


class TestImageSubspace:
    def test_identity_map(self, rng):
        s = random_subspace(rng, 4, 2)
        assert subspaces_equal(image_subspace(np.eye(4), s), s)

    def test_eigendirection(self):
        s = coordinate_subspace(3, [3])
        assert subspaces_equal(image_subspace(np.diag([1.0, 1.0, 0.5]), s), s)

    def test_unitary_conjugates_projector(self, rng):
        # oracle: the projector of the image is U P U^T for unitary U
        u = random_unitary(rng, 5)
        s = coordinate_subspace(5, [1, 2])
        image = image_subspace(u, s)
        assert image.dim == 2
        assert np.abs(projector(image) - u @ projector(s) @ u.T).max() < 1e-9

    def test_rank_drop_under_singular_map(self):
        s = coordinate_subspace(3, [1, 2])
        assert image_subspace(np.diag([1.0, 0.0, 1.0]), s).dim == 1


class TestKernelProperties:
    def test_projector_idempotent_symmetric(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            s = random_subspace(rng, n, int(rng.integers(0, n + 1)))
            p = projector(s)
            assert np.abs(p @ p - p).max() < 1e-9
            assert np.abs(p - p.T).max() < 1e-9
            assert abs(np.trace(p) - s.dim) < 1e-9

    def test_spd_round_trip_bounded_condition(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = random_spd(rng, n, cond=1e6)
            assert np.abs(a @ spd_inverse(a) - np.eye(n)).max() < 1e-9

    def test_inv_sqrt_squares_to_inverse(self, rng):
        for _ in range(10):
            a = random_spd(rng, 4, cond=1e4)
            root = spd_inv_sqrt(a)
            assert np.abs(root @ root - spd_inverse(a)).max() < 1e-8

    def test_projection_through_image_identity(self, rng):
        # P_V u^T = P_V u^T P_{uV} for invertible u and any subspace V
        for _ in range(25):
            n = int(rng.integers(2, 6))
            u = random_spd(rng, n, cond=1e2) @ random_unitary(rng, n)
            v = random_subspace(rng, n, int(rng.integers(1, n + 1)))
            pv = projector(v)
            puv = projector(image_subspace(u, v))
            assert np.abs(pv @ u.T - pv @ u.T @ puv).max() < 1e-9

    def test_projection_commutation_equivalence(self, rng):
        # u pi_V = pi_{uV} u exactly when u^T u leaves V invariant; a
        # block-diagonal map preserves the coordinate block, a generic one
        # does not
        v = coordinate_subspace(4, [1, 2])
        pv = projector(v)
        for _ in range(10):
            blocks = rng.standard_normal((2, 2, 2)) + 2 * np.eye(2)
            u = np.zeros((4, 4))
            u[:2, :2], u[2:, 2:] = blocks[0], blocks[1]
            puv = projector(image_subspace(u, v))
            assert np.abs(u @ pv - puv @ u).max() < 1e-9
        generic = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        if not subspace_contains(v, image_subspace(generic.T @ generic, v)):
            puv = projector(image_subspace(generic, v))
            assert np.abs(generic @ pv - puv @ generic).max() > 1e-6

    def test_dimension_formula(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = random_subspace(rng, n, int(rng.integers(1, n + 1)))
            b = random_subspace(rng, n, int(rng.integers(1, n + 1)))
            inter = subspace_intersection(a, b)
            total = subspace_sum([a, b])
            assert inter.dim + total.dim == a.dim + b.dim


@seed(7)
@settings(max_examples=40, deadline=None)
@given(
    mat=arrays(
        np.float64,
        (4, 3),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
def test_span_projector_is_projector(mat):
    s = orthonormal_basis(mat, ambient_dim=3)
    p = projector(s)
    assert np.abs(p @ p - p).max() < 1e-9
    assert np.abs(p - p.T).max() < 1e-9


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_eps=-1e-9)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerance(rank_eps=eps)
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerance(residual_eps=eps)


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))
