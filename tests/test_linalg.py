import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fusionframes.linalg as linalg
from fusionframes import (
    Subspace,
    Tolerance,
    coordinate_subspace,
    full_subspace,
    image_subspace,
    matrix_norm,
    orthogonal_complement,
    orthonormal_basis,
    orthonormal_bases,
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
    orthonormal_basis_one_block,
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


def _square_safe(block):
    """``block`` scaled into 2**±500 by an exact power of two if its largest entry lies outside,
    where squares over- or underflow; blocks inside are returned as they are."""
    peak = np.abs(np.asarray(block, dtype=float)).max(initial=0.0)
    if peak > 2.0**500 or 0 < peak < 2.0**-500:
        return np.ldexp(np.asarray(block, dtype=float), -math.frexp(peak)[1])
    return block


def _bases_match_one_block(blocks, n, tol=Tolerance()):
    """Every block's batched basis equals the one-block run bit for bit, zero signs included."""
    got = orthonormal_bases(blocks, tol, ambient_dim=n)
    assert len(got) == len(blocks)
    for block, s in zip(blocks, got):
        ref = orthonormal_basis_one_block(_square_safe(block), tol, ambient_dim=n)
        assert s.basis.shape == ref.basis.shape
        assert np.array_equal(s.basis, ref.basis)
        assert np.array_equal(np.signbit(s.basis), np.signbit(ref.basis))
    return got


@st.composite
def _block_lists(draw):
    """Blocks of mixed size in one R^n: Gaussian-like, exact small integers, zero,
    duplicate or dependent rows, and rows scaled by 1e-12 .. 1e12."""
    n = draw(st.integers(1, 7))
    floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        rows = []
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(["float", "int", "zero", "dependent", "scaled"]))
            if kind == "zero":
                row = np.zeros(n)
            elif kind == "dependent" and rows:
                a, b = draw(st.lists(st.sampled_from(range(len(rows))), min_size=2, max_size=2))
                ca, cb = draw(st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=2))
                row = ca * rows[a] + cb * rows[b]
            elif kind == "int":
                row = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
            else:
                row = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
                if kind == "scaled":
                    row *= 10.0 ** draw(st.integers(-12, 12))
            rows.append(row)
        blocks.append(np.array(rows).reshape(len(rows), n))
    return n, blocks


@seed(13)
@settings(max_examples=150, deadline=None)
@given(case=_block_lists())
def test_orthonormal_bases_match_one_block_runs(case):
    n, blocks = case
    _bases_match_one_block(blocks, n)


@seed(17)
@settings(max_examples=150, deadline=None)
@given(case=_block_lists())
def test_public_constructor_accepts_every_returned_member(case):
    # every member is built by the public constructor, so rebuilding one changes no bit
    n, blocks = case
    for s in orthonormal_bases(blocks, ambient_dim=n):
        again = Subspace(n, s.basis)
        assert np.array_equal(again.basis, s.basis)
        assert s.basis.flags.c_contiguous and not s.basis.flags.writeable


class TestOrthonormalBases:
    @pytest.mark.parametrize("block, row", [(0, 0), (1, 1), (1, 2)])
    def test_corrupted_result_stack_refused(self, rng, monkeypatch, block, row):
        original = linalg._pivoted_gram_schmidt

        def corrupted(work, tol):
            accepted, ranks = original(work, tol)
            accepted[block, row] *= 1.001
            return accepted, ranks

        monkeypatch.setattr(linalg, "_pivoted_gram_schmidt", corrupted)
        with pytest.raises(ValueError, match="basis columns are not orthonormal"):
            orthonormal_bases([rng.standard_normal((2, 4)), rng.standard_normal((4, 4))])

    def test_every_member_zero(self):
        # no block has a row, so there is no norm to take a maximum of
        for blocks in ([np.zeros((0, 3))] * 3, [[], []]):
            got = _bases_match_one_block(blocks, 3)
            assert all(s.is_zero and s.ambient_dim == 3 for s in got)
        assert orthonormal_bases([]) == []

    def test_all_zero_members_beside_live_ones(self, rng):
        blocks = [np.zeros((4, 5)), rng.standard_normal((3, 5)), np.zeros((1, 5)), np.zeros((0, 5))]
        got = _bases_match_one_block(blocks, 5)
        assert [s.dim for s in got] == [0, 3, 0, 0]

    def test_mixed_sizes_and_dependent_rows(self, rng):
        v = rng.standard_normal((3, 6))
        blocks = [np.vstack([v, v]), v[:1], np.vstack([v, rng.standard_normal((5, 3)) @ v]), rng.standard_normal((9, 6))]
        got = _bases_match_one_block(blocks, 6)
        assert [s.dim for s in got] == [3, 1, 3, 6]

    def test_rows_scaled_across_magnitudes(self, rng):
        blocks = [rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-12, 13, size=(5, 1)) for _ in range(6)]
        _bases_match_one_block(blocks, 4)

    def test_finished_blocks_raise_no_further_warnings(self):
        # the squared norms of 1e200 and 1e-200 rows over- and underflow unless their
        # blocks are scaled first; the rank-one block finishes first
        blocks = [
            np.array([[1e200, 0.0], [1e200, 1e200]]),
            np.array([[1e-200, 0.0], [0.0, 3e-201]]),
            np.array([[1.0, 0.0], [2.0, 0.0]]),
            np.array([[1.0, 0.0], [1.0, 2.0]]),
        ]
        with warnings.catch_warnings(record=True) as together:
            warnings.simplefilter("always")
            got = _bases_match_one_block(blocks, 2)
        assert [s.dim for s in got] == [2, 2, 1, 2]
        assert together == []

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_extreme_scales_keep_their_span(self, rng, scale):
        v = rng.standard_normal((3, 5))
        v[2] = v[0] - v[1]
        got, ref = orthonormal_bases([scale * v, v])
        assert got.dim == ref.dim == 2
        assert np.abs(projector(got) - projector(ref)).max() <= 1e-12

    def test_blocks_share_one_ambient_dimension(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            orthonormal_bases([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]])
        with pytest.raises(ValueError, match="non-finite"):
            orthonormal_bases([[[1.0, 0.0]], [[np.inf, 0.0]]])


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
        assert matrix_norm(np.eye(4), "frobenius") == pytest.approx(2.0)

    def test_frobenius_worked_value(self):
        assert matrix_norm(np.diag([1.0, 0.5, 0, 0]), "frobenius") == pytest.approx(SQRT54, abs=1e-12)

    def test_frobenius_zero(self):
        assert matrix_norm(np.zeros((3, 3)), "frobenius") == 0.0

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3), (0, 0)], ids=["2x0", "0x3", "0x0"])
    def test_frobenius_of_empty_matrices_is_plus_zero(self, shape):
        # a zero member's basis is n x 0; its sum of squares, 0, is below the
        # safe range, so the empty matrix takes the rescale path's zero branch
        value = matrix_norm(np.zeros(shape), "frobenius")
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_frobenius_refuses_non_finite_entries(self, entry):
        a = np.eye(3)
        a[1, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            matrix_norm(a, "frobenius")

    def test_frobenius_of_finite_entries_does_not_overflow(self):
        # the squares, 1e400, overflow; the norm, 2e200, does not
        assert matrix_norm(np.full((2, 2), 1e200), "frobenius") == 2e200

    @pytest.mark.parametrize("kind", ["frobenius", "operator"])
    @pytest.mark.parametrize("entry", [5e199, 1e-170])
    def test_norms_whose_squares_leave_the_float_range(self, kind, entry):
        # both norms of the all-`entry` 3 x 3 matrix are 3 * entry; the squares
        # overflow (5e199) or underflow to 0 (1e-170), and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert matrix_norm(np.full((3, 3), entry), kind) == pytest.approx(3 * entry, rel=4 * np.finfo(float).eps)

    def test_frobenius_refuses_non_matrices(self):
        for a in (np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="expected a matrix"):
                matrix_norm(a, "frobenius")

    def test_operator_identity(self):
        assert matrix_norm(np.eye(6), "operator") == pytest.approx(1.0)

    def test_operator_rank_one(self, rng):
        g = rng.standard_normal(4)
        f = rng.standard_normal(4)
        assert matrix_norm(np.outer(g, f), "operator") == pytest.approx(
            np.linalg.norm(g) * np.linalg.norm(f)
        )

    def test_operator_matches_eigen_oracle(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            oracle = np.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])
            assert matrix_norm(a, "operator") == pytest.approx(oracle, abs=1e-8)


@st.composite
def _norm_stacks(draw):
    """(b, p, q) stacks, square, tall or wide: Gaussian, rank-deficient, zero, or with
    top singular values tied or nearly tied, each matrix scaled by 2**0 or 2**±600."""
    p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["gauss", "deficient", "zero", "tied"]))
        if kind == "gauss":
            a = rng.standard_normal((p, q))
        elif kind == "deficient":
            rank = draw(st.integers(0, min(p, q) - 1))
            a = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, q))
        elif kind == "zero":
            a = np.zeros((p, q))
        else:
            k = min(p, q)
            s = rng.random(k) * 0.5
            s[: draw(st.integers(1, k))] = 1.0 - draw(st.sampled_from([0.0, 1e-15, 1e-8])) * rng.random()
            a = (random_unitary(rng, p)[:, :k] * s) @ random_unitary(rng, q)[:, :k].T
        mats.append(np.ldexp(a, draw(st.sampled_from([0, 600, -600]))))
    return np.stack(mats)


@seed(30)
@settings(max_examples=200, deadline=None)
@given(stack=_norm_stacks())
def test_top_singular_values_agree_with_the_svd(stack):
    # within the kernel's written bound, (1.3 n^2 + 0.5) eps, and the SVD's own rounding
    values = linalg._top_singular_values(stack.copy())
    reference = np.linalg.svd(stack, compute_uv=False)[:, 0]
    n = max(stack.shape[1:])
    assert np.all(np.abs(values - reference) <= 4 * n * n * np.finfo(float).eps * reference)
    # a zero matrix gives +0.0, never -0.0 or nan
    zero = ~stack.any(axis=(1, 2))
    assert np.array_equal(values[zero], np.zeros(zero.sum())) and not np.signbit(values).any()
    # each matrix rounds as it does alone, which is what makes report values equal matrix_norm;
    # so does the Frobenius kernel, also on the matrices scaled by 2**600, whose squares overflow
    frobenius = linalg._frobenius_norms(stack)
    for b in range(len(stack)):
        assert linalg._top_singular_values(stack[b : b + 1].copy())[0] == values[b]
        assert matrix_norm(stack[b], "operator") == values[b]
        assert matrix_norm(stack[b], "frobenius") == frobenius[b] >= values[b] * (1 - 4 * n * n * np.finfo(float).eps)


@seed(34)
@settings(max_examples=200, deadline=None)
@given(stack=_norm_stacks())
def test_top_singular_bounds_are_close_upper_bounds(stack):
    # at least ||A||_2 less the written rounding, (0.6 n^2 + 2) eps, and at most rank^(1/32) ||A||_2
    # with the SVD's own rounding; tied top values are where the bound is loosest
    bounds = linalg._top_singular_bounds(stack.copy())
    svd = np.linalg.svd(stack, compute_uv=False)
    reference = svd[:, 0]
    n, eps = max(stack.shape[1:]), np.finfo(float).eps
    rank = np.maximum(1, (svd > svd[:, :1] * 1e-12).sum(axis=1))
    assert np.all(bounds >= reference * (1 - (0.6 * n * n + 2 + 4 * n * n) * eps))
    assert np.all(bounds <= reference * rank ** (1 / 32) * (1 + 4 * n * n * eps))
    zero = ~stack.any(axis=(1, 2))
    assert np.array_equal(bounds[zero], np.zeros(zero.sum())) and not np.signbit(bounds).any()
    for b in range(len(stack)):
        assert linalg._top_singular_bounds(stack[b : b + 1].copy())[0] == bounds[b]


def test_top_singular_bounds_of_rank_one_and_non_finite_matrices(rng):
    # a rank-one matrix has one singular value, which the bound meets up to rounding;
    # a non-finite entry gives a non-finite bound and leaves its neighbours alone
    n = 6
    a = np.outer(rng.standard_normal(n), rng.standard_normal(n))[None]
    assert linalg._top_singular_bounds(a)[0] == pytest.approx(np.linalg.norm(a[0], 2), rel=4 * n * n * np.finfo(float).eps)
    for bad in (math.nan, math.inf):
        stack = rng.standard_normal((3, n, n))
        stack[1, 0, 0] = bad
        bounds = linalg._top_singular_bounds(stack.copy())
        assert not np.isfinite(bounds[1])
        assert bounds[0] == linalg._top_singular_bounds(stack[:1])[0]
        assert bounds[2] == linalg._top_singular_bounds(stack[2:])[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5)])
def test_top_singular_values_of_non_finite_entries(rng, bad, shape):
    # the poisoned matrix gets a non-finite value, its neighbours their own; matrix_norm refuses it
    stack = rng.standard_normal((3, *shape))
    stack[1, -1, 0] = bad
    values = linalg._top_singular_values(stack.copy())
    assert not np.isfinite(values[1])
    assert values[0] == matrix_norm(stack[0], "operator") and values[2] == matrix_norm(stack[2], "operator")
    with pytest.raises(ValueError, match="non-finite"):
        matrix_norm(stack[1], "operator")


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

    def test_rank_is_decided_at_the_given_tolerance(self):
        # lines 1e-11 apart: one line at the default rank_eps, a plane at 1e-13
        lines = [coordinate_subspace(3, [1]), orthonormal_basis([[1, 1e-11, 0]])]
        assert subspace_sum(lines).dim == 1
        assert subspace_sum(lines, Tolerance(1e-13, 1e-13)).dim == 2

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


@pytest.mark.parametrize("n", [2, 64])
def test_orthonormality_is_judged_at_rounding_level(n):
    # |gram - eye| <= 16 n eps: a column norm off by 1e-9 (which np.allclose's
    # 1e-8 + 1e-5 accepted) is refused, one off by an ulp is kept
    basis = np.eye(n)[:, :2]
    basis[0, 0] = 1.0 + 1e-9
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        Subspace(n, basis)
    basis[0, 0] = 1.0 + np.finfo(float).eps
    assert Subspace(n, basis).dim == 2
