"""The frame's one zero-padded stack of member bases, and the batched products that read it.

The canonical certificate's values, the certificates' span counts and the
single-member erasure values are taken from ``FusionFrame._basis_stack`` in
batches; each must equal, bit for bit, the member-by-member computation on
the members' own bases.
"""

from unittest import mock

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fusionframes import (
    DEFAULT_TOL,
    Tolerance,
    canonical_pair,
    certify_canonical_optimal,
    classify,
    fusion_frame,
    make_dual_pair,
    matrix_norm,
    zero_subspace,
)
from fusionframes import cli, optimality
from fusionframes.erasures import _member_norms
from fusionframes.fusion import _inverse
from helpers import FIXTURES, inflated_dual, member_values_reference, random_subspace


def mixed_frame(rng: np.random.Generator, n: int, m: int):
    """A weighted frame of m members in R^n with dimensions drawn from 0..n, zero members included."""
    while True:
        dims = rng.integers(0, n + 1, size=m)
        subs = [random_subspace(rng, n, int(k)) if k else zero_subspace(n) for k in dims]
        w = fusion_frame(subs, list(0.5 + 1.5 * rng.random(m)))
        if classify(w).is_frame:
            return w


frames = st.builds(
    lambda seed_, n, m: mixed_frame(np.random.default_rng(seed_), n, m),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
)


@seed(31)
@settings(max_examples=150, deadline=None)
@given(w=frames)
def test_basis_stack_is_read_only_zero_padded_and_built_once(w):
    stack = w._basis_stack
    dims = [sub.dim for sub in w.subspaces]
    assert stack.shape == (w.member_count, w.ambient_dim, max(dims))
    assert not stack.flags.writeable and not w._member_dims.flags.writeable
    assert w._member_dims.tolist() == dims
    for member, sub in zip(stack, w.subspaces):
        assert np.array_equal(member[:, : sub.dim], sub.basis)
        assert not member[:, sub.dim :].any()
    certify_canonical_optimal(w)
    assert w._basis_stack is stack


@seed(32)
@settings(max_examples=150, deadline=None)
@given(w=frames)
def test_canonical_certificate_values_are_the_per_member_norms(w):
    s_inv = _inverse(w, DEFAULT_TOL)
    expected = [weight**2 * matrix_norm(s_inv @ sub.basis, "frobenius") for sub, weight in zip(w.subspaces, w.weights)]
    with mock.patch.object(optimality, "_argmax_split", wraps=optimality._argmax_split) as split:
        cert = certify_canonical_optimal(w)
    assert split.call_args.args[0] == expected
    c = max(expected)
    assert cert.c_value == c
    assert cert.lambda1 == tuple(i for i, v in enumerate(expected, start=1) if v >= c * (1.0 - 1e-12))
    assert cert.lambda2 == tuple(i for i in range(1, w.member_count + 1) if i not in cert.lambda1)


@seed(33)
@settings(max_examples=150, deadline=None)
@given(w=frames, rank_eps=st.sampled_from([DEFAULT_TOL.rank_eps, 1e-3]), data=st.data())
def test_span_dim_counts_the_per_member_rows(w, rank_eps, data):
    # the gathered rows are the per-member vstack itself, so the screen and the SVD see the same array
    indices = sorted(data.draw(st.sets(st.integers(1, w.member_count)), label="indices"))
    rows = np.vstack([np.zeros((0, w.ambient_dim)), *(w.subspaces[i - 1].basis.T for i in indices)])
    tol = Tolerance(rank_eps, DEFAULT_TOL.residual_eps)
    svd = np.linalg.svd
    with mock.patch.object(np.linalg, "svd", wraps=svd) as spy:
        count = optimality._span_dim(w, indices, tol)
    for call in spy.call_args_list:
        assert call.args[0].flags.c_contiguous and np.array_equal(call.args[0], rows)
    assert count == int(np.sum(svd(rows, compute_uv=False) > rank_eps))


@seed(34)
@settings(max_examples=100, deadline=None)
@given(seed_=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 6), canonical=st.booleans())
def test_member_norms_equal_the_padded_reference(seed_, n, m, canonical):
    rng = np.random.default_rng(seed_)
    w = mixed_frame(rng, n, m)
    pair = canonical_pair(w) if canonical else make_dual_pair(w, inflated_dual(rng, w))
    for kind in ("frobenius", "operator"):
        assert _member_norms(pair, kind).tolist() == member_values_reference(pair, kind)


def test_parsing_a_document_builds_no_basis_stack():
    doc = cli.parse_document(FIXTURES / "overlap_r4.json")
    assert "_basis_stack" not in vars(doc.frame)


def test_argmax_split_of_a_large_tied_input():
    # 4,000 values, every other one tied at the maximum within the tie window
    values = [1.0 - 1e-13 * (i % 3) if i % 2 == 0 else 0.5 for i in range(4000)]
    c, lambda1, lambda2 = optimality._argmax_split(values)
    assert c == 1.0
    assert lambda1 == tuple(range(1, 4001, 2))
    assert lambda2 == tuple(range(2, 4001, 2))
