"""The full-rank certificate of the float rank and kernel.

linalg._full_rank holds when the Cholesky factorization of the smaller
Gram matrix less (FULL_RANK_RTOL ||A||_F)^2 I succeeds; float_rank and
float_nullspace then skip the SVD.  Whichever path runs, the rank must be
the one the SVD threshold gives (helpers.svd_rank) and the kernel the
subspace of the trailing right singular vectors (helpers.svd_kernel).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurves.framings import Framing, flat_linearization, zero_section
from graphcurves.graphs import CATALOG_NAMES, catalog_graph, random_trivalent
from graphcurves.higgs import _float_residue_system, higgs_space, random_higgs_field
from graphcurves.hitchin import hitchin_jacobian
from graphcurves.linalg import _full_rank, float_nullspace, float_rank
from graphcurves.scalars import EXACT, FLOAT, FULL_RANK_RTOL
from graphcurves.sections import canonical_matrix

from helpers import svd_kernel, svd_rank

SHAPES = st.tuples(st.integers(0, 9), st.integers(0, 9))  # wide, tall, square, empty


def _gaussian(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _unitary(rng, n):
    return np.linalg.qr(_gaussian(rng, n, n)).Q


def _check_rank_and_kernel(a):
    """float_rank and float_nullspace of a against the SVD oracles.

    The kernel is orthonormal, spans the oracle's subspace and meets the
    rows to 1e-13 ||A|| plus the largest singular value the threshold
    drops."""
    m, n = a.shape
    rows = a.tolist()
    r = svd_rank(rows)
    assert float_rank(rows, n) == r
    basis = float_nullspace(rows, n)
    assert all(type(x) is complex for vec in basis for x in vec)
    assert len(basis) == n - r
    if not (m and n):
        return  # an identity basis, or none
    k = np.array(basis, dtype=complex).reshape(-1, n).T
    oracle = svd_kernel(rows, n)
    assert k.shape == oracle.shape
    if k.size:
        s = np.linalg.svd(a, compute_uv=False)
        dropped = s[r] if r < len(s) else 0.0
        assert np.abs(k.conj().T @ k - np.eye(k.shape[1])).max() <= 1e-12
        assert np.abs(a @ k).max() <= 1e-13 * s[0] + dropped
        cosines = np.linalg.svd(oracle.conj().T @ k, compute_uv=False)
        assert cosines.min() >= 1 - 1e-10


@settings(derandomize=True, max_examples=120, deadline=None)
@given(SHAPES, st.integers(0, 9), st.integers(0, 2**32 - 1))
def test_planted_rank(shape, r, seed):
    # an m x r times r x n product has rank r: certified only when r is
    # min(m, n), and the rank and kernel always those of the SVD
    m, n = shape
    r = min(r, m, n)
    rng = np.random.default_rng(seed)
    a = _gaussian(rng, m, r) @ _gaussian(rng, r, n)
    if r < min(m, n):
        assert not _full_rank(a)
    _check_rank_and_kernel(a)
    assert float_rank(a.tolist(), n) == r


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.tuples(st.integers(2, 9), st.integers(2, 9)),
       st.sampled_from([10.0, 0.1, 1e-12 / FULL_RANK_RTOL]), st.integers(0, 2**32 - 1))
def test_planted_smallest_singular_value(shape, factor, seed):
    # sigma_min = factor * FULL_RANK_RTOL * ||A||_F: 10 x the certificate's
    # bound is certified, 0.1 x is refused but kept by the SVD, and 1e-12
    # is refused and dropped by the SVD
    m, n = shape
    k = min(m, n)
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.0, 2.0, k)
    c = factor * FULL_RANK_RTOL
    s[-1] = c * np.linalg.norm(s[:-1]) / np.sqrt(1 - c * c)
    a = _unitary(rng, m)[:, :k] @ np.diag(s) @ _unitary(rng, n)[:k, :]
    least = np.linalg.svd(a, compute_uv=False)[-1] / np.linalg.norm(a)
    assert abs(least - c) <= 1e-3 * c + 1e-15
    assert _full_rank(a) == (factor > 1)
    _check_rank_and_kernel(a)
    assert float_rank(a.tolist(), n) == (k - 1 if c < 1e-9 else k)


@pytest.mark.parametrize("rows", [[], [[]], [[], []]])
def test_empty_systems(rows):
    ncols = len(rows[0]) if rows else 3
    assert float_rank(rows, ncols) == 0
    assert float_nullspace(rows, ncols) == [[complex(i == j) for j in range(ncols)]
                                            for i in range(ncols)]


def test_non_finite_entries_are_not_certified():
    for bad in (np.nan, np.inf):
        a = np.eye(2, 3, dtype=complex)
        a[0, 0] = bad
        assert not _full_rank(a)
    assert not _full_rank(np.zeros((2, 3), dtype=complex))


def _no_svd(*args, **kwargs):
    raise AssertionError("SVD on a certified system")


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_residue_system_is_certified(seed):
    # the float Higgs solve at a generic framing (V = 20, genus 11) takes
    # the QR path: the certificate holds and no SVD runs
    framing = Framing.random(random_trivalent(20, seed), seed, FLOAT)
    assert _full_rank(_float_residue_system(framing)[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", _no_svd)
        report = higgs_space(framing)
    assert report.dim == 3 * 11 - 3


def test_rank_margins_and_agreement_at_large_genus():
    # on random_trivalent(V, seed) with its float framing, V = 80 and 160
    # (genus 41 and 81), seeds 0 and 1, each float system a rank is taken
    # of has sigma_min / ||A||_F at least 10 x FULL_RANK_RTOL (measured
    # minima: 7.97e-3, 2.51e-4 and 2.74e-4); at genus 81 the exact and
    # float `higgs` dim and rank and `hitchin` jacobian_rank agree
    margins = {}
    for vertices, seed in ((80, 0), (80, 1), (160, 0), (160, 1)):
        g = random_trivalent(vertices, seed)
        ranks = []
        for domain in (FLOAT, EXACT) if vertices == 160 else (FLOAT,):
            framing = Framing.random(g, seed, domain)
            space = higgs_space(framing)
            jac = hitchin_jacobian(random_higgs_field(framing, seed), framing)
            ranks.append((space.dim, space.rank, jac.rank))
            if domain == FLOAT:
                for name, rows in (
                        ("residue sums", _float_residue_system(framing)[0]),
                        ("flat linearization", flat_linearization(zero_section(framing))),
                        ("Hitchin Jacobian", jac.matrix)):
                    a = np.array(rows, dtype=complex)
                    least = np.linalg.svd(a, compute_uv=False)[-1] / np.linalg.norm(a)
                    margins[name] = min(margins.get(name, np.inf), least)
        generic = 3 * g.genus - 3
        assert set(ranks) == {(generic, 6 * vertices - generic, generic)}, ranks
    thin = {name: m for name, m in margins.items() if m < 10 * FULL_RANK_RTOL}
    assert not thin, f"sigma_min / ||A||_F below {10 * FULL_RANK_RTOL:.0e}: {thin}"


@pytest.mark.parametrize("vertices", [8, 20])
def test_identity_framing_is_refused(vertices):
    # the identity framing's Higgs space has dimension 3g, so its residue
    # system is rank-deficient: the certificate refuses and the SVD decides
    framing = Framing.identity(random_trivalent(vertices, 1), FLOAT)
    assert not _full_rank(_float_residue_system(framing)[0])
    assert higgs_space(framing).dim == 3 * (vertices // 2 + 1)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_canonical_matrix_is_refused(name):
    # rank E - 1 by construction: never certified
    graph = catalog_graph(name)
    rows = canonical_matrix(graph)
    assert not _full_rank(np.array(rows, dtype=complex))
    assert float_rank(rows, 2 * graph.vertex_count) == len(rows) - 1
