import numpy as np
import pytest

from gftnn.graph import (D_FLOOR, Laplacian, apply_inverse_distance_weights,
                         build_line_graph, build_spider_graph, laplacian)
from gftnn.spectral import (DEGENERACY_TOL, ProductBasis, Spectrum,
                            eigendecompose, gft_2d,
                            gft_extended, inverse_gft, symmetric_eigh,
                            truncate_spectrum, write_spectrum_csv,
                            write_tensor_csv)
from helpers import random_graph


def _basis(rng, n1, n2, weighted=True):
    s1 = eigendecompose(laplacian(random_graph(rng, n1, weighted)))
    s2 = eigendecompose(laplacian(random_graph(rng, n2, weighted)))
    return ProductBasis(s1, s2)


# ---------------------------------------------------------------- eigensolver

def test_path3_spectrum_analytic():
    # characteristic polynomial of the P3 Laplacian factors as x(x-1)(x-3)
    spec = eigendecompose(laplacian(build_line_graph(3)))
    assert np.max(np.abs(spec.eigenvalues - [0.0, 1.0, 3.0])) < 1e-8
    # the zero mode of a connected graph is the constant vector
    assert np.max(np.abs(spec.eigenvectors[:, 0] - 1 / np.sqrt(3))) < 1e-9


def test_star9_spectrum_analytic():
    spec = eigendecompose(laplacian(build_spider_graph(9)))
    want = np.array([0.0] + [1.0] * 7 + [9.0])
    assert np.max(np.abs(spec.eigenvalues - want)) < 1e-8


def test_star9_eigenvalues_ascend_up_to_degeneracy_tolerance():
    # Columns of the eigenvalue-1 group are ordered by eigenvector and carry
    # their eigenvalues along, so the group may step down by float noise.
    lap = laplacian(build_spider_graph(9)).matrix
    for w, v in (symmetric_eigh(lap), symmetric_eigh(np.stack([lap, lap]))):
        w, v = np.atleast_2d(w), v.reshape(-1, 9, 9)
        for w_b, v_b in zip(w, v):
            assert np.min(np.diff(w_b)) >= -DEGENERACY_TOL
            assert np.max(np.abs(lap @ v_b - v_b * w_b)) <= 1e-12


def test_single_node_laplacian():
    spec = eigendecompose(Laplacian(np.zeros((1, 1))))
    assert np.array_equal(spec.eigenvalues, [0.0])
    assert np.array_equal(spec.eigenvectors, [[1.0]])


def test_rejects_asymmetric_input():
    asym = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        symmetric_eigh(asym)
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        symmetric_eigh(np.stack([np.eye(2), asym]))
    for shape in ((2, 3), (4, 2, 3), (2, 2, 2, 2), (3,)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            symmetric_eigh(np.zeros(shape))


def test_random_laplacians_residual_and_orthonormality():
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 21)))
        lap = laplacian(g).matrix
        w, v = symmetric_eigh(lap)
        n = lap.shape[0]
        assert np.max(np.abs(lap @ v - v * w)) < 1e-9
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-9
        # ascending order (up to reordering inside degenerate groups)
        assert np.all(np.diff(w) > -1e-8)
        # numpy oracle for the values themselves
        assert np.max(np.abs(w - np.linalg.eigvalsh(lap))) < 1e-8
        # connected-or-not, a Laplacian always has eigenvalue 0
        assert abs(w[0]) < 1e-9


def test_eigensolver_deterministic_bitwise():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(14, 14))
    a = a @ a.T
    w1, v1 = symmetric_eigh(a)
    w2, v2 = symmetric_eigh(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        a = rng.normal(size=(n, n))
        _, v = symmetric_eigh(a @ a.T)
        for j in range(n):
            k = int(np.argmax(np.abs(v[:, j])))
            assert v[k, j] > 0.0


def test_degenerate_group_is_lexicographically_ordered():
    # star(6) has eigenvalue 1 with multiplicity 4
    w, v = symmetric_eigh(laplacian(build_spider_graph(6)).matrix)
    group = [j for j in range(6) if abs(w[j] - 1.0) < 1e-8]
    assert len(group) == 4
    cols = [tuple(v[:, j]) for j in group]
    assert cols == sorted(cols)
    assert np.max(np.abs(v.T @ v - np.eye(6))) < 1e-9


def _assert_stack_matches_single_solves(stack):
    w, v = symmetric_eigh(stack)
    assert w.shape == stack.shape[:2] and v.shape == stack.shape
    for i, a in enumerate(stack):
        w1, v1 = symmetric_eigh(a)
        assert np.array_equal(w[i], w1)
        assert np.array_equal(v[i], v1)


def test_stacked_inverse_distance_stars_match_single_solves():
    rng = np.random.default_rng(21)
    star = build_spider_graph(9)
    laps = []
    for i in range(200):
        positions = np.vstack([[0.0, 0.0],
                               rng.uniform([-40.0, -7.0], [40.0, 7.0], (8, 2))])
        # ghost vehicles sit on or next to the target, closer than D_FLOOR,
        # so their weights are clamped to 1 / D_FLOOR and tie
        n_ghosts = i % 4
        if n_ghosts:
            positions[9 - n_ghosts:] = rng.uniform(-0.5, 0.5, 2) * D_FLOOR * (i % 8 > 3)
        laps.append(laplacian(apply_inverse_distance_weights(star, positions)).matrix)
    assert sum(np.sum(lap[0] == -1.0 / D_FLOOR) >= 2 for lap in laps) >= 90
    _assert_stack_matches_single_solves(np.stack(laps))


def _sweeps_needed(a):
    for sweeps in range(1, 20):
        try:
            symmetric_eigh(a, max_sweeps=sweeps)
        except RuntimeError:
            continue
        return sweeps
    raise AssertionError("no convergence within 20 sweeps")


def test_stacked_spd_members_converge_independently():
    rng = np.random.default_rng(22)
    members = []
    for spread in (0.0, 1e-9, 1e-3, 1.0, 10.0):
        x = rng.normal(size=(7, 7))
        members.append(np.diag(rng.uniform(1.0, 50.0, 7)) + spread * (x @ x.T))
    stack = np.stack(members)
    sweeps = [_sweeps_needed(a) for a in stack]
    assert sweeps[0] == 1  # already diagonal: converged before any sweep
    assert len(set(sweeps)) >= 3
    _assert_stack_matches_single_solves(stack)
    # the stack fails exactly when its slowest member does
    symmetric_eigh(stack, max_sweeps=max(sweeps))
    with pytest.raises(RuntimeError, match="did not converge"):
        symmetric_eigh(stack, max_sweeps=max(sweeps) - 1)


def test_stacked_degenerate_stars_and_single_nodes():
    for n in (2, 6, 9):
        star = laplacian(build_spider_graph(n)).matrix
        _assert_stack_matches_single_solves(np.stack([star, 2.0 * star, star]))
    _assert_stack_matches_single_solves(np.array([[[0.0]], [[3.5]]]))
    w, v = symmetric_eigh(np.zeros((0, 4, 4)))
    assert w.shape == (0, 4) and v.shape == (0, 4, 4)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.zeros(3), np.zeros((2, 2)))


# ------------------------------------------------------------------ transform

def test_gft_matches_double_sum_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        basis = _basis(rng, 5, 4)
        f = rng.normal(size=(5, 4))
        fhat = gft_2d(f, basis)
        u1 = basis.temporal.eigenvectors
        u2 = basis.spatial.eigenvectors
        slow = np.zeros((5, 4))
        for l1 in range(5):
            for l2 in range(4):
                acc = 0.0
                for i1 in range(5):
                    for i2 in range(4):
                        acc += f[i1, i2] * u1[i1, l1] * u2[i2, l2]
                slow[l1, l2] = acc
        assert np.max(np.abs(fhat - slow)) < 1e-12


def test_gft_constant_signal_concentrates_at_origin():
    # both factor graphs connected: the (0,0) mode is the constant vector
    basis = ProductBasis(eigendecompose(laplacian(build_line_graph(6))),
                         eigendecompose(laplacian(build_spider_graph(5))))
    f = np.full((6, 5), 2.0)
    fhat = gft_2d(f, basis)
    assert abs(fhat[0, 0] - 2.0 * np.sqrt(30)) < 1e-9
    rest = fhat.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-9


def test_gft_of_basis_outer_product_is_indicator():
    rng = np.random.default_rng(2)
    basis = _basis(rng, 6, 4)
    f = np.outer(basis.temporal.eigenvectors[:, 3], basis.spatial.eigenvectors[:, 1])
    fhat = gft_2d(f, basis)
    want = np.zeros((6, 4))
    want[3, 1] = 1.0
    assert np.max(np.abs(fhat - want)) < 1e-9


def test_gft_linearity():
    rng = np.random.default_rng(3)
    basis = _basis(rng, 5, 5)
    f1 = rng.normal(size=(5, 5))
    f2 = rng.normal(size=(5, 5))
    lhs = gft_2d(2.0 * f1 - 0.5 * f2, basis)
    rhs = 2.0 * gft_2d(f1, basis) - 0.5 * gft_2d(f2, basis)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gft_parseval():
    rng = np.random.default_rng(4)
    for _ in range(10):
        basis = _basis(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        f = rng.normal(size=basis.shape)
        fhat = gft_2d(f, basis)
        assert abs(np.sum(f ** 2) - np.sum(fhat ** 2)) < 1e-9 * max(1.0, np.sum(f ** 2))


def test_gft_extended_is_channelwise(basis_75x9):
    rng = np.random.default_rng(6)
    f = rng.normal(size=(4, 75, 9))
    fhat = gft_extended(f, basis_75x9)
    assert fhat.shape == (4, 75, 9)
    for k in range(4):
        assert np.array_equal(fhat[k], gft_2d(f[k], basis_75x9))


def test_gft_2d_is_the_one_transform():
    assert gft_2d is gft_extended


def test_gft_leading_axes_match_per_signal_transforms():
    rng = np.random.default_rng(18)
    basis = _basis(rng, 6, 4)
    f = rng.normal(size=(3, 2, 6, 4))
    fhat = gft_extended(f, basis)
    assert fhat.shape == f.shape
    for idx in np.ndindex(3, 2):
        assert np.array_equal(fhat[idx], gft_extended(f[idx], basis))
    assert np.max(np.abs(inverse_gft(fhat, basis) - f)) < 1e-9
    assert np.array_equal(inverse_gft(fhat, basis, 2)[1, 0],
                          inverse_gft(fhat[1, 0], basis, 2))
    s = truncate_spectrum(fhat, 2)
    assert s.shape == (3, 16)
    assert np.array_equal(s[2], truncate_spectrum(fhat[2], 2))


def test_gft_per_item_spatial_bases_broadcast():
    rng = np.random.default_rng(19)
    basis = _basis(rng, 6, 4)
    f = rng.normal(size=(3, 2, 6, 4))
    spatial = np.stack([_basis(rng, 2, 4).spatial.eigenvectors for _ in range(3)])
    fhat = gft_extended(f, basis, spatial[:, None])
    for b in range(3):
        item = ProductBasis(basis.temporal, Spectrum(np.zeros(4), spatial[b]))
        assert np.array_equal(fhat[b], gft_extended(f[b], item))
    with pytest.raises(ValueError, match="spatial bases"):
        gft_extended(f, basis, spatial[:, None, :3])


def test_gft_shape_mismatch():
    rng = np.random.default_rng(8)
    basis = _basis(rng, 5, 4)
    with pytest.raises(ValueError):
        gft_2d(np.zeros((4, 5)), basis)
    with pytest.raises(ValueError):
        gft_extended(np.zeros((2, 4, 5)), basis)
    with pytest.raises(ValueError):
        gft_extended(np.zeros(4), basis)
    with pytest.raises(ValueError):
        inverse_gft(np.zeros((2, 5, 5)), basis)
    with pytest.raises(ValueError):
        truncate_spectrum(np.zeros((5, 4)), 1)


def test_inverse_roundtrip_full_p():
    rng = np.random.default_rng(10)
    basis = _basis(rng, 7, 5)
    f = rng.normal(size=(3, 7, 5))
    rec = inverse_gft(gft_extended(f, basis), basis)
    assert np.max(np.abs(rec - f)) < 1e-9


def test_inverse_p1_exact_for_time_constant_signal():
    rng = np.random.default_rng(12)
    basis = ProductBasis(eigendecompose(laplacian(build_line_graph(8))),
                         eigendecompose(laplacian(build_spider_graph(4))))
    row = rng.normal(size=(2, 1, 4))
    f = np.broadcast_to(row, (2, 8, 4)).copy()
    rec = inverse_gft(gft_extended(f, basis), basis, p=1)
    assert np.max(np.abs(rec - f)) < 1e-9


def test_inverse_error_monotone_in_p():
    rng = np.random.default_rng(13)
    basis = _basis(rng, 10, 4)
    f = rng.normal(size=(2, 10, 4))
    fhat = gft_extended(f, basis)
    errs = [np.linalg.norm(inverse_gft(fhat, basis, p) - f) for p in range(1, 11)]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-9


def test_inverse_p_out_of_range():
    rng = np.random.default_rng(14)
    basis = _basis(rng, 5, 4)
    fhat = np.zeros((5, 4))
    with pytest.raises(ValueError):
        inverse_gft(fhat, basis, p=0)
    with pytest.raises(ValueError):
        inverse_gft(fhat, basis, p=6)


def test_truncate_flattening_order():
    rng = np.random.default_rng(15)
    fhat = rng.normal(size=(3, 6, 4))
    s = truncate_spectrum(fhat, p=2)
    assert s.shape == (3 * 2 * 4,)
    for k in range(3):
        for l1 in range(2):
            for l2 in range(4):
                assert s[k * 8 + l1 * 4 + l2] == fhat[k, l1, l2]


def test_truncate_lengths_per_preset_grid():
    fhat = np.zeros((4, 75, 9))
    assert truncate_spectrum(fhat, 75).size == 2700
    assert truncate_spectrum(fhat, 15).size == 540
    assert truncate_spectrum(fhat, 5).size == 180
    with pytest.raises(ValueError):
        truncate_spectrum(fhat, 76)


def test_transform_deterministic_bitwise(basis_30x9):
    rng = np.random.default_rng(16)
    f = rng.normal(size=(4, 30, 9))
    assert np.array_equal(gft_extended(f, basis_30x9), gft_extended(f, basis_30x9))


def test_csv_writers(tmp_path, basis_30x9):
    import csv as csvmod
    spath = tmp_path / "eig.csv"
    write_spectrum_csv(basis_30x9, spath)
    with open(spath, newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0] == ["axis", "index", "eigenvalue"]
    assert len(rows) == 1 + 30 + 9
    assert float(rows[1][2]) == basis_30x9.temporal.eigenvalues[0]

    tpath = tmp_path / "coef.csv"
    rng = np.random.default_rng(17)
    fhat = rng.normal(size=(2, 3, 4))
    write_tensor_csv(fhat, tpath)
    with open(tpath, newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert len(rows) == 1 + 24
    k, l1, l2, val = rows[5]
    assert float(val) == fhat[int(k), int(l1), int(l2)]
