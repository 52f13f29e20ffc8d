import numpy as np
import pytest

from gftnn.graph import (D_FLOOR, Graph, Laplacian, apply_inverse_distance_weights,
                         build_line_graph, build_mesh_graph, build_spider_graph,
                         inverse_distance_weights, laplacian)
from gftnn.model import build_basis, preset_config, scenario_spectra
from gftnn.scenario import synthesize
from gftnn.spectral import (DEGENERACY_TOL, ProductBasis, Spectrum,
                            complete_spectrum, eigendecompose, gft_2d,
                            gft_extended, inverse_gft, path_spectrum,
                            star_spectra, symmetric_eigh, truncate_spectrum,
                            write_spectrum_csv, write_tensor_csv)
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
    w, v = symmetric_eigh(lap)
    assert np.min(np.diff(w)) >= -DEGENERACY_TOL
    assert np.max(np.abs(lap @ v - v * w)) <= 1e-12


def test_single_node_laplacian():
    spec = eigendecompose(Laplacian(np.zeros((1, 1))))
    assert np.array_equal(spec.eigenvalues, [0.0])
    assert np.array_equal(spec.eigenvectors, [[1.0]])


def test_rejects_asymmetric_input():
    asym = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        symmetric_eigh(asym)
    for shape in ((2, 3), (4, 2, 3), (2, 2, 2), (2, 2, 2, 2), (3,)):
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


# --------------------------------------------------------------- closed forms

def _star_laplacian(leaf_weights):
    n = len(leaf_weights) + 1
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = leaf_weights
    return laplacian(Graph(w)).matrix


def _assert_is_spectrum_of(lap, w, v):
    # residual and orthonormality against the matrix, values against numpy,
    # and eigenvalues that never step down
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.max(np.abs(lap @ v - v * w)) <= 1e-12 * scale
    assert np.max(np.abs(v.T @ v - np.eye(w.size))) <= 1e-12
    assert np.max(np.abs(w - np.linalg.eigvalsh(lap))) <= 1e-12 * scale
    assert np.all(np.diff(w) >= 0.0)


def _helmert_columns(n_members):
    # column c - 1 weighs members 0 .. c - 1 by -1 and member c by c
    rows, c = np.arange(n_members)[:, None], np.arange(1, n_members)
    h = np.where(rows < c, -1.0, np.where(rows == c, c, 0.0))
    return h / np.sqrt(c * (c + 1.0))


def _assert_star_sign_rules(leaf_weights, v):
    # Contrast columns have a zero hub entry; every other column follows
    # symmetric_eigh's rule, and the contrasts of each tie group are the
    # Helmert contrasts of its leaves in index order.
    secular = v[0] != 0.0
    lead = np.argmax(np.abs(v[:, secular]), axis=0)
    assert np.all(v[:, secular][lead, np.arange(lead.size)] > 0.0)
    contrasts = v[1:, ~secular]
    n_contrasts = 0
    for weight in np.unique(leaf_weights):
        members = np.flatnonzero(leaf_weights == weight)
        cols = np.flatnonzero(np.any(contrasts[members] != 0.0, axis=0))
        assert cols.size == members.size - 1
        want = np.zeros((leaf_weights.size, cols.size))
        want[members] = _helmert_columns(members.size)
        assert np.max(np.abs(contrasts[:, cols] - want), initial=0.0) <= 1e-15
        n_contrasts += cols.size
    assert n_contrasts == contrasts.shape[1]


@pytest.mark.parametrize("n", [2, 3, 6, 30, 75])
def test_path_spectrum_closed_form(n):
    lap = laplacian(build_line_graph(n)).matrix
    spec = path_spectrum(n)
    _assert_is_spectrum_of(lap, spec.eigenvalues, spec.eigenvectors)
    assert spec.eigenvalues[0] == 0.0
    assert np.all(spec.eigenvectors[-1] > 0.0)
    # Jacobi agrees on the values and, up to sign, on the vectors
    w, v = symmetric_eigh(lap)
    assert np.max(np.abs(w - spec.eigenvalues)) <= 1e-12 * 4.0
    assert np.max(np.abs(np.abs(v) - np.abs(spec.eigenvectors))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 9])
def test_complete_and_unit_star_spectra_closed_form(n):
    mesh = complete_spectrum(n)
    _assert_is_spectrum_of(laplacian(build_mesh_graph(n)).matrix,
                           mesh.eigenvalues, mesh.eigenvectors)
    assert np.array_equal(mesh.eigenvalues, [0.0] + [float(n)] * (n - 1))
    assert np.all(mesh.eigenvectors[:, 0] == mesh.eigenvectors[0, 0])
    assert np.array_equal(mesh.eigenvectors[:, 1:], _helmert_columns(n))

    w, v = star_spectra(np.ones((1, n - 1)))
    assert w.shape == (1, n) and v.shape == (1, n, n)
    _assert_is_spectrum_of(laplacian(build_spider_graph(n)).matrix, w[0], v[0])
    assert np.allclose(w[0], [0.0] + [1.0] * (n - 2) + [float(n)], rtol=0.0,
                       atol=1e-15)
    _assert_star_sign_rules(np.ones(n - 1), v[0])


def _weighted_star_cases():
    rng = np.random.default_rng(31)
    untied = rng.uniform(0.02, 2.0, (6, 8))
    ghosts = untied.copy()
    ghosts[:, 5:] = 1.0 / D_FLOOR        # three ghost slots on the target
    near = untied.copy()
    near[:, 3] = near[:, 1] * (1.0 + 1e-13)
    near[:, 6] = near[:, 1] * (1.0 - 1e-13)
    mixed = untied.copy()
    mixed[:, [0, 4, 7]] = mixed[:, [2]]  # a tie group away from the ends
    return {
        "untied": untied,
        "ghost ties": ghosts,
        "tied to 1e-13": near,
        "mixed ties": mixed,
        "all equal": np.full((3, 8), 0.37),
        "one leaf": rng.uniform(0.02, 10.0, (4, 1)),
    }


@pytest.mark.parametrize("case", sorted(_weighted_star_cases()))
def test_weighted_star_spectra_closed_form(case):
    weights = _weighted_star_cases()[case]
    w, v = star_spectra(weights)
    for leaves, w_b, v_b in zip(weights, w, v):
        _assert_is_spectrum_of(_star_laplacian(leaves), w_b, v_b)
        _assert_star_sign_rules(leaves, v_b)


def test_weighted_star_near_ties_keep_orthogonality_at_rounding_level():
    # Roots squeezed between weights 1e-13 apart: the border recomputed from
    # the roots keeps the eigenvectors orthogonal to a few ulps.
    rng = np.random.default_rng(35)
    weights = rng.uniform(0.02, 2.0, (200, 8))
    weights[:, 3] = weights[:, 1] * (1.0 + 1e-13)
    weights[:, 6] = weights[:, 1] * (1.0 - 1e-13)
    weights[1::2, 5:] = 1.0 / D_FLOOR
    weights[1::2, 4] = (1.0 + 1e-13) / D_FLOOR
    _, v = star_spectra(weights)
    gram = np.einsum("bij,bik->bjk", v, v)
    assert np.max(np.abs(gram - np.eye(9))) <= 2e-15


def test_weighted_star_signs_survive_rounding_noise():
    rng = np.random.default_rng(32)
    weights = rng.uniform(0.02, 2.0, (50, 8))
    weights[:, 6:] = 1.0 / D_FLOOR
    noisy = weights.copy()
    noisy[:, :6] *= 1.0 + 1e-13 * rng.uniform(-1.0, 1.0, (50, 6))
    _, v = star_spectra(weights)
    _, v_noisy = star_spectra(noisy)
    assert np.max(np.abs(v - v_noisy)) <= 1e-9


def test_untied_weighted_stars_match_jacobi():
    rng = np.random.default_rng(33)
    weights = rng.uniform(0.02, 2.0, (20, 8))
    w, v = star_spectra(weights)
    for leaves, w_b, v_b in zip(weights, w, v):
        w_j, v_j = symmetric_eigh(_star_laplacian(leaves))
        assert np.max(np.abs(w_b - w_j)) <= 1e-12 * w_b[-1]
        assert np.max(np.abs(v_b - v_j)) <= 1e-9


def test_star_spectra_rejects_bad_weights():
    for bad in (np.ones(3), np.ones((2, 0)), np.ones((1, 2, 2))):
        with pytest.raises(ValueError, match="stack of leaf weights"):
            star_spectra(bad)
    for bad in ([[1.0, 0.0]], [[1.0, -2.0]], [[np.nan, 1.0]], [[np.inf, 1.0]]):
        with pytest.raises(ValueError, match="finite and positive"):
            star_spectra(np.array(bad))
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            path_spectrum(n)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            complete_spectrum(n)


def test_weighted_scene_coefficients_match_jacobi():
    # Untied columns carry the same coefficients as the Jacobi basis; the
    # contrasts of tied ghost slots, exact copies of the target, carry none.
    cfg = preset_config("gftnn-w", 25)
    basis = build_basis(cfg)
    scenarios = synthesize(40, 25, seed=34, noise_std=0.05)
    rows = scenario_spectra(scenarios, basis, cfg).reshape(len(scenarios), cfg.k,
                                                           cfg.p, cfg.n_v)
    star = build_spider_graph(cfg.n_v)
    n_ghost_groups = 0
    for scen, row in zip(scenarios, rows):
        positions = scen.features[:2, -1].T
        lap = laplacian(apply_inverse_distance_weights(star, positions)).matrix
        _, v_jacobi = symmetric_eigh(lap)
        want = gft_extended(scen.features[2:4], ProductBasis(
            basis.temporal, Spectrum(np.zeros(cfg.n_v), v_jacobi)))
        _, (v_closed,) = star_spectra(inverse_distance_weights(positions)[None])
        secular = v_closed[0] != 0.0
        scale = np.max(np.abs(want))
        assert np.max(np.abs(row[..., secular] - want[..., secular])) <= 1e-9 * scale
        assert np.max(np.abs(row[..., ~secular]), initial=0.0) <= 1e-12
        n_ghost_groups += np.any(~secular)
    assert n_ghost_groups >= 10


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
