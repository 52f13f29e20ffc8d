import numpy as np
import pytest

from gftnn.graph import (D_FLOOR, Graph, Laplacian,
                         apply_inverse_distance_weights, build_line_graph,
                         build_mesh_graph, build_spider_graph,
                         cartesian_product, laplacian)
from helpers import random_graph


def test_line_graph_two_nodes():
    g = build_line_graph(2)
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])
    assert g.n_edges == 1


def test_line_graph_degrees():
    g = build_line_graph(3)
    assert np.array_equal(g.degrees(), [1, 2, 1])
    g = build_line_graph(75)
    assert g.n_edges == 74
    assert np.array_equal(g.degrees()[1:-1], np.full(73, 2.0))


def test_line_graph_needs_two_nodes():
    with pytest.raises(ValueError):
        build_line_graph(1)


def test_spider_graph_layout():
    g = build_spider_graph(9)
    assert g.degrees()[0] == 8
    assert np.array_equal(g.degrees()[1:], np.ones(8))
    assert g.n_edges == 8


def test_spider_graph_needs_two_nodes():
    with pytest.raises(ValueError):
        build_spider_graph(1)


def test_mesh_graph_edge_counts():
    assert build_mesh_graph(3).n_edges == 3
    assert build_mesh_graph(9).n_edges == 36
    # with two nodes, line, spider and mesh coincide
    assert np.array_equal(build_mesh_graph(2).adjacency,
                          build_spider_graph(2).adjacency)


def test_graph_from_weight_matrix_custom_scene():
    adj = np.array([[0, 1, 1, 0],
                    [1, 0, 0, 0],
                    [1, 0, 0, 1],
                    [0, 0, 1, 0]], dtype=float)
    g = Graph(adj)
    assert (g.n_nodes, g.n_edges) == (4, 3)
    assert np.array_equal(g.adjacency, adj)
    assert np.array_equal(g.degrees(), [2.0, 1.0, 2.0, 1.0])
    gw = Graph(adj * 2.5)
    assert gw.weights[0, 1] == 2.5
    # edges are where the weight is positive, whatever its size
    assert np.array_equal(gw.adjacency, adj)
    assert gw.n_edges == 3


@pytest.mark.parametrize("weights, message", [
    (np.array([[0.0, 1.0], [0.5, 0.0]]), "symmetric"),
    (np.array([[1.0, 1.0], [1.0, 0.0]]), "self loops"),
    (np.array([[0.0, -1.0], [-1.0, 0.0]]), "non-negative"),
    (np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
    (np.zeros((2, 3)), "square"),
    (np.zeros((0, 0)), "at least one node"),
    (np.zeros(3), "square"),
])
def test_graph_validation(weights, message):
    with pytest.raises(ValueError, match=message):
        Graph(weights)


def test_frozen_arrays():
    g = build_line_graph(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0.0
    with pytest.raises(ValueError):
        g.weights[0, 1] = 0.0
    # the graph keeps its own copy of the caller's matrix
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    g = Graph(w)
    w[0, 1] = w[1, 0] = 5.0
    assert g.weights[0, 1] == 2.0


def test_inverse_distance_weights():
    g = build_spider_graph(3)
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    gw = apply_inverse_distance_weights(g, pos)
    assert gw.weights[0, 1] == 0.5
    # co-located ghost is clamped at d_floor
    assert gw.weights[0, 2] == 1.0 / D_FLOOR == 10.0
    assert np.array_equal(gw.adjacency, g.adjacency)


def test_inverse_distance_unit_distances_match_unweighted():
    g = build_spider_graph(4)
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    gw = apply_inverse_distance_weights(g, pos)
    assert np.array_equal(gw.weights, g.weights)


def test_inverse_distance_rejects_non_spider():
    pos = np.zeros((3, 2))
    with pytest.raises(ValueError):
        apply_inverse_distance_weights(build_mesh_graph(3), pos)
    with pytest.raises(ValueError):
        apply_inverse_distance_weights(build_spider_graph(3), np.full((3, 2), np.nan))
    with pytest.raises(ValueError):
        apply_inverse_distance_weights(build_spider_graph(3), np.zeros((2, 2)))


def test_laplacian_path3_exact():
    lap = laplacian(build_line_graph(3))
    assert np.array_equal(lap.matrix, [[1.0, -1.0, 0.0],
                                       [-1.0, 2.0, -1.0],
                                       [0.0, -1.0, 1.0]])


def test_laplacian_star_structure():
    lap = laplacian(build_spider_graph(9)).matrix
    assert lap[0, 0] == 8.0
    assert np.array_equal(np.diagonal(lap)[1:], np.ones(8))
    assert np.array_equal(lap[0, 1:], -np.ones(8))
    # spokes are not connected to each other
    assert np.array_equal(lap[1:, 1:], np.eye(8))


def test_laplacian_weighted_entries():
    g = build_spider_graph(3)
    gw = apply_inverse_distance_weights(
        g, np.array([[0.0, 0.0], [4.0, 0.0], [0.5, 0.0]]))
    lap = laplacian(gw).matrix
    assert lap[0, 1] == -0.25
    assert lap[1, 1] == 0.25
    assert lap[0, 2] == -2.0
    assert lap[0, 0] == 2.25


def test_laplacian_row_sums_symmetry_psd():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 12)))
        lap = laplacian(g).matrix
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
        assert np.array_equal(lap, lap.T)
        # PSD oracle via numpy
        assert np.linalg.eigvalsh(lap).min() > -1e-9


def test_laplacian_validation():
    with pytest.raises(ValueError):
        Laplacian(np.array([[1.0, 0.0], [0.0, 1.0]]))  # rows don't sum to 0
    with pytest.raises(ValueError):
        Laplacian(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]))  # not square


def test_cartesian_product_p2_p2_is_square_cycle():
    g = cartesian_product(build_line_graph(2), build_line_graph(2))
    assert g.n_nodes == 4
    assert g.n_edges == 4
    assert np.array_equal(g.degrees(), np.full(4, 2.0))


def test_cartesian_product_edge_rule():
    g1 = build_line_graph(3)
    g2 = build_spider_graph(3)
    prod = cartesian_product(g1, g2)
    assert prod.n_nodes == 9
    # |E| = n1*|E2| + n2*|E1|
    assert prod.n_edges == 3 * 2 + 3 * 2
    # (i1,i2)-(j1,j2) is an edge iff one coordinate steps along its factor
    for i1 in range(3):
        for i2 in range(3):
            for j1 in range(3):
                for j2 in range(3):
                    expected = (
                        (i1 == j1 and g2.adjacency[i2, j2] == 1)
                        or (i2 == j2 and g1.adjacency[i1, j1] == 1)
                    )
                    assert prod.adjacency[i1 * 3 + i2, j1 * 3 + j2] == expected


def test_cartesian_product_laplacian_is_kron_sum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g1 = random_graph(rng, int(rng.integers(2, 6)))
        g2 = random_graph(rng, int(rng.integers(2, 6)))
        l1 = laplacian(g1).matrix
        l2 = laplacian(g2).matrix
        lp = laplacian(cartesian_product(g1, g2)).matrix
        want = np.kron(l1, np.eye(g2.n_nodes)) + np.kron(np.eye(g1.n_nodes), l2)
        assert np.max(np.abs(lp - want)) < 1e-12


def test_cartesian_product_spectrum_pairwise_sums_numpy_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g1 = random_graph(rng, int(rng.integers(2, 6)))
        g2 = random_graph(rng, int(rng.integers(2, 6)))
        w1 = np.linalg.eigvalsh(laplacian(g1).matrix)
        w2 = np.linalg.eigvalsh(laplacian(g2).matrix)
        wp = np.linalg.eigvalsh(laplacian(cartesian_product(g1, g2)).matrix)
        sums = np.sort((w1[:, None] + w2[None, :]).ravel())
        assert np.max(np.abs(wp - sums)) < 1e-8

