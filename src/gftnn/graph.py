"""Interaction graphs for highway traffic scenes.

A scenario is modelled by two factor graphs: a temporal line graph over the
observed time steps and a spatial graph over the vehicles (spider by
default, optionally a fully connected mesh). Runtime code only ever touches
the factors; the explicit Cartesian product is provided because its
Laplacian, the Kronecker sum of the factor Laplacians, makes the
factorization checkable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Minimum hub distance used for inverse-distance edge weights. Ghost
# vehicles sit exactly on the target, so raw distances can be zero.
D_FLOOR = 0.1


def _frozen(values, dtype=np.float64):
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph, given by its symmetric weight matrix.

    Nodes i and j share an edge wherever ``weights[i, j] > 0``; unweighted
    graphs carry weight 1 on every edge.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError(
                f"weight matrix must be square with at least one node, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("edge weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(w < 0.0):
            raise ValueError("edge weights must be non-negative")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("self loops are not allowed")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """1 on every edge, 0 elsewhere."""
        return _frozen(self.weights > 0.0)

    @property
    def n_edges(self) -> int:
        return np.count_nonzero(self.weights) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian D - W of an undirected weighted graph."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"laplacian must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("laplacian entries must be finite")
        if np.max(np.abs(m - m.T), initial=0.0) > 1e-9:
            raise ValueError("laplacian must be symmetric")
        if np.max(np.abs(m.sum(axis=1)), initial=0.0) > 1e-9:
            raise ValueError("laplacian rows must sum to zero")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


def build_line_graph(n_nodes: int) -> Graph:
    """Path over ``n_nodes`` consecutive time steps, unit weights."""
    if n_nodes < 2:
        raise ValueError(f"line graph needs at least 2 nodes, got {n_nodes}")
    w = np.zeros((n_nodes, n_nodes))
    idx = np.arange(n_nodes - 1)
    w[idx, idx + 1] = 1.0
    w[idx + 1, idx] = 1.0
    return Graph(w)


def build_spider_graph(n_nodes: int) -> Graph:
    """Star: every node connects to the hub, node 0 (the target vehicle), only."""
    if n_nodes < 2:
        raise ValueError(f"spider graph needs at least 2 nodes, got {n_nodes}")
    w = np.zeros((n_nodes, n_nodes))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return Graph(w)


def build_mesh_graph(n_nodes: int) -> Graph:
    """Complete graph: every vehicle pair interacts, unit weights."""
    if n_nodes < 2:
        raise ValueError(f"mesh graph needs at least 2 nodes, got {n_nodes}")
    return Graph(np.ones((n_nodes, n_nodes)) - np.eye(n_nodes))


def inverse_distance_weights(positions) -> np.ndarray:
    """Spoke weights of a star around node 0 from planar positions.

    positions: (..., n_nodes, 2) coordinates; returns (..., n_nodes - 1)
    weights 1 / |p_i - p_0| of nodes 1 .. n_nodes - 1. Distances below
    D_FLOOR are clamped so co-located ghost vehicles get weight 1/D_FLOOR
    instead of a singularity.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim < 2 or pos.shape[-1] != 2:
        raise ValueError(f"positions must be (..., n_nodes, 2), got {pos.shape}")
    d = np.hypot(pos[..., 1:, 0] - pos[..., :1, 0], pos[..., 1:, 1] - pos[..., :1, 1])
    return 1.0 / np.maximum(d, D_FLOOR)


def apply_inverse_distance_weights(graph: Graph, positions) -> Graph:
    """Reweight a spider graph around node 0 by inverse hub distance
    (see ``inverse_distance_weights``).

    positions: (n_nodes, 2) planar coordinates.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (graph.n_nodes, 2):
        raise ValueError(f"positions shape {pos.shape} does not match {graph.n_nodes} nodes")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    if graph.weights[1:, 1:].any():
        raise ValueError("inverse-distance weighting expects a hub-and-spokes graph")
    w = np.zeros_like(graph.weights)
    w[0, 1:] = np.where(graph.weights[0, 1:] > 0.0, inverse_distance_weights(pos), 0.0)
    w[1:, 0] = w[0, 1:]
    return Graph(w)


def laplacian(graph: Graph) -> Laplacian:
    w = graph.weights
    return Laplacian(np.diag(w.sum(axis=1)) - w)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product graph, nodes ordered (i1, i2) row-major.

    Edges connect (i1, i2)-(j1, i2) for i1~j1 and (i1, i2)-(i1, j2) for
    i2~j2, so the product Laplacian is L1 (x) I + I (x) L2.
    """
    return Graph(np.kron(g1.weights, np.eye(g2.n_nodes))
                 + np.kron(np.eye(g1.n_nodes), g2.weights))
