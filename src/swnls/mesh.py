"""One-dimensional spectral element infrastructure.

Gauss-Lobatto quadrature rules, uniform C0 meshes with Neumann or periodic
topology, the diagonal (quadrature-lumped) mass vector and the sparse
stiffness matrix.  Global nodes are ordered left to right with shared
element-boundary nodes stored once, so the stiffness matrix is banded with
bandwidth equal to the polynomial degree (plus two corner blocks in the
periodic case).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from numpy.polynomial import legendre as npleg

MAX_DEGREE = 16

NEUMANN = "neumann"
PERIODIC = "periodic"


@dataclass(frozen=True, eq=False)
class GaussLobattoRule:
    """Gauss-Lobatto rule on [-1, 1]: k+1 points, exact through degree 2k-1."""

    degree: int
    nodes: np.ndarray
    weights: np.ndarray


def gauss_lobatto(k: int) -> GaussLobattoRule:
    """Return the (k+1)-point Gauss-Lobatto rule on the reference interval."""
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"unsupported degree k={k}: need integer 1 <= k <= {MAX_DEGREE}")
    k = int(k)
    ck = np.zeros(k + 1)
    ck[k] = 1.0  # Legendre coefficient vector of P_k
    if k == 1:
        nodes = np.array([-1.0, 1.0])
    else:
        dk = npleg.legder(ck)
        interior = np.sort(npleg.legroots(dk).real)
        d2k = npleg.legder(dk)
        for _ in range(3):  # Newton polish of the companion-matrix roots
            interior = interior - npleg.legval(interior, dk) / npleg.legval(interior, d2k)
        nodes = np.concatenate(([-1.0], interior, [1.0]))
        nodes = 0.5 * (nodes - nodes[::-1])  # enforce exact symmetry
    pk = npleg.legval(nodes, ck)
    weights = 2.0 / (k * (k + 1) * pk * pk)
    weights = 0.5 * (weights + weights[::-1])
    return GaussLobattoRule(k, nodes, weights)


def lagrange_diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Differentiation matrix D[q, j] = L_j'(nodes[q]) for the nodal Lagrange basis.

    Built from barycentric weights; diagonal entries balance each row so
    constants differentiate to zero (up to rounding in the row sums).
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    bary = np.empty(n)
    for j in range(n):
        bary[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bary[j] / bary[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, :])
    return D


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform C0 spectral-element mesh on [a, b].

    ``coords`` holds one coordinate per global unknown: M*k+1 nodes for
    Neumann topology, M*k for periodic (the right endpoint is identified
    with the left).  ``conn[e, i]`` maps element-local node i of element e
    to its global index.
    """

    a: float
    b: float
    num_elements: int
    degree: int
    topology: str
    rule: GaussLobattoRule
    coords: np.ndarray
    mass: np.ndarray
    stiffness: sparse.csr_matrix
    conn: np.ndarray
    element_length: float
    diff: np.ndarray
    node_multiplicity: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.coords.size


def build_mesh(a: float, b: float, num_elements: int, degree: int,
               topology: str = NEUMANN) -> Mesh1D:
    """Assemble a uniform mesh with (degree+1)-point Gauss-Lobatto elements."""
    if not b > a:
        raise ValueError(f"degenerate domain [{a}, {b}]")
    if topology not in (NEUMANN, PERIODIC):
        raise ValueError(f"unknown topology {topology!r}")
    min_elems = 2 if topology == PERIODIC else 1
    if num_elements < min_elems:
        raise ValueError(f"need at least {min_elems} elements for {topology} topology, "
                         f"got {num_elements}")
    rule = gauss_lobatto(degree)
    k = rule.degree
    M = int(num_elements)
    h_e = (b - a) / M
    n = M * k + (0 if topology == PERIODIC else 1)

    conn = np.arange(M)[:, None] * k + np.arange(k + 1)[None, :]
    if topology == PERIODIC:
        conn = conn % n

    coords = np.empty(n)
    elem_x = a + np.arange(M)[:, None] * h_e + 0.5 * (rule.nodes[None, :] + 1.0) * h_e
    coords[conn.ravel()] = elem_x.ravel()
    coords[0] = a  # wraparound assignment above may have left coords[0] = b

    mass = np.zeros(n)
    np.add.at(mass, conn, np.broadcast_to(0.5 * h_e * rule.weights, conn.shape))

    D = lagrange_diff_matrix(rule.nodes)
    k_loc = (2.0 / h_e) * (D.T @ (rule.weights[:, None] * D))
    k_loc = 0.5 * (k_loc + k_loc.T)  # exact symmetry
    rows = np.repeat(conn, k + 1, axis=1).ravel()
    cols = np.tile(conn, (1, k + 1)).ravel()
    data = np.tile(k_loc.ravel(), M)
    stiffness = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    multiplicity = np.zeros(n)
    np.add.at(multiplicity, conn, 1.0)

    return Mesh1D(a=float(a), b=float(b), num_elements=M, degree=k,
                  topology=topology, rule=rule, coords=coords, mass=mass,
                  stiffness=stiffness, conn=conn, element_length=h_e,
                  diff=D, node_multiplicity=multiplicity)


def element_derivatives(mesh: Mesh1D, values: np.ndarray) -> np.ndarray:
    """Per-element derivative of the nodal field; entry [e, i] is the one-sided
    derivative at local node i of element e."""
    elem_vals = values[mesh.conn]
    return (2.0 / mesh.element_length) * (elem_vals @ mesh.diff.T)


def nodal_derivative(mesh: Mesh1D, values: np.ndarray) -> np.ndarray:
    """Nodal derivative; the one-sided values of adjacent elements are averaged
    at shared element-boundary nodes."""
    d = element_derivatives(mesh, values)
    out = np.zeros(mesh.num_nodes, dtype=d.dtype)
    np.add.at(out, mesh.conn, d)
    return out / mesh.node_multiplicity
