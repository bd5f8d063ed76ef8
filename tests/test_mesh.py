"""Gauss-Lobatto rules, mesh assembly and sums over the lumped mass."""
import numpy as np
import pytest

from swnls.mesh import (NEUMANN, PERIODIC, build_mesh, gauss_lobatto,
                        lagrange_diff_matrix, nodal_derivative)


def test_gauss_lobatto_k1():
    # the general rule: P_1' has no roots, so the nodes are the end points alone
    nodes, weights = gauss_lobatto(1)
    assert np.array_equal(nodes, [-1.0, 1.0])
    assert np.array_equal(weights, [1.0, 1.0])


def test_gauss_lobatto_k2():
    # solve the moment equations by hand: w0=w2=1/3, w1=4/3, interior node 0
    nodes, weights = gauss_lobatto(2)
    assert np.array_equal(nodes, [-1.0, 0.0, 1.0])
    assert np.array_equal(weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0])


def test_gauss_lobatto_k3():
    # interior nodes are the roots of P3': +-1/sqrt(5)
    nodes, weights = gauss_lobatto(3)
    s5 = 1.0 / np.sqrt(5.0)
    assert np.allclose(nodes, [-1.0, -s5, s5, 1.0], atol=1e-14)
    assert np.allclose(weights, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0], atol=1e-14)


@pytest.mark.parametrize("k", range(1, 17))
def test_quadrature_exactness(k):
    nodes, weights = gauss_lobatto(k)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert abs(weights.sum() - 2.0) <= 1e-13
    for m in range(2 * k):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(np.sum(weights * nodes**m) - exact) <= 1e-12, f"moment {m}"


@pytest.mark.parametrize("k", [0, 17, -3])
def test_gauss_lobatto_rejects_bad_degree(k):
    with pytest.raises(ValueError):
        gauss_lobatto(k)


def test_diff_matrix_kills_constants_and_differentiates_linears():
    nodes, _ = gauss_lobatto(4)
    D = lagrange_diff_matrix(nodes)
    assert np.max(np.abs(D @ np.ones(5))) <= 1e-14 * np.max(np.abs(D))
    assert np.allclose(D @ nodes, np.ones(5), atol=1e-13)


def test_build_mesh_neumann_mass():
    m = build_mesh(-2.0, 2.0, 4, 1, NEUMANN)
    assert m.num_nodes == 5
    assert np.allclose(m.coords, [-2, -1, 0, 1, 2], atol=0)
    assert np.allclose(m.mass, [0.5, 1.0, 1.0, 1.0, 0.5], atol=1e-15)


def test_build_mesh_periodic_mass():
    m = build_mesh(-2.0, 2.0, 4, 1, PERIODIC)
    assert m.num_nodes == 4
    assert np.allclose(m.mass, [1.0, 1.0, 1.0, 1.0], atol=1e-15)
    assert m.coords[0] == -2.0


@pytest.mark.parametrize("k", range(1, 17))
def test_coords_strictly_increasing(k):
    # snapshot rows are written in node order, which must be x order
    from dataclasses import replace
    from swnls.app import DiscretizationSpec, builtin_scenario
    sponge = replace(builtin_scenario("vacuum_generation"), eps=0.32,
                     discretization=DiscretizationSpec(degree=k))
    meshes = [build_mesh(-2.0, 2.0, 9, k, topology) for topology in (NEUMANN, PERIODIC)]
    for m in meshes + [sponge.build_mesh()]:
        assert np.all(np.diff(m.coords) > 0.0)


def test_single_element_stiffness():
    h_e = 0.25
    m = build_mesh(0.0, h_e, 1, 1, NEUMANN)
    K = m.stiffness.toarray()
    assert np.allclose(K, [[1 / h_e, -1 / h_e], [-1 / h_e, 1 / h_e]], rtol=1e-14)


def test_build_mesh_errors():
    with pytest.raises(ValueError):
        build_mesh(1.0, 1.0, 4, 1)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 0, 1)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 1, 1, PERIODIC)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 4, 1, "dirichlet")


@pytest.mark.parametrize("k,topology", [(1, NEUMANN), (1, PERIODIC),
                                        (2, NEUMANN), (3, PERIODIC),
                                        (5, NEUMANN)])
def test_stiffness_properties(k, topology):
    m = build_mesh(-1.5, 2.5, 7, k, topology)
    K = m.stiffness
    diff = K - K.T
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0  # exact symmetry
    scale = np.max(np.abs(K.data))
    assert np.max(np.abs(K @ np.ones(m.num_nodes))) <= 1e-12 * scale
    eigs = np.linalg.eigvalsh(K.toarray())
    assert eigs.min() >= -1e-12 * scale
    assert m.mass.min() > 0.0


@pytest.mark.parametrize("elements, topology", [(2, PERIODIC), (3, PERIODIC), (40, PERIODIC),
                                                (1, NEUMANN), (2, NEUMANN), (41, NEUMANN)])
def test_stiffness_bands_have_the_bits_of_the_assembled_matrix(elements, topology):
    m = build_mesh(-1.5, 2.5, elements, 1, topology)
    diagonal, off, corner = m.stiffness_bands()
    K = m.stiffness
    n = m.num_nodes
    assert np.array_equal(diagonal, K.diagonal())
    assert (corner != 0.0) == (topology == PERIODIC)
    if n == 2:
        # the off-diagonal and the corner land on one entry, their sum
        assert off[0] + corner == K[0, 1] == K[1, 0]
        assert K.nnz == 4
    else:
        assert np.array_equal(off, K.diagonal(1)) and np.array_equal(off, K.diagonal(-1))
        assert corner == K[0, n - 1] == K[n - 1, 0]
        # nothing else: the bands hold every entry of K
        assert K.nnz == n + 2 * (n - 1) + 2 * (topology == PERIODIC)


def test_stiffness_bands_refuse_other_meshes():
    with pytest.raises(ValueError, match="for degree-1 meshes$"):
        build_mesh(-1.0, 1.0, 4, 2, NEUMANN).stiffness_bands()


def test_stiffness_is_assembled_once_per_mesh():
    m = build_mesh(-1.0, 1.0, 6, 2, PERIODIC)
    assert m.stiffness is m.stiffness


def test_inner_product_examples():
    m = build_mesh(-2.0, 2.0, 4, 1, NEUMANN)
    ones = np.ones(5)
    assert np.sum(m.mass * ones * ones) == pytest.approx(4.0, abs=1e-14)
    assert np.sum(m.mass * ones * 1j * ones) == pytest.approx(4.0j, abs=1e-14)
    # k=1 quadrature is inexact for x^2 (exact integral 16/3); the lumped sum is 6
    assert np.sum(m.mass * m.coords * m.coords) == pytest.approx(6.0, abs=1e-14)


def test_refinement_consistency():
    # the lumped-mass sum of u^2 converges to the true integral of sin^2 at order >= 2
    exact = 2.0 - 0.5 * np.sin(4.0)
    errs = []
    for M in (20, 40, 80):
        m = build_mesh(-2.0, 2.0, M, 1, NEUMANN)
        u = np.sin(m.coords)
        errs.append(abs(np.sum(m.mass * u * u) - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), orders


def test_nodal_derivative_averages_at_interfaces():
    m = build_mesh(0.0, 1.0, 4, 1, NEUMANN)
    d = nodal_derivative(m, m.coords**2)
    # elementwise slope of x^2 on [a,b] is a+b; interface average gives 2*x_j
    assert d[1] == pytest.approx(0.5)
    assert d[2] == pytest.approx(1.0)
    assert d[0] == pytest.approx(0.25)  # one-sided at the boundary
