import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from mfhier import (ConfigurationError, DomainError, FullOrderLevel,
                    SplitMix64, assemble, compute_qoi, fom, solve_fom)

from conftest import random_coefficients


def analytic_error(n_h, K, T=0.1):
    """Max-node error against the closed-form heat mode e^{-pi^2 t} sin(pi x)."""
    system = assemble(n_h, K, T, 1, source="zero", u0="sine")
    trajectory = solve_fom(system, [1.0])
    exact = math.exp(-math.pi**2 * T) * np.sin(math.pi * system.nodes())
    return float(np.max(np.abs(trajectory.states[-1] - exact))), system, trajectory


# ---------------------------------------------------------------- assembly


def test_hand_assembled_matrices_n2():
    system = assemble(2, 1, 1.0, 1)
    h = 1.0 / 3.0
    np.testing.assert_allclose(system.A[0].toarray(),
                               (1 / h) * np.array([[2.0, -1.0], [-1.0, 2.0]]),
                               atol=1e-14)
    np.testing.assert_allclose(system.M.toarray(),
                               (h / 6) * np.array([[4.0, 1.0], [1.0, 4.0]]),
                               atol=1e-15)
    np.testing.assert_allclose(system.F, [h, h], atol=1e-15)


@pytest.mark.parametrize("Q", [1, 2, 3, 5])
def test_partition_of_unity(Q):
    system = assemble(31, 1, 1.0, Q)
    unit = assemble(31, 1, 1.0, 1)
    total = sum(A.toarray() for A in system.A)
    np.testing.assert_allclose(total, unit.A[0].toarray(), atol=1e-12)


def test_mass_matrix_spd_and_x_spd(small_system):
    M = small_system.M.toarray()
    X = small_system.X.toarray()
    assert np.all(np.linalg.eigvalsh(M) > 0)
    assert np.all(np.linalg.eigvalsh(X) > 0)
    for A in small_system.A:
        assert np.all(np.linalg.eigvalsh(A.toarray()) > -1e-12)


def test_m_half_matches_m_norm(small_system):
    # M = U_m^T U_m, so ||U_m v|| = ||v||_M for vectors and column blocks
    rng = SplitMix64(19)
    for _ in range(20):
        v = random_coefficients(rng, 1, small_system.n_h)[0]
        np.testing.assert_allclose(np.linalg.norm(small_system.m_half(v)),
                                   small_system.m_norm(v), rtol=1e-14)
    block = random_coefficients(rng, small_system.n_h, 5)
    norms = np.linalg.norm(small_system.m_half(block), axis=0)
    np.testing.assert_allclose(
        norms, [small_system.m_norm(v) for v in block.T], rtol=1e-14)


def test_piecewise_source_exact_integration():
    # source constant per subdomain integrates exactly: F_i = sum of exact
    # hat integrals; cross-check against a fine midpoint quadrature
    system = assemble(9, 1, 1.0, 2, source=[2.0, 5.0])
    edges = np.linspace(0, 1, 200001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    spacing = edges[1] - edges[0]
    f = np.where(mids < 0.5, 2.0, 5.0)
    h = system.h
    for i in range(system.n_h):
        xi = (i + 1) * h
        phi = np.clip(1 - np.abs(mids - xi) / h, 0.0, None)
        quad = float(np.sum(f * phi) * spacing)
        assert abs(system.F[i] - quad) < 1e-8


def csr_tridiag(diag, off):
    """Reference: the CSR matrix of symmetric tridiagonal bands; zeros are
    not stored."""
    return scipy.sparse.diags([off, diag, off], [-1, 0, 1],
                              shape=(diag.size, diag.size), format="csr")


def element_loop_assembly(n_h, Q, source_vals):
    """Reference: the former per-element, per-subdomain assembly loop."""
    h = 1.0 / (n_h + 1)

    def band_cholesky(S):
        band = np.zeros((2, S.shape[0]))
        band[0, 1:] = S.diagonal(1)
        band[1] = S.diagonal()
        return scipy.linalg.cholesky_banded(band, check_finite=False)

    M = csr_tridiag(np.full(n_h, 2.0 * h / 3.0), np.full(n_h - 1, h / 6.0))
    A_diag = np.zeros((Q, n_h))
    A_off = np.zeros((Q, n_h - 1))
    F = np.zeros(n_h)
    for e in range(n_h + 1):
        x_left, x_right = e * h, (e + 1) * h
        left_dof, right_dof = e - 1, e
        for q in range(Q):
            a = max(x_left, q / Q)
            b = min(x_right, (q + 1) / Q)
            overlap = b - a
            if overlap <= 0:
                continue
            w = overlap / h**2
            if left_dof >= 0:
                A_diag[q, left_dof] += w
            if right_dof < n_h:
                A_diag[q, right_dof] += w
            if left_dof >= 0 and right_dof < n_h:
                A_off[q, left_dof] -= w
            int_right = ((b - x_left) ** 2 - (a - x_left) ** 2) / (2.0 * h)
            int_left = overlap - int_right
            if left_dof >= 0:
                F[left_dof] += source_vals[q] * int_left
            if right_dof < n_h:
                F[right_dof] += source_vals[q] * int_right
    A = tuple(csr_tridiag(A_diag[q], A_off[q]) for q in range(Q))
    X = sum(A[1:], start=A[0]).tocsr()
    ones = np.ones(n_h)
    qoi_vector = M @ ones
    return dict(M=M, A=A, X=X, F=F, qoi_vector=qoi_vector,
                qoi_const=float(np.sqrt(ones @ qoi_vector)),
                x_chol=band_cholesky(X), m_chol=band_cholesky(M))


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_bands(actual, expected):
    """The bands of ``actual`` are the diagonals of the CSR ``expected``."""
    assert_same_bits(actual.diag, expected.diagonal(0))
    assert_same_bits(actual.off, expected.diagonal(1))


@pytest.mark.parametrize("n_h, Q, source", [
    (200, 2, "one"), (200, 8, "one"), (97, 7, list(range(1, 8))),
    (31, 5, "one"), (8, 8, "one"), (1, 1, "one"), (9, 2, [2.0, 5.0]),
    (1124, 2, "one")])
def test_assembly_matches_element_loop(n_h, Q, source):
    # the array assembly must give the loop's bands bit for bit: Q=7
    # puts subdomain edges between nodes, Q = n_h gives every subdomain one
    # dof, n_h = 1 has no off-diagonal, and at n_h = 1124 an array square
    # differs from the loop's float ``**`` in the last bit of F
    system = assemble(n_h, 3, 1.0, Q, source=source)
    source_vals = (np.ones(Q) if source == "one"
                   else np.asarray(source, dtype=float))
    reference = element_loop_assembly(n_h, Q, source_vals)
    assert_same_bands(system.M, reference["M"])
    assert_same_bands(system.X, reference["X"])
    assert len(system.A) == Q
    for A_q, reference_q in zip(system.A, reference["A"]):
        assert_same_bands(A_q, reference_q)
    assert_same_bits(system.F, reference["F"])
    assert_same_bits(system.qoi_vector, reference["qoi_vector"])
    assert system.qoi_const == reference["qoi_const"]
    assert_same_bits(system._x_chol[0], reference["x_chol"])
    assert_same_bits(system._m_chol, reference["m_chol"])


@pytest.mark.parametrize("n_h, Q", [(n_h, Q) for Q in (1, 2, 8)
                                     for n_h in (1, 2, 9, 200) if n_h >= Q])
def test_band_products_match_csr_products(n_h, Q):
    # the band product gives the sparse product's values to the last bit
    # and the sign of zero, for vectors and for C- and F-ordered blocks;
    # the +0 and -0 entries of v meet the empty rows of the A_q outside
    # their subdomain
    system = assemble(n_h, 3, 1.0, Q)
    rng = SplitMix64(n_h * 10 + Q)
    block = random_coefficients(rng, n_h, 101)
    block[::3, ::2] = 0.0
    block[1::3, ::2] = -0.0
    operands = [block[:, 0], block[:, 1], block[:, :7],
                np.asfortranarray(block[:, :7]), np.asfortranarray(block)]
    for S in (system.M, system.X, *system.A):
        reference = csr_tridiag(S.diag, S.off)
        for v in operands:
            product = S @ v
            assert product.flags.c_contiguous
            assert_same_bits(product, reference @ v)


def test_invalid_sizes_rejected():
    with pytest.raises(ConfigurationError):
        assemble(1, 1, 1.0, 2)  # n_h < Q
    with pytest.raises(ConfigurationError):
        assemble(10, 0, 1.0, 1)
    with pytest.raises(ConfigurationError):
        assemble(10, 1, -1.0, 1)
    with pytest.raises(ConfigurationError):
        assemble(10, 1, float("nan"), 1)
    with pytest.raises(ConfigurationError):
        assemble(10, 1, float("inf"), 1)
    with pytest.raises(ConfigurationError):
        assemble(10, 1, 1.0, 2, source="garbage")
    with pytest.raises(ConfigurationError, match="unknown initial-value tag"):
        assemble(10, 1, 1.0, 2, u0="cosine")
    with pytest.raises(ConfigurationError,
                       match="source needs one constant per subdomain"):
        assemble(10, 1, 1.0, 2, source=[1.0, 2.0, 3.0])


# ---------------------------------------------------------------- solve


def test_analytic_heat_mode():
    err, _, _ = analytic_error(100, 1000)
    assert err <= 1e-3


def test_refinement_ratio():
    coarse, _, _ = analytic_error(50, 500)
    fine, _, _ = analytic_error(101, 2000)
    assert 3.2 <= coarse / fine <= 4.8


def test_zero_source_zero_initial_stays_zero(small_system):
    system = assemble(20, 10, 1.0, 1, source="zero", u0="zero")
    trajectory = solve_fom(system, [1.0])
    assert np.all(trajectory.states == 0.0)


def test_domain_error_for_nonpositive_diffusivity(small_system):
    with pytest.raises(DomainError):
        solve_fom(small_system, [0.0, 1.0])
    with pytest.raises(DomainError):
        solve_fom(small_system, [-1.0, 2.0])
    with pytest.raises(DomainError):
        solve_fom(small_system, [1.0])  # wrong length


def splu_march(system, mu):
    """Reference: the former march, a sparse LU of B = M + dt A(mu) reused
    over the steps u^k = B^{-1} (M u^{k-1} + dt F), on CSR matrices."""
    M = csr_tridiag(system.M.diag, system.M.off)
    A = [csr_tridiag(A_q.diag, A_q.off) for A_q in system.A]
    B = M + system.dt * sum(m_q * A_q for m_q, A_q in zip(mu, A))
    lu = scipy.sparse.linalg.splu(B.tocsc())
    states = [system.u0]
    for _ in range(system.K):
        states.append(lu.solve(M @ states[-1] + system.dt * system.F))
    return np.array(states)


# ids name Q; a single node is the march's n_h = 1 case, whose step
# matrix has no off-diagonal
@pytest.mark.parametrize("n_h, Q", [(200, 1), (200, 2), (200, 8), (1, 1)],
                         ids=["1", "2", "8", "1-node"])
@pytest.mark.parametrize("u0", ["zero", "sine"])
def test_tridiagonal_march_matches_splu_march(n_h, Q, u0):
    # both marches are backward stable with per-step relative error about
    # cond(B) eps, and the step contracts in the M-norm, so they drift apart
    # at most linearly over K steps: by 2 K cond(B) eps ||u||_M, ||u||_M the
    # largest state norm, with Gershgorin's cond(B) <= 3 + 12 dt max(mu)/h^2
    system = assemble(n_h, 100, 1.0, Q, u0=u0)
    rng = SplitMix64(1000 + Q)
    eps = np.finfo(float).eps
    for _ in range(10):
        mu = 10.0 ** rng.uniform_array(-1.0, 1.0, (Q,))
        states = solve_fom(system, mu).states
        reference = splu_march(system, mu)
        cond = 3.0 + 12.0 * system.dt * mu.max() / system.h**2
        bound = (2.0 * system.K * cond * eps
                 * max(system.m_norm(u) for u in reference))
        assert np.array_equal(states[0], reference[0])
        assert max(system.m_norm(u - v)
                   for u, v in zip(states, reference)) <= bound


def test_unfactorable_step_matrix_is_a_domain_error(small_system,
                                                   monkeypatch):
    # B = M + dt A(mu) is positive definite for mu > 0, so only a LAPACK
    # failure reaches this path
    monkeypatch.setattr(fom, "_pttrf", lambda d, e, **kwargs: (d, e, 1))
    with pytest.raises(DomainError):
        solve_fom(small_system, [1.0, 2.0])


def test_energy_decay_without_source():
    system = assemble(40, 25, 1.0, 2, source="zero", u0="sine")
    trajectory = solve_fom(system, [0.5, 3.0])
    norms = [system.m_norm(u) for u in trajectory.states]
    assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))


def test_equal_subdomain_values_match_single_domain():
    two = assemble(33, 12, 1.0, 2)
    one = assemble(33, 12, 1.0, 1)
    t2 = solve_fom(two, [0.7, 0.7])
    t1 = solve_fom(one, [0.7])
    assert np.max(np.abs(t2.states - t1.states)) <= 1e-12


def test_initial_state_preserved():
    system = assemble(30, 5, 1.0, 1, u0="sine")
    trajectory = solve_fom(system, [2.0])
    np.testing.assert_array_equal(trajectory.states[0], system.u0)


# ---------------------------------------------------------------- qoi


def test_qoi_zero_state(small_system):
    assert compute_qoi(small_system, np.zeros(small_system.n_h)) == 0.0


def test_qoi_ones_equals_mass_row_sums(small_system):
    ones = np.ones(small_system.n_h)
    expected = float(ones @ (small_system.M @ ones))
    assert compute_qoi(small_system, ones) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.0 - small_system.h, abs=small_system.h)


def test_qoi_analytic_case():
    err, system, trajectory = analytic_error(100, 1000)
    qoi = compute_qoi(system, trajectory.states[-1])
    exact = math.exp(-math.pi**2 * 0.1) * 2.0 / math.pi
    assert abs(qoi - exact) <= 2e-3


def test_qoi_length_mismatch(small_system):
    with pytest.raises(ConfigurationError):
        compute_qoi(small_system, np.ones(small_system.n_h + 1))


# ---------------------------------------------------------------- level


def test_fom_level_contract(small_system):
    level = FullOrderLevel(small_system)
    mu = np.array([1.0, 2.0])
    output = level.evaluate(mu)
    reference = solve_fom(small_system, mu)
    np.testing.assert_array_equal(output.adaptation.states, reference.states)
    assert output.payload.qoi == compute_qoi(small_system, reference.states[-1])
    np.testing.assert_array_equal(output.payload.u_final, reference.states[-1])
    # an owned final state: the answer must not keep the trajectory alive
    assert output.payload.u_final.base is None
