import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from mfhier import (DomainError, FullOrderLevel, ModelHierarchy, NotReadyError,
                    ParameterBox, SplitMix64, assemble, build_reduced_system,
                    error_estimate, extend_basis, harness, mlsurrogate, rb,
                    reconstruct_final, residual_dual_norms, solve_fom,
                    solve_rb)
from mfhier.mlsurrogate import KernelRegressor, LogScaledBox, predict_trajectory
from mfhier.rb import ReducedBasisLevel, ReducedTrajectory, _x_orthonormalize

from conftest import random_coefficients


def empty_reduced_system(system):
    return build_reduced_system(system, np.zeros((system.n_h, 0)), 0)


def grow_basis(system, mus):
    reduced = empty_reduced_system(system)
    for mu in mus:
        reduced = extend_basis(reduced, system, solve_fom(system, mu))
    return reduced


# ---------------------------------------------------------------- extension


def test_first_extension_captures_trajectory(small_system, set_constant):
    set_constant(rb, "POD_TOL", 1e-10)
    trajectory = solve_fom(small_system, [1.0, 4.0])
    reduced = grow_basis(small_system, [[1.0, 4.0]])
    assert reduced.N >= 1
    assert reduced.generation == 1
    S = trajectory.states.T
    E = S - reduced.V @ (reduced.V.T @ (small_system.X @ S))
    energy = float(np.einsum("ij,ij->", S, small_system.X @ S))
    residual = float(np.einsum("ij,ij->", E, small_system.X @ E))
    assert residual <= 1e-10 * energy or reduced.N == 12


def test_extension_idempotent(small_system):
    trajectory = solve_fom(small_system, [2.0, 0.5])
    reduced = grow_basis(small_system, [[2.0, 0.5]])
    reduced2 = extend_basis(reduced, small_system, trajectory)
    assert reduced2 is reduced


def test_extend_basis_returns_same_model_when_nothing_added(small_system,
                                                           set_constant):
    reduced = grow_basis(small_system, [[2.0, 0.5]])
    other = solve_fom(small_system, [0.1, 10.0])
    grown = extend_basis(reduced, small_system, other)
    assert grown.generation == reduced.generation + 1
    assert grown.N > reduced.N
    assert np.array_equal(grown.V[:, :reduced.N], reduced.V)
    # a full basis has no room: the model is returned as it is
    set_constant(rb, "N_MAX", reduced.N)
    assert extend_basis(reduced, small_system, other) is reduced


def test_single_mode_trajectory_adds_one_vector(set_constant):
    set_constant(rb, "POD_TOL", 1e-7)
    set_constant(rb, "N_ADD_MAX", 5)
    system = assemble(80, 40, 0.1, 1, source="zero", u0="sine")
    trajectory = solve_fom(system, [1.0])
    reduced = extend_basis(empty_reduced_system(system), system, trajectory)
    assert reduced.N == 1
    assert reduced.generation == 1


def test_zero_trajectory_adds_nothing(small_system):
    system = assemble(20, 5, 1.0, 1, source="zero", u0="zero")
    trajectory = solve_fom(system, [1.0])
    reduced = empty_reduced_system(system)
    assert extend_basis(reduced, system, trajectory) is reduced


def test_n_max_cap(small_system, set_constant):
    set_constant(rb, "N_MAX", 8)
    rng = SplitMix64(5)
    box = ParameterBox([[0.1, 10.0]] * 2)
    reduced = grow_basis(small_system, [box.sample(rng) for _ in range(12)])
    assert reduced.N <= 8


def test_set_constant_refuses_a_name_the_module_does_not_define(set_constant):
    # a misspelt or misplaced constant is an error, not a test at the default
    for module, name in ((rb, "N_MAXX"), (rb, "solve_rb"),
                         (mlsurrogate, "POD_TOL")):
        with pytest.raises(AttributeError):
            set_constant(module, name, 8)
    assert rb.N_MAX == 60 and not hasattr(mlsurrogate, "POD_TOL")


def test_x_orthonormalize_drops_dependent_columns(small_system):
    # the second column lies in span(V, first column), the fourth is zero
    system = small_system
    V = grow_basis(system, [[1.0, 1.0]]).V
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, system.n_h))
    W = np.column_stack([a, 2.0 * a - V @ np.arange(V.shape[1]), b,
                         np.zeros(system.n_h)])
    kept = _x_orthonormalize(system, V, W)
    assert kept.shape == (system.n_h, 2)
    basis = np.hstack([V, kept])
    gram = basis.T @ (system.X @ basis)
    assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-13


def test_orthonormality_after_extensions(small_system):
    rng = SplitMix64(11)
    box = ParameterBox([[0.1, 10.0]] * 2)
    reduced = grow_basis(small_system, [box.sample(rng) for _ in range(4)])
    gram = reduced.V.T @ (small_system.X @ reduced.V)
    assert np.max(np.abs(gram - np.eye(reduced.N))) <= 1e-8


@pytest.mark.parametrize("n_h, Q, n_vectors", [(60, 2, 5), (20, 4, 6)])
def test_estimator_factors_match_full_space(n_h, Q, n_vectors):
    # (20, 4, 6) has 1 + N + QN = 31 columns > n_h rows
    system = assemble(n_h, 10, 1.0, Q, u0="sine")
    rng = SplitMix64(21)
    reduced = harness._random_reduced_system(system, rng, n_vectors)
    V = reduced.V
    R = reduced.residual_factor
    C = np.column_stack([system.F, system.M @ V,
                         *(A_q @ V for A_q in system.A)])
    assert R.shape == (min(n_h, C.shape[1]), C.shape[1])
    assert np.all(np.tril(R, -1) == 0.0)
    R0 = reduced.initial_error_factor
    assert R0.shape == (reduced.N + 1, reduced.N + 1)
    assert np.all(np.tril(R0, -1) == 0.0)
    for _ in range(20):
        theta = random_coefficients(rng, 1, C.shape[1])[0]
        r = C @ theta
        np.testing.assert_allclose(np.linalg.norm(R @ theta),
                                   math.sqrt(r @ system.x_solve(r)), rtol=1e-12)
        a = random_coefficients(rng, 1, reduced.N)[0]
        np.testing.assert_allclose(np.linalg.norm(R0 @ np.concatenate([[1.0], -a])),
                                   system.m_norm(system.u0 - V @ a),
                                   rtol=1e-12)


# ---------------------------------------------------------------- solve


def test_solve_rb_empty_basis(small_system):
    reduced = empty_reduced_system(small_system)
    trajectory = solve_rb(reduced, [1.0, 1.0])
    assert trajectory.coefficients.shape == (small_system.K + 1, 0)
    lifted = trajectory.coefficients @ reduced.V.T
    assert lifted.shape == (small_system.K + 1, small_system.n_h)
    assert np.all(lifted == 0.0)


def stepwise_implicit_euler(reduced, mu):
    """Reference: solve B a^k = M_N a^{k-1} + dt F_N afresh at every step."""
    B = reduced.M_N + reduced.dt * sum(m_q * A_q
                                       for m_q, A_q in zip(mu, reduced.A_N))
    coeffs = [reduced.a0]
    for _ in range(reduced.K):
        coeffs.append(np.linalg.solve(B, reduced.M_N @ coeffs[-1]
                                      + reduced.dt * reduced.F_N))
    return np.array(coeffs)


@pytest.mark.parametrize("Q", [2, 4])
def test_solve_rb_matches_stepwise_reference(Q):
    system = assemble(n_h=80, K=40, T=1.0, Q=Q)
    rng = SplitMix64(43)
    box = ParameterBox([[0.1, 10.0]] * Q)
    reduced = grow_basis(system, [box.sample(rng) for _ in range(3)])
    assert reduced.N >= 10
    corners = [np.array(c) for c in itertools.product([0.1, 10.0], repeat=Q)]
    for mu in [box.sample(rng) for _ in range(10)] + corners:
        coeffs = solve_rb(reduced, mu).coefficients
        reference = stepwise_implicit_euler(reduced, mu)
        assert coeffs.shape == reference.shape
        assert (np.max(np.abs(coeffs - reference))
                <= 1e-12 * np.max(np.abs(reference))), mu


@pytest.mark.parametrize("K, with_basis", [(1, False)] + [
    (K, True) for K in (1, 2, 3, 7, 8, 63, 64, 100)])
def test_doubling_march_matches_stepwise_reference_at_block_edges(K, with_basis):
    # the doubling march writes rows in blocks 1, 2, 4, ..: K at and next
    # to a power of two end it on a full or a one-row last block
    system = assemble(n_h=40, K=K, T=1.0, Q=2)
    rng = SplitMix64(44)
    box = ParameterBox([[0.1, 10.0]] * 2)
    reduced = empty_reduced_system(system)
    if with_basis:
        reduced = grow_basis(system, [box.sample(rng) for _ in range(2)])
        assert reduced.N >= 2
    for mu in [box.sample(rng) for _ in range(5)] + [np.array([0.1, 10.0])]:
        coeffs = solve_rb(reduced, mu).coefficients
        reference = stepwise_implicit_euler(reduced, mu)
        assert coeffs.shape == reference.shape == (K + 1, reduced.N)
        assert (np.max(np.abs(coeffs - reference), initial=0.0)
                <= 1e-12 * np.max(np.abs(reference), initial=0.0)), mu


def test_solve_rb_returns_owned_coefficients(small_system):
    reduced = grow_basis(small_system, [[1.0, 1.0]])
    coeffs = solve_rb(reduced, [2.0, 0.5]).coefficients
    assert coeffs.shape == (small_system.K + 1, reduced.N)
    assert coeffs.flags.c_contiguous
    assert coeffs.base is None


def test_solve_rb_rejects_indefinite_reduced_system(small_system):
    # a numerical failure, not a bad input: the hierarchy lets it fall through
    reduced = grow_basis(small_system, [[1.0, 1.0]])
    broken = dataclasses.replace(reduced, M_N=-reduced.M_N)
    with pytest.raises(np.linalg.LinAlgError):
        solve_rb(broken, [1.0, 1.0])


def test_galerkin_reproduction_in_span(small_system, set_constant):
    # basis captures the trajectory at mu*: the reduced solve reproduces the
    # full solution at mu* almost exactly
    set_constant(rb, "POD_TOL", 1e-15)
    set_constant(rb, "N_ADD_MAX", 40)
    mu = [1.5, 6.0]
    reduced = grow_basis(small_system, [mu])
    full = solve_fom(small_system, mu)
    lifted = solve_rb(reduced, mu).coefficients @ reduced.V.T
    assert np.max(np.abs(lifted - full.states)) <= 1e-8


def test_reduced_energy_decay(small_system):
    system = assemble(50, 30, 1.0, 2, source="zero", u0="sine")
    reduced = grow_basis(system, [[1.0, 3.0], [0.3, 0.3]])
    trajectory = solve_rb(reduced, [2.0, 0.7])
    norms = [math.sqrt(max(a @ (reduced.M_N @ a), 0.0))
             for a in trajectory.coefficients]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_solve_rb_rejects_nonpositive(small_system):
    reduced = grow_basis(small_system, [[1.0, 1.0]])
    with pytest.raises(DomainError):
        solve_rb(reduced, [0.0, 1.0])


@pytest.mark.parametrize("mu", [[5.0], [5.0, 5.0, 5.0]])
def test_solve_rb_rejects_wrong_length(small_system, mu):
    # a length-1 mu must not broadcast to (5, 5) on a Q=2 system
    reduced = grow_basis(small_system, [[1.0, 1.0]])
    with pytest.raises(DomainError):
        solve_rb(reduced, mu)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_diffusivity_not_finite_positive_is_a_domain_error(small_system, bad):
    # NaN fails every comparison and inf passes mu > 0: a test of mu <= 0
    # alone returns a NaN trajectory, NaN coefficients or an infinite alpha.
    # One rule gives one message, also for a wrong-length mu.
    reduced = grow_basis(small_system, [[1.0, 1.0]])
    checks = (lambda mu: solve_fom(small_system, mu),
              lambda mu: solve_rb(reduced, mu))
    for mu in ([2.0, bad], [2.0, bad, 1.0], [2.0]):
        messages = set()
        for model in checks:
            with pytest.raises(DomainError) as err:
                model(mu)
            messages.add(str(err.value))
        assert len(messages) == 1, messages


# ---------------------------------------------------------------- coercivity


def test_coercivity_is_exact_for_x_norm(small_system):
    # a(v,v;mu) >= alpha_LB ||v||_X^2 holds with equality for the minimizer
    rng = SplitMix64(3)
    for _ in range(20):
        mu = rng.uniform_array(0.1, 10.0, (2,))
        v = rng.uniform_array(-1.0, 1.0, (small_system.n_h,))
        a_vv = sum(m_q * (v @ (A_q @ v)) for m_q, A_q in zip(mu, small_system.A))
        assert a_vv >= min(mu) * (v @ (small_system.X @ v)) - 1e-10


# ---------------------------------------------------------------- residuals


@pytest.mark.parametrize("Q", [2, 4])
def test_residual_factor_mass_block_is_zero_below_row_n(Q):
    # rb._residuals multiplies the coefficient differences by the first
    # N + 1 rows of the M V block only
    system = assemble(n_h=60, K=20, T=1.0, Q=Q)
    rng = SplitMix64(45)
    box = ParameterBox([[0.1, 10.0]] * Q)
    reduced = grow_basis(system, [box.sample(rng) for _ in range(2)])
    N, R = reduced.N, reduced.residual_factor
    assert N >= 2 and R.shape[0] > N + 1
    assert np.all(R[N + 1:, 1:1 + N] == 0.0)
    assert np.all(np.diag(R)[1:1 + N] != 0.0)


def test_residual_norms_zero_for_reproduced_trajectory():
    # basis spans the trajectory exactly (Gram-Schmidt over the snapshots),
    # so the projected trajectory has zero residual up to round-off
    system = assemble(60, 30, 1.0, 2, source=0.3)
    mu = [2.0, 2.5]
    full = solve_fom(system, mu)
    V = _x_orthonormalize(system, np.zeros((system.n_h, 0)), full.states.T)
    reduced = build_reduced_system(system, V, 1)
    coeffs = (V.T @ (system.X @ full.states.T)).T
    trajectory = ReducedTrajectory(coefficients=coeffs, mu=np.asarray(mu),
                                   reduced_system=reduced)
    norms = residual_dual_norms(trajectory)
    assert np.max(norms) <= 1e-8


def test_residual_norms_empty_basis_equal_load_norm(small_system):
    reduced = empty_reduced_system(small_system)
    trajectory = solve_rb(reduced, [1.0, 1.0])
    norms = residual_dual_norms(trajectory)
    rho = small_system.x_solve(small_system.F)
    expected = math.sqrt(float(small_system.F @ rho))
    np.testing.assert_allclose(norms, expected, rtol=1e-12)


def test_online_residuals_match_full_space_oracle(small_system):
    rng = SplitMix64(17)
    box = ParameterBox([[0.1, 10.0]] * 2)
    worst = 0.0
    for _ in range(50):
        reduced = harness._random_reduced_system(small_system, rng, 4)
        mu = box.sample(rng)
        coeffs = random_coefficients(rng, small_system.K + 1, reduced.N)
        trajectory = ReducedTrajectory(coefficients=coeffs, mu=mu,
                                       reduced_system=reduced)
        online = residual_dual_norms(trajectory)
        direct = harness._direct_residual_norms(small_system, reduced.V, mu,
                                                coeffs)
        worst = max(worst, float(np.max(np.abs(online - direct)))
                    / max(float(np.max(direct)), 1e-30))
    assert worst <= 1e-8


# ---------------------------------------------------------------- estimator


def test_estimate_tiny_for_reproduced_trajectory(small_system, set_constant):
    set_constant(rb, "POD_TOL", 1e-15)
    set_constant(rb, "N_ADD_MAX", 40)
    mu = [1.2, 0.4]
    reduced = grow_basis(small_system, [mu])
    delta = error_estimate(solve_rb(reduced, mu))
    assert delta <= 1e-7


def test_estimate_empty_basis_closed_form(default_system):
    # N = 0, u0 = 0, f = 1: Delta^2 = (T / alpha) F^T X^{-1} F
    reduced = empty_reduced_system(default_system)
    trajectory = solve_rb(reduced, [1.0, 1.0])
    delta = error_estimate(trajectory)
    F = default_system.F
    closed = math.sqrt(default_system.T * float(F @ default_system.x_solve(F)))
    assert delta == pytest.approx(closed, rel=1e-12)
    # frozen regression value for the default configuration
    assert delta == pytest.approx(0.28867156194904925, rel=1e-9)


def test_estimator_rigor_random_sample(small_system):
    rng = SplitMix64(29)
    box = ParameterBox([[0.1, 10.0]] * 2)
    effectivities = []
    for trial in range(40):
        reduced = harness._random_reduced_system(small_system, rng, 4)
        mu = box.sample(rng)
        if trial % 2 == 0:
            trajectory = solve_rb(reduced, mu)
        else:
            coeffs = random_coefficients(rng, small_system.K + 1, reduced.N, 0.5)
            trajectory = ReducedTrajectory(coefficients=coeffs, mu=mu,
                                           reduced_system=reduced)
        delta = error_estimate(trajectory)
        true = small_system.m_norm(solve_fom(small_system, mu).states[-1]
                                   - reconstruct_final(trajectory))
        assert delta >= true - 1e-10
        effectivities.append(delta / max(true, 1e-14))
    # effectivity is finite; report the spread, assert only rigor above
    eff = np.array(effectivities)
    assert np.isfinite(eff).all()
    print(f"\neffectivity quantiles (min/median/max): "
          f"{eff.min():.2f} / {np.median(eff):.2f} / {eff.max():.2f}")


def test_estimate_identical_for_both_producers(small_system):
    # the estimate reads the coefficients, mu and the system alone: the
    # learned stage's trajectory of the RB stage's coefficients gets the
    # RB stage's estimate, bit for bit
    reduced = grow_basis(small_system, [[1.0, 2.0]])
    mu = [3.0, 0.2]
    as_rb = solve_rb(reduced, mu)
    as_ml = ReducedTrajectory(coefficients=as_rb.coefficients.copy(),
                              mu=np.asarray(mu), reduced_system=reduced)
    assert error_estimate(as_rb) == error_estimate(as_ml)


def test_trajectory_keeps_its_certificate_after_basis_growth(small_system):
    # a trajectory carries the reduced system it was solved in: when the
    # level swaps in a grown basis, its estimate and its lift stay the same
    # and the estimate still bounds the true error
    level = ReducedBasisLevel(small_system)
    level.absorb(solve_fom(small_system, [1.0, 1.0]))
    mu = np.array([6.0, 0.3])
    output = level.evaluate(mu)
    trajectory = output.adaptation
    delta = level.estimate_error(output)
    solved_in = level.reduced_system
    assert level.absorb(solve_fom(small_system, [0.2, 8.0])) is True
    assert level.reduced_system.N > solved_in.N
    assert trajectory.reduced_system is solved_in
    assert error_estimate(trajectory) == delta
    assert level.estimate_error(output) == delta
    u_final = reconstruct_final(trajectory)
    assert np.array_equal(u_final, output.payload.u_final)
    assert np.array_equal(level.lift(trajectory).u_final, u_final)
    true_error = small_system.m_norm(solve_fom(small_system, mu).states[-1]
                                     - u_final)
    assert 0.0 < true_error <= delta


def test_stale_generation_rejected(small_system):
    # the coefficients' width is the size of the basis they were solved
    # in: paired with a later, grown generation they are not certified,
    # normed or lifted
    older = grow_basis(small_system, [[1.0, 1.0]])
    newer = extend_basis(older, small_system,
                         solve_fom(small_system, [0.2, 8.0]))
    assert newer.generation > older.generation and newer.N > older.N
    trajectory = solve_rb(older, [1.0, 1.0])
    stale = ReducedTrajectory(coefficients=trajectory.coefficients,
                              mu=trajectory.mu, reduced_system=newer)
    with pytest.raises(ValueError):
        error_estimate(stale)
    with pytest.raises(ValueError):
        residual_dual_norms(stale)
    with pytest.raises(ValueError):
        reconstruct_final(stale)


# ------------------------------------- online stage against its former form
#
# The online stage keeps its query-independent blocks with the generation.
# These are the per-call forms it replaced; it must match them to the bit.


def former_solve_rb(rs, mu):
    """B summed by one broadcast product, [M_N, dt F_N] stacked per call."""
    N = rs.N
    rows = np.zeros((rs.K + 1, N + 1))
    if N:
        B = np.asfortranarray(
            rs.M_N + rs.dt * (mu[:, None, None] * rs.A_N).sum(axis=0))
        factor, info = scipy.linalg.lapack.dpotrf(B, lower=1, overwrite_a=1)
        assert info == 0
        T_c, _ = scipy.linalg.lapack.dpotrs(
            factor, np.column_stack([rs.M_N, rs.dt * rs.F_N]), lower=1)
        P = np.zeros((N + 1, N + 1))
        P[:, :N] = T_c.T
        P[N, N] = 1.0
        rows[0, :N] = rs.a0
        rows[0, N] = 1.0
        m = 1
        while m <= rs.K:
            k = min(m, rs.K + 1 - m)
            np.dot(rows[:k], P, out=rows[m:m + k])
            m += k
            if m <= rs.K:
                P = P @ P
    return rows[:, :N].copy()


def former_residuals(rs, a, mu):
    """R's load column tiled, its blocks sliced from R per call."""
    R, N = rs.residual_factor, rs.N
    R_mu = mu @ R[:, 1 + N:].reshape(len(R), rs.Q, N)
    d = (a[1:] - a[:-1]) / rs.dt
    residuals = np.tile(R[:, 0], (len(d), 1))
    residuals[:, :N + 1] -= d @ R[:N + 1, 1:1 + N].T
    residuals -= a[1:] @ R_mu.T
    return residuals


def former_error_estimate(rs, a, mu):
    e0 = rs.initial_error_factor @ np.concatenate([[1.0], -a[0]])
    residuals = former_residuals(rs, a, mu)
    alpha = min(mu)
    return float(np.sqrt(e0 @ e0 + rs.dt / alpha
                         * np.einsum("ij,ij->", residuals, residuals)))


@pytest.fixture(scope="module", params=[2, 8], ids=["Q2", "Q8"])
def grown(request):
    """A default-size system of Q subdomains, its grown basis and a box."""
    Q = request.param
    system = assemble(n_h=200, K=100, T=1.0, Q=Q)
    box = ParameterBox([[0.1, 10.0]] * Q)
    rng = SplitMix64(50 + Q)
    reduced = grow_basis(system, [box.sample(rng) for _ in range(Q + 2)])
    assert reduced.N >= 12 * (1 + Q // 4)
    return system, reduced, box


def test_online_stage_equals_its_former_form_bitwise(grown):
    system, reduced, box = grown
    rng = SplitMix64(61)
    corners = [np.full(reduced.Q, 0.1), np.full(reduced.Q, 10.0)]
    for mu in [box.sample(rng) for _ in range(20)] + corners:
        trajectory = solve_rb(reduced, mu)
        former = former_solve_rb(reduced, mu)
        assert np.array_equal(trajectory.coefficients, former)
        assert error_estimate(trajectory) == former_error_estimate(
            reduced, former, mu)
        # a learned trajectory: coefficients the march did not make
        coeffs = random_coefficients(rng, reduced.K + 1, reduced.N, 0.5)
        learned = ReducedTrajectory(coefficients=coeffs, mu=mu,
                                    reduced_system=reduced)
        assert error_estimate(learned) == former_error_estimate(
            reduced, coeffs, mu)


def test_replaced_factor_derives_its_own_blocks(grown):
    # the online blocks are derived from the fields, never passed in: a
    # replaced residual factor (or operator) brings its own blocks
    _, reduced, _ = grown
    N, R = reduced.N, reduced.residual_factor
    _ = reduced.load_row, reduced.mass_block_t, reduced.a_blocks  # cached
    F = -R
    replaced = dataclasses.replace(reduced, residual_factor=F)
    assert np.array_equal(replaced.load_row, F[:, 0])
    assert np.array_equal(replaced.mass_block_t, F[:N + 1, 1:1 + N].T)
    assert np.shares_memory(replaced.a_blocks, F)
    assert np.array_equal(replaced.a_blocks,
                          F[:, 1 + N:].reshape(len(F), reduced.Q, N))
    assert not np.array_equal(reduced.load_row, replaced.load_row)
    scaled = dataclasses.replace(reduced, F_N=2.0 * reduced.F_N)
    assert np.array_equal(scaled.march_rhs[:, N], 2.0 * reduced.dt
                          * reduced.F_N)
    assert scaled.march_rhs.flags.f_contiguous


def test_trajectory_mu_is_checked_where_the_trajectory_is_made(
        small_system, diffusivity_box, set_constant):
    # the estimator reads mu unchecked: a trajectory of either stage gets
    # its DomainError when it is made, before a regressor or B sees mu
    # one pair, and no gate: the learned trajectory is made anywhere
    set_constant(mlsurrogate, "N_MIN", 1)
    set_constant(mlsurrogate, "POWER_GATE", math.inf)
    reduced = grow_basis(small_system, [[1.0, 1.0]])
    coeffs = solve_rb(reduced, [1.0, 1.0]).coefficients
    regressor = KernelRegressor(LogScaledBox(diffusivity_box),
                                mlsurrogate.RIDGE, mlsurrogate.TARGET_DTYPE)
    regressor.add([1.0, 1.0], coeffs)
    learned = predict_trajectory(regressor, reduced, [2.0, 2.0])
    for bad in ([0.0, 1.0], [-1.0, 1.0], [math.nan, 1.0], [1.0], []):
        with pytest.raises(DomainError):
            ReducedTrajectory(coefficients=coeffs, mu=bad,
                              reduced_system=reduced)
        with pytest.raises(DomainError):
            dataclasses.replace(learned, mu=bad)
        with pytest.raises(DomainError):
            predict_trajectory(regressor, reduced, bad)
        with pytest.raises(DomainError):
            solve_rb(reduced, bad)


#: Both parabolic hierarchies: RB+FOM (the default) and ML+RB+FOM.
HIERARCHIES = pytest.mark.parametrize("ml", [False, True],
                                      ids=["rb-fom", "ml-rb-fom"])


@HIERARCHIES
@pytest.mark.parametrize("tolerance", [0.0, 1e-13])
def test_no_stream_answer_below_estimator_floor(tolerance, ml, tmp_path):
    # the estimator's round-off floor on this stream is about 1e-12: a
    # tolerance below it must send every query to the full-order model
    config = harness.default_config("parabolic", n_queries=150, seed=42,
                                    tolerance=tolerance, ml={"enabled": ml})
    config.output.results_path = str(tmp_path / "results.csv")
    result = harness.run(config)
    accepted = [(r.query_id, r.answer.stage, r.answer.estimate)
                for r in result.records if not r.answer.is_reference]
    assert accepted == []


@HIERARCHIES
def test_stream_certificates_hold_without_slack(ml, tmp_path):
    # the prefix reaches query 143; an estimator that expands ||r||^2 over
    # Riesz cross-Gramians and clamps it at 0 certifies queries 113, 136
    # and 143 of this stream with Delta = 0
    config = harness.default_config("parabolic", n_queries=144, seed=42,
                                    ml={"enabled": ml})
    config.output.results_path = str(tmp_path / "results.csv")
    result = harness.run(config)
    system = result.scenario.system
    checked = 0
    for record in result.records:
        answer = record.answer
        if answer.is_reference:
            continue
        checked += 1
        truth = solve_fom(system, record.mu).states[-1]
        true_error = system.m_norm(truth - answer.payload.u_final)
        assert 0.0 < answer.estimate, record.query_id
        assert true_error <= answer.estimate, (record.query_id, true_error)
    assert checked > 100


# ---------------------------------------------------------------- lifting


def test_projection_round_trip(small_system):
    reduced = grow_basis(small_system, [[0.5, 2.0]])
    rng = SplitMix64(37)
    a = rng.uniform_array(-1.0, 1.0, (reduced.N,))
    u = reduced.V @ a
    back = reduced.V.T @ (small_system.X @ u)
    np.testing.assert_allclose(back, a, atol=1e-10)


# ---------------------------------------------------------------- level


def test_rb_level_not_ready_until_first_trajectory(small_system):
    # an empty basis declines; an N = 0 answer would be certified at any
    # TOL above its bound, and the basis would never grow
    level = ReducedBasisLevel(small_system)
    with pytest.raises(NotReadyError):
        level.evaluate([1.0, 1.0])
    assert level.absorb(solve_fom(small_system, [1.0, 1.0])) is True
    assert level.reduced_system.generation == 1
    assert level.evaluate([1.0, 1.0]).adaptation.reduced_system.N >= 1


def test_rb_level_requery_accepts(small_system):
    level = ReducedBasisLevel(small_system)
    mu = np.array([4.0, 0.3])
    level.absorb(solve_fom(small_system, mu))
    output = level.evaluate(mu)
    estimate = level.estimate_error(output)
    assert estimate <= 1e-6


def test_rb_level_deep_capture_requery_below_1e8(small_system, set_constant):
    # with the trajectory captured to the numerical floor, re-querying the
    # same parameter certifies below 1e-8
    set_constant(rb, "POD_TOL", 1e-15)
    set_constant(rb, "N_ADD_MAX", 40)
    level = ReducedBasisLevel(small_system)
    mu = np.array([2.0, 5.0])
    level.absorb(solve_fom(small_system, mu))
    output = level.evaluate(mu)
    assert level.estimate_error(output) <= 1e-8


def test_rb_level_ignores_foreign_payloads(small_system):
    level = ReducedBasisLevel(small_system)
    assert level.absorb({"not": "a trajectory"}) is False
    assert level.absorb(12.5) is False
    assert level.absorb(solve_fom(small_system, [1.0, 1.0])) is True


def test_rb_level_zero_mode_absorb_keeps_generation(small_system):
    level = ReducedBasisLevel(small_system)
    trajectory = solve_fom(small_system, [1.0, 1.0])
    assert level.absorb(trajectory) is True
    # same data: no mode is added, so the level reports no change
    assert level.absorb(trajectory) is False
    assert level.reduced_system.generation == 1


def test_rb_level_at_cap_logs_no_event(small_system, monkeypatch,
                                      set_constant):
    # at the N_MAX cap a full-order solve changes no basis and is no event,
    # and extend_basis returns before the POD of the projection error
    set_constant(rb, "N_MAX", 2)
    level = ReducedBasisLevel(small_system)
    hierarchy = ModelHierarchy([level, FullOrderLevel(small_system)],
                               tolerance=0.0,
                               box=ParameterBox([[0.1, 10.0]] * 2))
    answer, events = hierarchy.handle_request([1.0, 1.0])
    assert answer.is_reference and events == [(2, 1)]
    capped = level.reduced_system
    assert capped.N == 2 and capped.generation == 1

    def no_eigh(*args, **kwargs):
        raise AssertionError("POD computed at the N_MAX cap")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    answer, events = hierarchy.handle_request([0.1, 10.0])
    assert answer.is_reference and events == []
    assert level.reduced_system is capped


def test_rb_level_keeps_its_system_when_extension_fails(small_system,
                                                       monkeypatch):
    # a failed POD eigensolve inside absorb changes nothing: the query is
    # answered, no event is logged and the level keeps its generation
    level = ReducedBasisLevel(small_system)
    level.absorb(solve_fom(small_system, [1.0, 1.0]))
    before = level.reduced_system

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    hierarchy = ModelHierarchy([level, FullOrderLevel(small_system)],
                               tolerance=0.0,
                               box=ParameterBox([[0.1, 10.0]] * 2))
    answer, events = hierarchy.handle_request([0.2, 8.0])
    assert answer.stage == 2 and events == []
    assert level.reduced_system is before


def test_summary_counts_reference_answers_at_the_cap(small_system,
                                                      set_constant):
    # at the N_MAX cap every further full-order solve teaches no level
    set_constant(rb, "N_MAX", 2)
    level = ReducedBasisLevel(small_system)
    hierarchy = ModelHierarchy([level, FullOrderLevel(small_system)],
                               tolerance=0.0,
                               box=ParameterBox([[0.1, 10.0]] * 2))
    records = hierarchy.run_query_stream(
        [[1.0, 1.0], [0.1, 10.0], [10.0, 0.1], [3.0, 3.0]])
    assert level.reduced_system.N == 2
    rows = [harness.result_row(record, 0.0, level.reduced_system.N, 0, 2)
            for record in records]
    summary = harness.summarize(rows, 2)
    assert summary.accepted == {1: 0, 2: 4}
    assert summary.adaptation == {(2, 1): 1}
    assert summary.reference_unabsorbed == 3
    assert summary.to_dict()["reference_unabsorbed"] == 3
    assert "reference answers no level absorbed: 3" in summary.format()
