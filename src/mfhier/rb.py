"""Reduced-basis stage: Galerkin projection with a certified estimator.

The basis grows adaptively by POD of the projection error of absorbed
full-order trajectories (POD-Greedy).  The estimator

    Delta(mu)^2 = ||u0 - V a0||_M^2
                  + dt / alpha_LB(mu) * sum_k ||r^k||_{X'}^2

bounds the final-time M-norm error of ANY coefficient sequence in the
reduced space, which is what lets the machine-learning stage reuse it
unchanged.  Both norms are sums of squares over small upper-triangular
factors computed once per basis (Buhr, Engwer, Ohlberger & Rave, 2014):
the residual is r^k = C theta^k with C = [F, M V, A_1 V, .., A_Q V], and
with X = U^T U and R the triangular factor of a QR of U^{-T} C,
||r^k||_{X'} = ||R theta^k||.  Online the estimate never touches
full-order vectors and, unlike an expanded quadratic form, can neither go
negative nor lose its digits to cancellation.

One immutable :class:`ReducedSystem` is one basis generation: it carries
its basis V beside the projected operators and factors.  A basis extension
that adds modes builds the next generation's system; the level swaps it
in whole.  A :class:`ReducedTrajectory` carries the system its coefficients
were computed in, so it is certified and lifted in its own basis and
cannot be paired with another.  The learned stage holds its reduced-basis
level and rebases when that level's system is no longer the one its
targets are in, so no notification is sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NotReadyError
from .fom import (AffineSystem, ParabolicResult, Trajectory, check_diffusivity,
                  compute_qoi)
from .hierarchy import ModelLevel, ModelOutput

_potrf = scipy.linalg.lapack.dpotrf
_potrs = scipy.linalg.lapack.dpotrs

#: A basis extension stops adding modes once the trajectory's uncaptured
#: X-energy fraction is below POD_TOL, after at most N_ADD_MAX new modes,
#: and never grows the basis beyond N_MAX modes.
POD_TOL = 1e-13
N_ADD_MAX = 12
N_MAX = 60


@dataclass(frozen=True)
class ReducedSystem:
    """One basis generation: the basis V, the Galerkin-projected operators
    and the two estimator factors, all derived from V and never changed.

    ``residual_factor`` is the upper-triangular R of U^{-T} [F, M V,
    A_1 V, .., A_Q V] (X = U^T U), with min(n_h, 1 + N + Q N) rows: the
    residual r^k = F - M V d^k - sum_q mu_q A_q V a^k has X' norm
    ||R [1; -d^k; -mu_1 a^k; ..; -mu_Q a^k]||.  ``initial_error_factor`` is
    the R of U_m [u0, V] (M = U_m^T U_m, :meth:`AffineSystem.m_half`), so
    ||u0 - V a0||_M = ||R0 [1; -a0]||.  N = 0 is an empty column block, not
    a special case.
    """

    V: np.ndarray     # (n_h, N), X-orthonormal columns
    generation: int
    K: int
    dt: float
    Q: int
    M_N: np.ndarray
    A_N: np.ndarray   # (Q, N, N), the projected A_q stacked
    F_N: np.ndarray
    a0: np.ndarray
    residual_factor: np.ndarray       # (min(n_h, 1+N+QN), 1+N+QN)
    initial_error_factor: np.ndarray  # (min(n_h, 1+N), 1+N)

    @property
    def N(self) -> int:
        return self.V.shape[1]

    # The online stage's query-independent blocks, derived from the fields
    # on first use and kept with the generation.  They are never fields, so
    # ``dataclasses.replace`` derives them anew from the replaced factor.

    @cached_property
    def march_rhs(self) -> np.ndarray:
        """[M_N, dt F_N], Fortran-ordered for the Cholesky solve."""
        return np.asfortranarray(np.column_stack([self.M_N,
                                                  self.dt * self.F_N]))

    @cached_property
    def load_row(self) -> np.ndarray:
        """R's load column, contiguous, broadcast over the time steps."""
        return self.residual_factor[:, 0].copy()

    @cached_property
    def mass_block_t(self) -> np.ndarray:
        """The transpose of R's M V block, contiguous in Fortran order, the
        layout the product had as a view of R (BLAS rounds a product of the
        other layout differently).  The block's rows below N are zero (R is
        upper triangular), so it keeps only the first N + 1."""
        return np.asfortranarray(
            self.residual_factor[:self.N + 1, 1:1 + self.N].T)

    @cached_property
    def a_blocks(self) -> np.ndarray:
        """R's A_q V blocks as a (rows, Q, N) view of R."""
        R = self.residual_factor
        return R[:, 1 + self.N:].reshape(len(R), self.Q, self.N)


@dataclass
class ReducedTrajectory:
    """Coefficient vectors a^0..a^K in the basis of ``reduced_system``.

    The shared currency between the reduced-basis and the learned stage;
    it is estimated and lifted in the system it carries.  Its mu is
    checked here, the one place for both stages and for library callers,
    so the estimator reads it unchecked.
    """

    coefficients: np.ndarray  # (K+1, N)
    mu: np.ndarray
    reduced_system: ReducedSystem

    def __post_init__(self):
        self.mu = check_diffusivity(self.mu, self.reduced_system.Q)


def build_reduced_system(system: AffineSystem, V: np.ndarray,
                         generation: int) -> ReducedSystem:
    """Offline stage: project operators and QR-factor the estimator terms."""
    MV = system.M @ V
    AV = [A_q @ V for A_q in system.A]
    lifted = system.x_half_solve(np.column_stack([system.F, MV, *AV]))
    initial = system.m_half(np.column_stack([system.u0, V]))
    M_N, *A_N = (0.5 * (G + G.T) for G in (V.T @ L for L in (MV, *AV)))
    return ReducedSystem(
        V=V, generation=generation, K=system.K, dt=system.dt, Q=system.Q,
        M_N=M_N, A_N=np.stack(A_N),
        F_N=V.T @ system.F,
        a0=V.T @ (system.X @ system.u0),
        residual_factor=np.linalg.qr(lifted, mode="r"),
        initial_error_factor=np.linalg.qr(initial, mode="r"),
    )


def _x_orthonormalize(system: AffineSystem, V: np.ndarray,
                      W: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt run twice (CGS2), as accurate as the modified
    one (Giraud, Langou, Rozloznik & van den Eshof, 2005): each column of W
    against [V, the columns kept so far] in the X inner product, dropped as
    near-dependent if the two passes leave at most 1e-10 of its X-norm."""
    basis = np.hstack([V, np.zeros_like(W)])
    n = V.shape[1]
    for w in W.T:
        xw = system.X @ w
        norm0 = np.sqrt(max(w @ xw, 0.0))
        for _ in range(2):
            w = w - basis[:, :n] @ (basis[:, :n].T @ xw)
            xw = system.X @ w
        norm = np.sqrt(max(w @ xw, 0.0))
        if norm > 1e-10 * norm0:
            basis[:, n] = w / norm
            n += 1
    return basis[:, V.shape[1]:n]


def extend_basis(reduced_system: ReducedSystem, system: AffineSystem,
                 trajectory: Trajectory) -> ReducedSystem:
    """POD-Greedy step: append leading POD modes of the projection error.

    Subtracts the X-orthogonal projection onto the current span from every
    snapshot, takes the POD of the residual snapshots in the X inner
    product (eigendecomposition of the (K+1)x(K+1) Gramian) and appends
    modes until the trajectory's uncaptured X-energy fraction drops below
    :data:`POD_TOL`, capped at :data:`N_ADD_MAX` new modes and
    :data:`N_MAX` total, each read at the call.

    Returns the next generation's reduced system, or ``reduced_system``
    itself when no mode is added.
    """
    V = reduced_system.V
    room = min(N_ADD_MAX, N_MAX - V.shape[1])
    if room <= 0:
        return reduced_system
    S = trajectory.states.T  # (n_h, K+1)
    XS = system.X @ S
    traj_energy = float(np.einsum("ij,ij->", S, XS))

    E = S - V @ (V.T @ XS)
    XE = system.X @ E
    gramian = E.T @ XE
    gramian = 0.5 * (gramian + gramian.T)
    evals, evecs = np.linalg.eigh(gramian)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    evals = np.clip(evals, 0.0, None)
    total_residual = float(evals.sum())

    # a zero trajectory stops here too: E = 0 leaves 0 <= target = 0
    target = POD_TOL * traj_energy
    if total_residual <= target:
        return reduced_system

    # smallest mode count that leaves at most `target` uncaptured energy
    remaining = total_residual - np.cumsum(evals)
    n_new = int(np.searchsorted(-remaining, -target) + 1)
    n_new = min(n_new, room)
    # modes below the eigensolver noise floor are not meaningful directions
    floor = max(evals[0] * 1e-14, 0.0)
    while n_new > 0 and evals[n_new - 1] <= floor:
        n_new -= 1
    if n_new == 0:
        return reduced_system

    modes = E @ (evecs[:, :n_new] / np.sqrt(evals[:n_new]))
    modes = _x_orthonormalize(system, V, modes)
    if modes.shape[1] == 0:
        return reduced_system
    return build_reduced_system(system, np.hstack([V, modes]),
                                reduced_system.generation + 1)


def solve_rb(reduced_system: ReducedSystem, mu) -> ReducedTrajectory:
    """Reduced implicit Euler as one affine propagator per parameter.

    Every step solves B a^k = M_N a^{k-1} + dt F_N with the same
    B = M_N + dt sum_q mu_q A_q, so a^k = T a^{k-1} + c with
    B [T, c] = [M_N, dt F_N]: one Cholesky factorization of B and one
    solve with N + 1 right-hand sides per parameter.  With the augmented
    row [a^k, 1] = [a^0, 1] P^k, P = [[T^T, 0], [c^T, 1]], the march doubles:
    rows m..m+k-1 are rows 0..k-1 times P^m, k = min(m, K + 1 - m), and P
    is squared between blocks, so K = 100 steps take 7 block products and
    6 squarings of the (N + 1)^2 propagator instead of 100 vector-matrix
    products.  The result is the step-by-step solve up to round-off, and
    the estimator certifies whatever coefficients it gets.
    Raises :class:`DomainError` for a mu :func:`check_diffusivity` rejects,
    and ``LinAlgError`` if round-off makes B fail its Cholesky factorization:
    a hierarchy then answers the query at its next stage.
    """
    rs = reduced_system
    N = rs.N
    # made first: it checks mu before B is formed from it
    trajectory = ReducedTrajectory(coefficients=np.empty((rs.K + 1, N)),
                                   mu=mu, reduced_system=rs)
    if N:
        # B = M_N + dt sum_q mu_q A_q in place, summed over q in order.  It
        # is exactly symmetric, so its transpose is B in Fortran order.
        mu = trajectory.mu.tolist()
        B = rs.A_N[0] * mu[0]
        for mu_q, A_q in zip(mu[1:], rs.A_N[1:]):
            B += mu_q * A_q
        B *= rs.dt
        B += rs.M_N
        factor, info = _potrf(B.T, lower=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"reduced Cholesky failed (info={info})")
        T_c, _ = _potrs(factor, rs.march_rhs, lower=1)
        P = np.zeros((N + 1, N + 1))
        P[:, :N] = T_c.T
        P[N, N] = 1.0
        rows = np.empty((rs.K + 1, N + 1))
        rows[0, :N] = rs.a0
        rows[0, N] = 1.0
        m = 1  # rows[:m] are done; P holds P^m
        while m <= rs.K:
            k = min(m, rs.K + 1 - m)
            np.dot(rows[:k], P, out=rows[m:m + k])
            m += k
            if m <= rs.K:
                P = P @ P
        # owned coefficients: a view would keep the work array alive
        trajectory.coefficients[:] = rows[:, :N]
    return trajectory


def _residuals(trajectory: ReducedTrajectory) -> np.ndarray:
    """Row k-1 is R theta^k, whose 2-norm is ||r^k||_{X'}, k = 1..K.

    r^k = F - (1/dt) M V (a^k - a^{k-1}) - sum_q mu_q A_q V a^k; mu is
    folded into the A-columns of R before the time loop.  R is upper
    triangular, so its M V block is zero below row N and the differences
    meet only its first N + 1 rows: the products cost K N (N + 1) plus
    K N rows(R) multiply-adds.  The difference term is subtracted from
    the load column before the A-term, the order of the full product, so
    the residuals are those of R theta^k to the bit.  R's blocks are the
    reduced system's, derived once per generation.
    """
    rs = trajectory.reduced_system
    a = trajectory.coefficients
    N = rs.N
    R_mu = trajectory.mu @ rs.a_blocks
    d = (a[1:] - a[:-1]) / rs.dt
    residuals = np.empty((len(d), len(rs.load_row)))
    np.subtract(rs.load_row[:N + 1], d @ rs.mass_block_t,
                out=residuals[:, :N + 1])
    residuals[:, N + 1:] = rs.load_row[N + 1:]
    residuals -= a[1:] @ R_mu.T
    return residuals


def residual_dual_norms(trajectory: ReducedTrajectory) -> np.ndarray:
    residuals = _residuals(trajectory)
    return np.sqrt(np.einsum("ij,ij->i", residuals, residuals))


def error_estimate(trajectory: ReducedTrajectory) -> float:
    """Rigorous bound on ||u^K_h(mu) - V a^K||_M for any coefficients,
    in the basis V of the trajectory's own reduced system."""
    rs = trajectory.reduced_system
    a = trajectory.coefficients
    e0 = rs.initial_error_factor @ np.concatenate([[1.0], -a[0]])
    residuals = _residuals(trajectory)
    # alpha(mu) = min_q mu_q, exact since a(v, v; mu) >= min_q mu_q v^T X v,
    # of the mu the trajectory checked when it was made
    alpha = min(trajectory.mu.tolist())
    return float(np.sqrt(e0 @ e0 + rs.dt / alpha
                         * np.einsum("ij,ij->", residuals, residuals)))


def reconstruct_final(trajectory: ReducedTrajectory) -> np.ndarray:
    return trajectory.reduced_system.V @ trajectory.coefficients[-1]


def dump_basis(reduced_system: ReducedSystem, path) -> None:
    """CSV dump (n_h rows x N columns) plus a sidecar metadata line."""
    rs = reduced_system
    np.savetxt(path, rs.V, delimiter=",", fmt="%.17g")
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        fh.write(f"generation={rs.generation},N={rs.N},pod_tol={POD_TOL:g}\n")


class ReducedBasisLevel(ModelLevel):
    """Middle stage: certified Galerkin surrogate on an adaptive basis.

    Absorbs full-order trajectories into the basis by :func:`extend_basis`,
    under the module's :data:`POD_TOL`, :data:`N_ADD_MAX` and :data:`N_MAX`;
    whenever modes are added, ``reduced_system`` is replaced by the next
    generation's.
    """

    def __init__(self, system: AffineSystem):
        self.system = system
        self.reduced_system = build_reduced_system(
            system, np.zeros((system.n_h, 0)), generation=0)

    def lift(self, trajectory: ReducedTrajectory) -> ParabolicResult:
        """The answer for reduced coefficients: the final state in full
        space, in the trajectory's own basis, and its QoI."""
        u_final = reconstruct_final(trajectory)
        return ParabolicResult(qoi=compute_qoi(self.system, u_final),
                               u_final=u_final)

    def evaluate(self, mu) -> ModelOutput:
        """Raises :class:`NotReadyError` on an empty basis.  An N = 0
        answer would be certified at any TOL above its bound (at least 0.09
        on the default box and source), and a run at such a TOL would then
        never reach the full-order model whose trajectories grow the basis."""
        if not self.reduced_system.N:
            raise NotReadyError("the basis is empty")
        trajectory = solve_rb(self.reduced_system, mu)
        return ModelOutput(payload=self.lift(trajectory),
                           adaptation=trajectory)

    def estimate_error(self, output):
        return error_estimate(output.adaptation)

    def absorb(self, payload) -> bool:
        """Extend the basis by a full-order trajectory; True only if modes
        were added.  A trajectory the basis already captures, or one offered
        at the :data:`N_MAX` cap, changes nothing and returns False."""
        if not isinstance(payload, Trajectory):
            return False
        before = self.reduced_system
        self.reduced_system = extend_basis(before, self.system, payload)
        return self.reduced_system is not before
