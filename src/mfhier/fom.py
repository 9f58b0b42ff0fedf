"""Full-order parabolic model: P1 finite elements, implicit Euler.

Heat equation on (0, 1) with homogeneous Dirichlet boundary, diffusivity
piecewise constant on Q equal subdomains with values given by the
parameter vector.  The operator has affine parameter dependence
A(mu) = sum_q mu_q A_q, which is what makes online-efficient error
estimation possible downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConfigurationError, DomainError
from .hierarchy import ModelOutput


def _tridiag(diag, off):
    return scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csr")


def _band_cholesky(S) -> np.ndarray:
    """Upper banded Cholesky factor U of a tridiagonal S = U^T U."""
    band = np.zeros((2, S.shape[0]))
    band[0, 1:] = S.diagonal(1)
    band[1] = S.diagonal()
    return scipy.linalg.cholesky_banded(band, check_finite=False)


@dataclass(frozen=True)
class AffineSystem:
    """Assembled discrete operators, immutable and safely shareable.

    ``M`` is the mass matrix, ``A[q]`` the stiffness contribution of
    subdomain q, ``X = sum_q A[q]`` the H^1_0-seminorm Gram matrix,
    ``F`` the load vector and ``qoi_vector = M @ 1`` realizes the
    quantity of interest s = integral of u(., T).
    """

    n_h: int
    h: float
    K: int
    T: float
    dt: float
    Q: int
    M: scipy.sparse.csr_matrix
    A: tuple
    X: scipy.sparse.csr_matrix
    F: np.ndarray
    u0: np.ndarray
    qoi_vector: np.ndarray
    qoi_const: float  # ||1||_M, certifies |s - s~| <= qoi_const * Delta
    _x_chol: Any = field(repr=False, compare=False, default=None)
    _m_chol: Any = field(repr=False, compare=False, default=None)

    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_h + 1)

    def m_norm(self, v) -> float:
        return float(np.sqrt(max(v @ (self.M @ v), 0.0)))

    def m_half(self, v: np.ndarray) -> np.ndarray:
        """U_m v for M = U_m^T U_m (v may have multiple columns), so that
        ||m_half(v)|| = ||v||_M."""
        U = self._m_chol
        w = (U[1] * v.T).T
        w[:-1] += (U[0, 1:] * v[1:].T).T
        return w

    def x_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Riesz lift: solve X w = rhs (rhs may have multiple columns)."""
        return scipy.linalg.cho_solve_banded(self._x_chol, rhs,
                                             check_finite=False)

    def x_half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve U^T w = rhs (n_h x m) for X = U^T U, so that
        w^T w = rhs^T X^{-1} rhs."""
        w, info = scipy.linalg.lapack.dtbtrs(self._x_chol[0], rhs, trans="T")
        if info != 0:
            raise np.linalg.LinAlgError(f"banded triangular solve failed (info={info})")
        return w


@dataclass
class Trajectory:
    """Time-discrete solution u^0..u^K at one parameter."""

    states: np.ndarray  # (K+1, n_h)


@dataclass
class ParabolicResult:
    """Answer payload of the parabolic levels, only what the outer loop
    reads; the evaluation's trajectory is its ``ModelOutput.adaptation``."""

    qoi: float
    producer: str            # "fom" | "rb" | "ml"
    u_final: np.ndarray      # full-space final state (reconstructed for surrogates)


def _source_values(source, Q: int) -> np.ndarray:
    """Per-subdomain constants of the source term."""
    if isinstance(source, str):
        try:
            return {"one": np.ones(Q), "zero": np.zeros(Q)}[source]
        except KeyError:
            raise ConfigurationError(f"unknown source tag {source!r}") from None
    values = np.atleast_1d(np.asarray(source, dtype=float))
    if values.size == 1:
        return np.full(Q, values[0])
    if values.size != Q:
        raise ConfigurationError("source needs one constant per subdomain")
    return values


def _initial_values(u0, x: np.ndarray) -> np.ndarray:
    if isinstance(u0, str):
        if u0 == "zero":
            return np.zeros_like(x)
        if u0 == "sine":
            return np.sin(np.pi * x)
        raise ConfigurationError(f"unknown initial-value tag {u0!r}")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != x.shape:
        raise ConfigurationError("initial vector has wrong length")
    return u0


def assemble(n_h: int, K: int, T: float, Q: int,
             source="one", u0="zero") -> AffineSystem:
    """Assemble mass, per-subdomain stiffness and load on a uniform mesh.

    Subdomain q covers [(q-1)/Q, q/Q); elements straddling a subdomain
    boundary split their stiffness and load contributions exactly by
    sub-element integration (the P1 gradient is constant per element, so
    the split is just proportional to the overlap length).
    """
    if n_h < Q or Q < 1 or K < 1 or not T > 0:  # also rejects NaN
        raise ConfigurationError("need n_h >= Q >= 1, K >= 1, T > 0")
    h = 1.0 / (n_h + 1)
    x = h * np.arange(1, n_h + 1)

    diag_m = np.full(n_h, 2.0 * h / 3.0)
    off_m = np.full(n_h - 1, h / 6.0)
    M = _tridiag(diag_m, off_m)

    source_vals = _source_values(source, Q)
    A_diag = np.zeros((Q, n_h))
    A_off = np.zeros((Q, n_h - 1))
    F = np.zeros(n_h)
    for e in range(n_h + 1):  # element e spans [e*h, (e+1)*h]
        x_left, x_right = e * h, (e + 1) * h
        left_dof, right_dof = e - 1, e  # 0-based interior dofs; -1 / n_h are boundary
        for q in range(Q):
            a = max(x_left, q / Q)
            b = min(x_right, (q + 1) / Q)
            overlap = b - a
            if overlap <= 0:
                continue
            w = overlap / h**2  # integral of kappa * phi' * phi' over the overlap
            if left_dof >= 0:
                A_diag[q, left_dof] += w
            if right_dof < n_h:
                A_diag[q, right_dof] += w
            if left_dof >= 0 and right_dof < n_h:
                A_off[q, left_dof] -= w
            # load: exact integral of the hat functions over [a, b]
            int_right = ((b - x_left) ** 2 - (a - x_left) ** 2) / (2.0 * h)
            int_left = overlap - int_right
            if left_dof >= 0:
                F[left_dof] += source_vals[q] * int_left
            if right_dof < n_h:
                F[right_dof] += source_vals[q] * int_right

    A = tuple(_tridiag(A_diag[q], A_off[q]) for q in range(Q))
    X = sum(A[1:], start=A[0]).tocsr()

    u0_vec = _initial_values(u0, x)
    ones = np.ones(n_h)
    qoi_vector = M @ ones
    return AffineSystem(
        n_h=n_h, h=h, K=K, T=float(T), dt=float(T) / K, Q=Q,
        M=M, A=A, X=X, F=F, u0=u0_vec,
        qoi_vector=qoi_vector,
        qoi_const=float(np.sqrt(ones @ qoi_vector)),
        _x_chol=(_band_cholesky(X), False),
        _m_chol=_band_cholesky(M),
    )


def _check_mu(system: AffineSystem, mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (system.Q,):
        raise DomainError(f"expected {system.Q} diffusivity values, got {mu.shape}")
    if np.any(mu <= 0):
        raise DomainError("diffusivity must be strictly positive (coercivity)")
    return mu


def solve_fom(system: AffineSystem, mu) -> Trajectory:
    """Implicit Euler march; one sparse factorization reused over all steps."""
    mu = _check_mu(system, mu)
    B = (system.M + system.dt * sum(m_q * A_q for m_q, A_q in zip(mu, system.A)))
    lu = scipy.sparse.linalg.splu(B.tocsc())
    states = np.empty((system.K + 1, system.n_h))
    states[0] = system.u0
    dt_f = system.dt * system.F
    u = system.u0
    for k in range(1, system.K + 1):
        u = lu.solve(system.M @ u + dt_f)
        states[k] = u
    return Trajectory(states=states)


def compute_qoi(system: AffineSystem, state) -> float:
    """s = l^T u^K with l = M @ 1, i.e. the integral of u(., T)."""
    if isinstance(state, Trajectory):
        state = state.states[-1]
    state = np.asarray(state, dtype=float)
    if state.shape != (system.n_h,):
        raise ConfigurationError(f"state length {state.shape} != n_h {system.n_h}")
    return float(system.qoi_vector @ state)


def dump_trajectory(trajectory: Trajectory, path) -> None:
    """CSV dump: K+1 rows, n_h columns, row k = u^k."""
    np.savetxt(path, trajectory.states, delimiter=",", fmt="%.17g")


class FullOrderLevel:
    """Reference stage, the last level of a hierarchy.

    Every evaluation emits its trajectory as ``adaptation``; the answer
    keeps a copy of u^K, since a view would keep all K+1 states alive.
    """

    def __init__(self, system: AffineSystem):
        self.system = system

    def evaluate(self, mu) -> ModelOutput:
        trajectory = solve_fom(self.system, mu)
        payload = ParabolicResult(
            qoi=compute_qoi(self.system, trajectory), producer="fom",
            u_final=trajectory.states[-1].copy())
        return ModelOutput(payload=payload, adaptation=trajectory)
