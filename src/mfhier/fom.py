"""Full-order parabolic model: P1 finite elements, implicit Euler.

Heat equation on (0, 1) with homogeneous Dirichlet boundary, diffusivity
piecewise constant on Q equal subdomains with values given by the
parameter vector.  The operator has affine parameter dependence
A(mu) = sum_q mu_q A_q, which is what makes online-efficient error
estimation possible downstream.  Every operator is symmetric tridiagonal
and kept once, as its two bands (:class:`Tridiagonal`): the offline
products, the march and the Cholesky factors all read the same arrays.
The implicit Euler march factors its step matrix once with LAPACK's
tridiagonal LDL^T and steps by one banded matvec and one tridiagonal solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DomainError
from .hierarchy import ModelOutput

_dsbmv = scipy.linalg.blas.dsbmv
_pttrf = scipy.linalg.lapack.dpttrf
_pttrs = scipy.linalg.lapack.dpttrs
_tbtrs = scipy.linalg.lapack.dtbtrs


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Symmetric tridiagonal matrix kept as its bands ``diag`` and ``off``.

    ``S @ v`` takes a vector or a block of columns and returns a C-ordered
    array with the values of a CSR product, bit for bit for finite v.  A
    CSR row sum is ((0 + sub) + main) + super over the nonzero entries.  A
    zero term changes no nonzero sum and a float sum may swap its operands,
    so (main + sub) + super can differ only by giving -0 for +0, which the
    final + 0.0 undoes.
    """

    diag: np.ndarray
    off: np.ndarray

    def __matmul__(self, v) -> np.ndarray:
        # a C-ordered v keeps each pass below on contiguous rows
        v = np.ascontiguousarray(v, dtype=float)
        rows = (slice(None),) + (None,) * (v.ndim - 1)
        diag, off = self.diag[rows], self.off[rows]
        out = diag * v
        out[1:] += off * v[:-1]
        out[:-1] += off * v[1:]
        out += 0.0
        return out

    def toarray(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def upper_band(self) -> np.ndarray:
        """LAPACK upper band storage (2, n); its entry [0, 0] is unused."""
        return np.concatenate(([0.0], self.off, self.diag)).reshape(2, -1)


def _band_cholesky(S: Tridiagonal) -> np.ndarray:
    """Upper banded Cholesky factor U of S = U^T U."""
    return scipy.linalg.cholesky_banded(S.upper_band(), check_finite=False)


@dataclass(frozen=True)
class AffineSystem:
    """Assembled discrete operators, immutable and safely shareable.

    ``M`` is the mass matrix, ``A[q]`` the stiffness contribution of
    subdomain q, ``X = sum_q A[q]`` the H^1_0-seminorm Gram matrix,
    ``F`` the load vector and ``qoi_vector = M @ 1`` realizes the
    quantity of interest s = integral of u(., T).  Each operator is one
    :class:`Tridiagonal`, which the products, the march and the Cholesky
    factors all read; the private fields keep the factors of X and M.
    """

    n_h: int
    h: float
    K: int
    T: float
    dt: float
    Q: int
    M: Tridiagonal
    A: tuple          # of Tridiagonal, one per subdomain
    X: Tridiagonal
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
        w, info = _tbtrs(self._x_chol[0], rhs, trans="T")
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


def _initial_values(u0: str, x: np.ndarray) -> np.ndarray:
    if u0 == "zero":
        return np.zeros_like(x)
    if u0 == "sine":
        return np.sin(np.pi * x)
    raise ConfigurationError(f"unknown initial-value tag {u0!r}")


def assemble(n_h: int, K: int, T: float, Q: int,
             source="one", u0: str = "zero") -> AffineSystem:
    """Assemble mass, per-subdomain stiffness and load on a uniform mesh.

    Subdomain q covers [q/Q, (q+1)/Q); elements straddling a subdomain
    boundary split their stiffness and load contributions exactly by
    sub-element integration (the P1 gradient is constant per element, so
    the split is just proportional to the overlap length).

    The element integrals are (Q, n_h + 1) arrays, element e spanning
    [e*h, (e+1)*h] with interior dofs e-1 and e.  The stiffness weight
    w = overlap / h**2 gives A_q the diagonal w[:, :-1] + w[:, 1:] and the
    off-diagonal 0 - w[:, 1:-1].  X's bands are the A_q bands summed in q
    order, and F takes every right-end hat integral (q ascending) before
    every left-end one, as a loop over elements and subdomains adds them to
    zeros, so the bands and F keep the loop's bits.
    """
    if n_h < Q or Q < 1 or K < 1 or not 0 < T < math.inf:  # also rejects NaN
        raise ConfigurationError("need n_h >= Q >= 1, K >= 1, finite T > 0")
    h = 1.0 / (n_h + 1)
    x = h * np.arange(1, n_h + 1)

    e = np.arange(n_h + 1)
    x_left = e * h
    q = np.arange(Q)[:, None]
    a = np.maximum(x_left, q / Q)
    b = np.minimum((e + 1) * h, (q + 1) / Q)
    overlap = b - a
    inside = overlap > 0
    w = np.where(inside, overlap / h**2, 0.0)  # integral of kappa * phi' * phi'
    # load: exact integrals of the hat functions over [a, b]; float_power is
    # libm's pow, as Python's ``**`` on floats, where ``**`` on arrays squares
    int_right = (np.float_power(b - x_left, 2)
                 - np.float_power(a - x_left, 2)) / (2.0 * h)
    int_left = overlap - int_right
    source_vals = _source_values(source, Q)[:, None]
    load_right = np.where(inside, source_vals * int_right, 0.0)
    load_left = np.where(inside, source_vals * int_left, 0.0)

    A_diag = w[:, :-1] + w[:, 1:]
    A_off = 0.0 - w[:, 1:-1]
    # running sums of the rows in q order, right ends before left ends for F
    F = sum(load_left[:, 1:], start=sum(load_right[:, :-1]))

    M = Tridiagonal(np.full(n_h, 2.0 * h / 3.0), np.full(n_h - 1, h / 6.0))
    X = Tridiagonal(sum(A_diag), sum(A_off))
    ones = np.ones(n_h)
    qoi_vector = M @ ones
    return AffineSystem(
        n_h=n_h, h=h, K=K, T=float(T), dt=float(T) / K, Q=Q,
        M=M, A=tuple(map(Tridiagonal, A_diag, A_off)), X=X, F=F,
        u0=_initial_values(u0, x), qoi_vector=qoi_vector,
        qoi_const=float(np.sqrt(ones @ qoi_vector)),
        _x_chol=(_band_cholesky(X), False), _m_chol=_band_cholesky(M),
    )


def check_diffusivity(mu, Q: int) -> np.ndarray:
    """The one diffusivity check: mu as a float array if it is Q finite,
    strictly positive values (a coercive a(., .; mu)), else DomainError;
    an empty mu is none.  A scalar loop tests Q values faster than numpy;
    NaN fails it too."""
    mu = np.asarray(mu, dtype=float)
    if (mu.shape != (Q,) or not Q
            or not all(0.0 < v < math.inf for v in mu.tolist())):
        raise DomainError(f"diffusivity {mu.tolist()} is not one finite, "
                          "strictly positive value per subdomain")
    return mu


def solve_fom(system: AffineSystem, mu) -> Trajectory:
    """Implicit Euler march B u^k = M u^{k-1} + dt F, B = M + dt A(mu).

    B is symmetric tridiagonal: its bands are M's plus dt times the
    mu-weighted A_q bands.  LAPACK's ``dpttrf`` factors it once as L D L^T;
    each step is one banded matvec (``dsbmv``) for the right-hand side and
    one ``dpttrs`` solve.
    """
    mu = check_diffusivity(mu, system.Q)
    dt, M = system.dt, system.M
    diag = M.diag + dt * (mu @ np.array([A_q.diag for A_q in system.A]))
    off = M.off + dt * (mu @ np.array([A_q.off for A_q in system.A]))
    if not off.size:  # the f2py wrappers want one off-diagonal entry at n = 1
        off = np.zeros(1)
    d, e, info = _pttrf(diag, off, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise DomainError(f"step matrix is not positive definite (info={info})")
    states = np.empty((system.K + 1, system.n_h))
    states[0] = system.u0
    dt_f = dt * system.F
    u = system.u0
    m_band = M.upper_band()
    for k in range(1, system.K + 1):
        # dsbmv writes M u + dt F into a copy of dt_f; dpttrs overwrites
        # that copy with the solution
        u, info = _pttrs(d, e, _dsbmv(1, 1.0, m_band, u, beta=1.0, y=dt_f),
                         overwrite_b=1)
        states[k] = u
    return Trajectory(states=states)


def compute_qoi(system: AffineSystem, state) -> float:
    """s = l^T u with l = M @ 1: the integral of u, the QoI of every
    parabolic answer when u is its final state u^K."""
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
        u_final = trajectory.states[-1].copy()
        payload = ParabolicResult(qoi=compute_qoi(self.system, u_final),
                                  u_final=u_final)
        return ModelOutput(payload=payload, adaptation=trajectory)
