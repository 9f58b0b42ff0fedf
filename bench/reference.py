"""Answer checks written apart from mfhier.

Nothing here imports mfhier.  The parabolic reference has its own P1 /
implicit-Euler discretisation and a tridiagonal (banded) solve batched over
many parameters; the optimisation checks use the analytic Himmelblau
gradient and its four known minimizers.  The query streams are drawn with an
own SplitMix64, so the benchmark also checks that the program answered the
queries it was asked.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps

_MASK = (1 << 64) - 1


def splitmix64_stream(seed: int, n: int, lows, highs) -> np.ndarray:
    """n points drawn component by component, uniform in the box."""
    state = seed & _MASK
    rows = []
    for _ in range(n):
        row = []
        for lo, hi in zip(lows, highs):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            row.append(lo + (hi - lo) * ((z >> 11) * 2.0**-53))
        rows.append(row)
    return np.array(rows, dtype=float).reshape(n, len(lows))


# ----------------------------------------------------------------------
# Parabolic reference


class HeatReference:
    """u_t - (kappa(mu) u')' = f on (0, 1), u = 0 at both ends.

    P1 elements on n_h interior nodes, implicit Euler with K steps up to T,
    kappa equal to mu_q on the q-th of Q equal subdomains.  An element that
    straddles a subdomain boundary gets the length-weighted mean of the two
    values, which is the exact element integral since P1 gradients are
    constant per element.
    """

    def __init__(self, n_h: int, K: int, T: float, Q: int,
                 source: float = 1.0):
        self.n_h, self.K, self.T = n_h, K, T
        self.h = h = 1.0 / (n_h + 1)
        self.dt = T / K
        self.nodes = h * np.arange(1, n_h + 1)
        left = h * np.arange(n_h + 1)
        edges = np.arange(Q + 1) / Q
        overlap = (np.minimum(left[:, None] + h, edges[None, 1:])
                   - np.maximum(left[:, None], edges[None, :-1]))
        self.share = np.clip(overlap, 0.0, None) / h   # (elements, Q)
        self.load = source * h * np.ones(n_h)          # integral of each hat
        self.mass_ones = self.mass(np.ones(n_h))       # s(u) = mass_ones . u
        self.one_m_norm = math.sqrt(float(self.mass_ones.sum()))

    def mass(self, u: np.ndarray) -> np.ndarray:
        """M u along the first axis (tridiag(h/6, 2h/3, h/6))."""
        h = self.h
        out = (2.0 * h / 3.0) * u
        out[1:] += (h / 6.0) * u[:-1]
        out[:-1] += (h / 6.0) * u[1:]
        return out

    def m_norms(self, diff: np.ndarray) -> np.ndarray:
        """M-norm of each row of a (P, n_h) array."""
        d = diff.T
        return np.sqrt(np.clip((d * self.mass(d)).sum(axis=0), 0.0, None))

    def final_states(self, mus: np.ndarray, u0=None) -> np.ndarray:
        """u^K for every row of ``mus``; returns (P, n_h).

        The system (M + dt A(mu)) is tridiagonal and positive definite; its
        LU factors (Thomas algorithm, no pivoting needed) are formed once
        per parameter and reused over the K steps, with all parameters
        advanced together, one row of the mesh at a time.
        """
        mus = np.atleast_2d(np.asarray(mus, dtype=float))
        n, P, h, dt = self.n_h, mus.shape[0], self.h, self.dt
        kappa = (mus @ self.share.T).T                      # (elements, P)
        diag = 2.0 * h / 3.0 + dt * (kappa[:-1] + kappa[1:]) / h
        off = h / 6.0 - dt * kappa[1:-1] / h                # (n - 1, P)
        pivot = np.empty((n, P))
        lower = np.empty((n, P))
        pivot[0] = diag[0]
        lower[0] = 0.0
        for i in range(1, n):
            lower[i] = off[i - 1] / pivot[i - 1]
            pivot[i] = diag[i] - lower[i] * off[i - 1]
        u = np.zeros((n, P)) if u0 is None else np.repeat(
            np.asarray(u0, dtype=float)[:, None], P, axis=1)
        dt_f = (dt * self.load)[:, None]
        for _ in range(self.K):
            y = self.mass(u) + dt_f
            for i in range(1, n):
                y[i] -= lower[i] * y[i - 1]
            y[n - 1] /= pivot[n - 1]
            for i in range(n - 2, -1, -1):
                y[i] = (y[i] - off[i] * y[i + 1]) / pivot[i]
            u = y
        return u.T.copy()


def validate_heat_reference() -> list[str]:
    """Check the reference on the heat mode e^{-pi^2 t} sin(pi x).

    With kappa = 1, f = 0 and nodal sin(pi x) as initial value, the sine
    vector is an eigenvector of both the P1 mass and stiffness matrices, so
    implicit Euler gives u^K = (1 + dt lambda_h)^{-K} sin(pi x) exactly,
    with lambda_h = 6 (1 - cos(pi h)) / (h^2 (2 + cos(pi h))).  The reference
    must match that to round-off, and the continuous mode to the
    discretisation error O(dt + h^2), at two resolutions.  Returns the list
    of failed checks (empty when all pass).
    """
    problems = []
    errors = []
    for n_h, K in ((200, 100), (401, 400)):
        ref = HeatReference(n_h, K, T=0.1, Q=3, source=0.0)
        u0 = np.sin(np.pi * ref.nodes)
        u = ref.final_states(np.ones((1, 3)), u0=u0)[0]
        c = math.cos(math.pi * ref.h)
        lam = 6.0 * (1.0 - c) / (ref.h**2 * (2.0 + c))
        discrete = (1.0 + ref.dt * lam) ** (-K) * u0
        gap = float(np.max(np.abs(u - discrete)))
        if gap > 1e-12:
            problems.append(f"n_h={n_h}: discrete heat mode off by {gap:.3e}")
        exact = math.exp(-math.pi**2 * ref.T) * u0
        errors.append(float(np.max(np.abs(u - exact))))
    # error ~ dt + h^2: a 4x smaller dt with a 2x finer mesh cuts it by ~4
    ratio = errors[0] / errors[1]
    if not 3.2 <= ratio <= 4.8:
        problems.append(f"refinement ratio {ratio:.3f} outside [3.2, 4.8]")
    return problems


# ----------------------------------------------------------------------
# Himmelblau


#: J(x, y) = (x^2 + y - 11)^2 + (x + y^2 - 7)^2 has these four minima, J = 0.
HIMMELBLAU_MINIMIZERS = np.array([
    [3.0, 2.0],
    [-2.805118, 3.131312],
    [-3.779310, -3.283186],
    [3.584428, -1.848126],
])


def himmelblau(x) -> float:
    a = x[0] * x[0] + x[1] - 11.0
    b = x[0] + x[1] * x[1] - 7.0
    return a * a + b * b


def himmelblau_roundoff(x) -> float:
    """Bound on the rounding error of evaluating J at x in doubles.

    a = x^2 + y - 11 and b = x + y^2 - 7 each carry an absolute error below
    2 eps times the sum of their terms' sizes; J = a^2 + b^2 adds
    2 |a| da + 2 |b| db + da^2 + db^2 and the rounding of the last sum.
    """
    da = 2.0 * EPS * (x[0] * x[0] + abs(x[1]) + 11.0)
    db = 2.0 * EPS * (abs(x[0]) + x[1] * x[1] + 7.0)
    a = x[0] * x[0] + x[1] - 11.0
    b = x[0] + x[1] * x[1] - 7.0
    return (2.0 * (abs(a) * da + abs(b) * db) + da * da + db * db
            + 2.0 * EPS * (a * a + b * b))


def himmelblau_gradient(x) -> np.ndarray:
    a = x[0] * x[0] + x[1] - 11.0
    b = x[0] + x[1] * x[1] - 7.0
    return np.array([4.0 * x[0] * a + 2.0 * b, 2.0 * a + 4.0 * x[1] * b])
