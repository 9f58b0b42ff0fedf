"""Rigor and effectivity of the residual-based error bound.

The bound certifies the final-time error of ANY coefficient sequence in
the reduced space, whether it came from a Galerkin solve or from the
learned regressor.  A reduced trajectory carries the reduced system it is
in, so the bound and the lift to full space take the trajectory alone.
This script samples random reduced bases, reduced solves and deliberately
perturbed trajectories, compares the bound against the true error from
fresh full-order solves, and measures the online residual evaluation
against a full-space computation in long double (its own tridiagonal
solve for the Riesz lift) over 30 random cases.  It exits with status 1
if any bound is violated.
"""

import sys

import numpy as np

from mfhier import (ParameterBox, SplitMix64, assemble, error_estimate,
                    reconstruct_final, residual_dual_norms, solve_fom,
                    solve_rb)
from mfhier.harness import _random_reduced_system
from mfhier.rb import ReducedTrajectory

system = assemble(n_h=200, K=100, T=1.0, Q=2)
box = ParameterBox([[0.1, 10.0], [0.1, 10.0]])
rng = SplitMix64(2024)


print("sampling 60 (parameter, basis, trajectory) triples ...")
effectivities = []
violations = 0
for trial in range(60):
    reduced = _random_reduced_system(system, rng, 2 + trial % 6)
    mu = box.sample(rng)
    trajectory = solve_rb(reduced, mu)
    if trial % 2:  # perturb: same certificate machinery, worse trajectory
        noise = rng.uniform_array(-0.02, 0.02, (system.K + 1, reduced.N))
        trajectory = ReducedTrajectory(trajectory.coefficients + noise,
                                       mu, reduced)
    delta = error_estimate(trajectory)
    truth = solve_fom(system, mu).states[-1]
    true_error = system.m_norm(truth - reconstruct_final(trajectory))
    if delta < true_error:
        violations += 1
    effectivities.append(delta / max(true_error, 1e-14))

eff = np.array(effectivities)
print(f"bound violations: {violations} of {len(eff)}")
print(f"effectivity (bound / true error): min {eff.min():.1f}, "
      f"median {np.median(eff):.1f}, max {eff.max():.1f}")


def tri_matvec(S, rows):
    """S @ row for every row of the long-double ``rows``, in long double."""
    diag, off = S.diag.astype(np.longdouble), S.off.astype(np.longdouble)
    out = diag * rows
    out[:, :-1] += off * rows[:, 1:]
    out[:, 1:] += off * rows[:, :-1]
    return out


def tri_solve(S, rows):
    """Thomas algorithm along the last axis, one system per row, in long
    double."""
    diag, off = S.diag.astype(np.longdouble), S.off.astype(np.longdouble)
    n = len(diag)
    c = np.empty(n - 1, dtype=np.longdouble)
    d = np.empty_like(rows)
    denom = diag[0]
    d[:, 0] = rows[:, 0] / denom
    for i in range(1, n):
        c[i - 1] = off[i - 1] / denom
        denom = diag[i] - off[i - 1] * c[i - 1]
        d[:, i] = (rows[:, i] - off[i - 1] * d[:, i - 1]) / denom
    for i in range(n - 2, -1, -1):
        d[:, i] -= c[i] * d[:, i + 1]
    return d


F_ld = system.F.astype(np.longdouble)


def reference_norms(V, mu, coeffs):
    """||r^k||_{X'} for k = 1..K, every operation in long double."""
    U = coeffs.astype(np.longdouble) @ V.astype(np.longdouble).T
    r = (F_ld - tri_matvec(system.M, U[1:] - U[:-1]) / np.longdouble(system.dt)
         - sum(np.longdouble(m) * tri_matvec(A, U[1:])
               for m, A in zip(mu, system.A)))
    return np.sqrt(np.einsum("ij,ij->i", r, tri_solve(system.X, r)))


print("\nonline residual dual norms against a long-double reference "
      f"(eps {np.finfo(np.longdouble).eps:.1e}), 30 random cases:")
errors = []
for _ in range(30):
    reduced = _random_reduced_system(system, rng, 4)
    mu = box.sample(rng)
    coeffs = rng.uniform_array(-1.0, 1.0, (system.K + 1, reduced.N))
    online = residual_dual_norms(ReducedTrajectory(coeffs, mu, reduced))
    reference = reference_norms(reduced.V, mu, coeffs)
    errors.append(float(np.max(np.abs(online - reference)) / np.max(reference)))
print("  max_k |online - reference| / max_k reference: "
      f"median {np.median(errors):.2e}, max {np.max(errors):.2e}")

if violations:
    sys.exit(f"{violations} bound violations")
