"""The full-order model on its own: assembly, solve, analytic validation.

Solves the heat equation with piecewise-constant diffusivity on (0, 1) and
checks the discretization against the closed-form decay of a single sine
mode (error should shrink by ~4x when the mesh width is halved and the
time step quartered).
"""

import math
import time

import numpy as np

from mfhier import assemble, compute_qoi, solve_fom
from mfhier.fom import dump_trajectory

# parametrized run: two subdomains, different conductivities
system = assemble(n_h=200, K=100, T=1.0, Q=2)
for mu in ([1.0, 1.0], [0.1, 10.0], [10.0, 0.1]):
    t0 = time.perf_counter()
    trajectory = solve_fom(system, mu)
    duration_s = time.perf_counter() - t0
    u_final = trajectory.states[-1]
    print(f"mu = {mu}:  QoI = {compute_qoi(system, u_final):.6f}  "
          f"max u(x, T) = {u_final.max():.6f}  "
          f"({duration_s * 1e3:.1f} ms)")

# analytic check: u0 = sin(pi x), f = 0, unit diffusivity decays as
# e^{-pi^2 t} sin(pi x)
print("\nanalytic single-mode validation (T = 0.1):")
previous = None
for n_h, K in ((50, 125), (101, 500), (203, 2000)):
    sys_a = assemble(n_h, K, 0.1, 1, source="zero", u0="sine")
    traj = solve_fom(sys_a, [1.0])
    exact = math.exp(-math.pi**2 * 0.1) * np.sin(math.pi * sys_a.nodes())
    err = float(np.max(np.abs(traj.states[-1] - exact)))
    ratio = "" if previous is None else f"   ratio {previous / err:.2f}"
    print(f"  n_h = {n_h:3d}, K = {K:4d}:  max node error = {err:.3e}{ratio}")
    previous = err

dump_trajectory(solve_fom(system, [2.0, 0.5]), "fom_trajectory.csv")
print("\ntrajectory at mu = (2.0, 0.5) written to fom_trajectory.csv")
