"""Streaming identification from partial observations.

Each step observes a random subset of entries of a random subspace
vector.  A sampled-Gram eigenvalue gate decides whether the subset
carries enough information; accepted observations drive a rank-one
rotation of the basis.  This script runs a gated stream, prints the gate
statistics, writes a trajectory CSV, and shows the observation file
format round-tripping.
"""
import tempfile
from pathlib import Path

import numpy as np

from grouse import (
    Observation,
    ProblemSpec,
    gate_check,
    pair_with_epsilon,
    read_observations,
    run_partial_trial,
    write_observations,
    write_trajectory_csv,
)

print("=== a gated partial-data run (n=500, d=5, q=80 entries per step) ===")
spec = ProblemSpec(n=500, d=5, q=80, iters=300, seed=8)
res = run_partial_trial(spec)
print(f"error: {res.epsilons[0]:.4f} -> {res.epsilons[-1]:.3e} over {spec.iters} steps")
print(f"gate skipped {res.gate_skips} of {spec.iters} observations")
print(f"fitted convergence factor X = {res.x_factor:.3f} (near 1 means the")
print("   per-step contraction is close to 1 - q/(n d))")

# the demo's files live in a temporary directory, removed at the end (or at
# interpreter exit, should the demo fail first)
tmp = tempfile.TemporaryDirectory(prefix="grouse_demo_")
out_dir = Path(tmp.name)
traj_path = out_dir / "trajectory.csv"
write_trajectory_csv(traj_path, res)
print(f"trajectory written to {traj_path}")

print()
print("=== what the gate looks at ===")
u, ubar = pair_with_epsilon(400, 5, 1e-3, seed=9)
rng = np.random.default_rng(10)
omega_good = np.sort(rng.choice(400, size=120, replace=False))
verdict = gate_check(u, omega_good)
print(
    f"q=120 sample: sampled-Gram eigenvalues in [{verdict.eigen_min:.4f}, "
    f"{verdict.eigen_max:.4f}], window [{verdict.lower_bound:.4f}, "
    f"{verdict.upper_bound:.4f}] -> passed={verdict.passed}"
)
omega_tiny = np.sort(rng.choice(400, size=3, replace=False))
print(f"q=3 sample (< d): passed={gate_check(u, omega_tiny).passed} (singular Gram)")

print()
print("=== observation wire format (CSV, 1-based indices) ===")
obs = [
    Observation(
        n=400,
        omega=np.sort(rng.choice(400, size=6, replace=False)),
        values=rng.standard_normal(6),
    )
    for _ in range(2)
]
obs_path = out_dir / "observations.csv"
write_observations(obs_path, obs)
print(obs_path.read_text().strip())
back = read_observations(obs_path)
print(f"round-trip ok: {all(np.array_equal(a.values, b.values) for a, b in zip(obs, back))}")
tmp.cleanup()
