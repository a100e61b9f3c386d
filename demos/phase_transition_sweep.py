"""The sampling phase transition in the convergence factor X.

For each trial the observed error ratio over N steps is summarized by the
X solving eps_N = eps_0 (1 - X q/(n d))^N.  Once the per-step sample size
q exceeds a modest multiple of d, X jumps from near 0 to near 1 and then
barely moves: more samples per step stop helping, because each step can
only correct one direction.  Desk-scale version of the full grid sweeps.
"""
import tempfile
from pathlib import Path

from grouse import sweep_phase, write_sweep_csv

ns = [600]
d = 6
qs = [6, 9, 12, 18, 24, 48, 96, 192]

print(f"=== mean X over 5 trials per cell (n={ns[0]}, d={d}, N=300, gate bypassed) ===")
cells = sweep_phase(ns, [d], qs, trials_per_cell=5, iters=300, seed=14, bypass_gate=True)
print(f"{'q':>5} {'q/d':>6} {'mean X':>8} {'std X':>8}")
for cell in cells:
    print(f"{cell.q:>5} {cell.q / d:>6.1f} {cell.mean_x:>8.3f} {cell.std_x:>8.3f}")

with tempfile.TemporaryDirectory(prefix="grouse_demo_") as out_dir:
    out = Path(out_dir) / "sweep.csv"
    write_sweep_csv(out, cells)
    print(f"\nsweep table written to {out} (removed on exit)")
print("the jump between q/d = 1 and q/d ~ 4-8 is the phase transition;")
print("above it X plateaus below-but-near 1 independently of q.")
