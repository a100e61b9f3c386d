"""Golden digests: seeded runs must reproduce these SHA-256 hashes bit for bit.

The digests hash in-memory arrays (not trajectory CSVs, whose column set
may grow) plus the bytes of two seeded sweep CSVs, one gated and one with
the gate bypassed.  OpenBLAS partitions some
products differently per thread count, so the runs happen in a child
process with BLAS pinned to one thread.  Recorded with Python 3.11.7 on
x86_64, numpy 2.4.6 (bundled OpenBLAS 0.3.31) and scipy 1.17.1 (bundled
OpenBLAS 0.3.30), both DYNAMIC_ARCH builds running their SkylakeX kernels
(the core ``scipy_openblas_get_corename64_`` and
``scipy_openblas_get_corename`` report).  The digests hold for that core
only: another core, or another BLAS build, may legitimately move the last
ulp and so change them (``OPENBLAS_CORETYPE=Haswell`` changes all seven).
Any change to the algorithms that reorders floating-point operations shows
up here.

Run this file as a script to print the current digests.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import grouse
from grouse import cli
from grouse.full_data import _EXACT_EPS_LIMIT, full_step, predicted_decrease
from grouse.harness import ProblemSpec, random_basis, run_full_trial, run_partial_trial

GOLDEN = {
    "full_exact_epsilon": "75bacb7983cac8e5581676866d5d741bce7ad3e3a8fdc6d804cd3e8e19bc7c67",
    "full_maintained_product": "69c2c4106771b034109b7ec93c28b4a83b2321b245ad2109a482c5ddb873054d",
    "partial_gated": "69a80b1cc0eca361720d25bb5acb7cc31fd0dc5af94aa789e75b1b905e4d50f0",
    "partial_bypassed": "f686ffc27ba3d4dc178b8ed52c61a3d792801b144ef63215b99d50cb1b64f39b",
    "full_step_chain": "7f954a9e09092f35c67a4043bc16f339a28cb0a326347ff51dfab72bd2138089",
    "sweep_csv": "d3ccb91da146ffdd87ed67b77477ae3ff12a829350d329ae812b0f2323528401",
    "sweep_bypassed_csv": "3a78c525ccb640d180ba6f7dff09ba0745e40b62eb1dab6e98a6d31aadb45953",
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _trial_sha(res) -> str:
    scalars = np.array(
        [res.gate_skips]
        + [np.nan if x is None else x for x in (res.x_factor, res.tail_slope)]
    )
    return _sha(
        res.epsilons, res.gate_passed, res.taken, res.norm_r, res.norm_p, res.theta, scalars
    )


def _full_step_chain_sha() -> str:
    u, ubar = random_basis(120, 4, 15), random_basis(120, 4, 16)
    rng = np.random.default_rng(17)
    decreases, epsilons = [], []
    for _ in range(40):
        v = ubar.columns @ rng.standard_normal(4)
        decreases.append(predicted_decrease(u, ubar, v, 0.5))
        u, rec = full_step(u, v, ubar)
        decreases.append(rec.predicted_decrease)
        epsilons.append(rec.epsilon_after)
    return _sha(u.columns, np.array(decreases), np.array(epsilons))


def _sweep_csv_sha(*flags) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["sweep", "--n", "80", "--d", "3", "--q", "3,12,40", "--trials", "3",
                 "--iters", "60", "--seed", "18", "--out", str(out), *flags]
            )
        assert code == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


def compute_digests() -> dict:
    assert 1500 * 40 * 40 > _EXACT_EPS_LIMIT  # exercises the maintained U^T ubar
    gated = run_partial_trial(ProblemSpec(n=500, d=10, q=100, iters=300, seed=13))
    assert 0 < gated.gate_skips < 300
    return {
        "full_exact_epsilon": _trial_sha(
            run_full_trial(ProblemSpec(n=200, d=5, q="full", iters=300, seed=11))
        ),
        "full_maintained_product": _trial_sha(
            run_full_trial(ProblemSpec(n=1500, d=40, q="full", iters=150, seed=12))
        ),
        "partial_gated": _trial_sha(gated),
        "partial_bypassed": _trial_sha(
            run_partial_trial(
                ProblemSpec(n=500, d=10, q=12, iters=200, seed=14), bypass_gate=True
            )
        ),
        "full_step_chain": _full_step_chain_sha(),
        "sweep_csv": _sweep_csv_sha(),
        "sweep_bypassed_csv": _sweep_csv_sha("--bypass_gate"),
    }


@pytest.fixture(scope="module")
def digests():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(grouse.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=1))
