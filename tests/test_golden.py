"""Golden digests: seeded runs must reproduce these SHA-256 hashes bit for bit.

The digests hash in-memory arrays (not trajectory CSVs, whose column set
may grow) plus the bytes of four seeded CLI CSVs: two sweeps, one gated
and one with the gate bypassed, and the per-trial reports of
``validate-residual`` and ``validate-concentration``, whose trials run in
forked workers.  OpenBLAS partitions some
products differently per thread count, so the runs happen in a child
process with BLAS pinned to one thread.  Recorded with Python 3.11.7 on
x86_64, numpy 2.4.6 (bundled OpenBLAS 0.3.31) and scipy 1.17.1 (bundled
OpenBLAS 0.3.30), both DYNAMIC_ARCH builds.

Each OpenBLAS core runs its own kernels, which may legitimately move the
last ulp, so ``GOLDEN`` holds one set of digests per pair of cores (numpy's,
scipy's), as ``scipy_openblas_get_corename64_`` and
``scipy_openblas_get_corename`` report them in the child.  The SkylakeX set
was recorded on a machine whose OpenBLAS picks that core; the Haswell and
Sandybridge sets on the same machine, with ``OPENBLAS_CORETYPE`` set for
the child process only.  On a pair with no recorded set (another core, or
a BLAS build whose libraries are not found) the nine digest tests skip,
naming the pair, and no bitwise check of the seeded runs takes place; every
other test still runs.  Any change to the algorithms that reorders
floating-point operations shows up here.

Run this file as a script to print the current core pair and digests
(``OPENBLAS_CORETYPE=Haswell python tests/test_golden.py`` forces a core).
"""
import contextlib
import ctypes
import glob
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
from grouse import cli, linalg
from grouse.full_data import _EXACT_EPS_LIMIT, full_step, predicted_decrease
from grouse.harness import ProblemSpec, random_basis, run_full_trial, run_partial_trial

# every test here runs again under each forced OpenBLAS core in CI
pytestmark = pytest.mark.per_core

# (numpy's OpenBLAS core, scipy's OpenBLAS core) -> digests
GOLDEN = {
    ("SkylakeX", "SkylakeX"): {
        "full_exact_epsilon": "75bacb7983cac8e5581676866d5d741bce7ad3e3a8fdc6d804cd3e8e19bc7c67",
        "full_maintained_product": "69c2c4106771b034109b7ec93c28b4a83b2321b245ad2109a482c5ddb873054d",
        "partial_gated": "69a80b1cc0eca361720d25bb5acb7cc31fd0dc5af94aa789e75b1b905e4d50f0",
        "partial_bypassed": "f686ffc27ba3d4dc178b8ed52c61a3d792801b144ef63215b99d50cb1b64f39b",
        "full_step_chain": "7f954a9e09092f35c67a4043bc16f339a28cb0a326347ff51dfab72bd2138089",
        "sweep_csv": "d3ccb91da146ffdd87ed67b77477ae3ff12a829350d329ae812b0f2323528401",
        "sweep_bypassed_csv": "3a78c525ccb640d180ba6f7dff09ba0745e40b62eb1dab6e98a6d31aadb45953",
        "residual_csv": "d10e707b2867157caba8773f750cd32a3bdb3ae6e45e5125df96dfadb530d701",
        "concentration_csv": "3be7bc8e4e94b1c7a3eb6220c58e2a223dc59c671e7aaa9180e0ab2049b83dce",
    },
    ("Haswell", "Haswell"): {
        "full_exact_epsilon": "f0f8606da01d10dca139eb8ba480f58f8cf61d6c8339d97e89d945f5b2570457",
        "full_maintained_product": "74eb92242211e7cb19a6d76dbdaedf6b64e98fd6da310ec36b0da93f71c0c802",
        "partial_gated": "b9da2bbbdafc4e784beb7cf5dc18282dc96dcd67154e303a2ed8b0cb8058253d",
        "partial_bypassed": "5725d1e6c5a047a59efe7ad5e3bf02e0e0c66e17dbdd7dc0f9763b8ab2594837",
        "full_step_chain": "590c9de003822768dc20dc345a2654582b66a76bd78a408ee4a8a69b2789977a",
        "sweep_csv": "cf96a171b6d214da3acb0e3c8b9a37891ff307c4f6468894ff977effa304842d",
        "sweep_bypassed_csv": "72bc1d1a86ea7dc99e0f9ed863649d425114a7afe389a992b782b55f3011578f",
        "residual_csv": "9eba841445dd1359a3228c4eec0defcf041bdf4c25fcfae7783cbfbb33a4b90e",
        "concentration_csv": "0f981ad20b89533e98f8a23f0e238328fd74b29a73aafc15542db49662f38a9d",
    },
    ("Sandybridge", "Sandybridge"): {
        "full_exact_epsilon": "664f3feeb1b1c7518c73455abe8cafd6ed27e9318892c6a3cc2d76be55e4d62c",
        "full_maintained_product": "6be03ffe98675868f950196e2a0153bd84cea387344a4898e85a4202173c6a0c",
        "partial_gated": "4061c83586df713c0882cca1cee49c79a3bf1dea92ae533e63a2aace9c9fd5e3",
        "partial_bypassed": "22489663a199cd7688bec0d9f916cb5036c79dd5ee781a24a57849fe82987e8c",
        "full_step_chain": "cd453a325c90eca3fe9c28bb6559d355a615d7ea8c5eb30b4214fcfc601e6f58",
        "sweep_csv": "1f88e89607d49b9352218b5f9fc8ac6bbf3fded99f07eb5e7dd0c2c4b29dce67",
        "sweep_bypassed_csv": "450d74447b0f82df72f97989191692df4f076d4a2fbe6b962856538ce629fb26",
        "residual_csv": "2324a4538f6d61379cfaf2461465b8215ac9b2871eedc23e057743c62507e2fd",
        "concentration_csv": "d710e6200f01cc321b24abc94a25dac1d8a433f0a919bdd1434e71ca8a046d98",
    },
}
_NAMES = sorted(GOLDEN[("SkylakeX", "SkylakeX")])

# The symbol that reports the running core in numpy's and in scipy's OpenBLAS,
# in the order of linalg._OPENBLAS.
_CORENAME = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename")


def _core(package, pattern: str, symbol: str):
    """The core name that ``symbol`` reports in the OpenBLAS library beside ``package``, or None."""
    site = os.path.dirname(os.path.dirname(package.__file__))
    for path in glob.glob(os.path.join(site, pattern)):
        lib = ctypes.CDLL(path)
        if hasattr(lib, symbol):
            getter = getattr(lib, symbol)
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            return getter().decode()
    return None


def _cores() -> list:
    """The (numpy, scipy) pair of OpenBLAS core names, found by the ``linalg._OPENBLAS`` patterns."""
    return [
        _core(package, pattern, symbol)
        for (package, pattern, *_), symbol in zip(linalg._OPENBLAS, _CORENAME)
    ]


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


def _cli_csv_sha(argv: str) -> str:
    """SHA-256 of the CSV that ``grouse <argv> --out <file>`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv.split(), "--out", str(out)])
        assert code == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


_SWEEP = "sweep --n 80 --d 3 --q 3,12,40 --trials 3 --iters 60 --seed 18"


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
        "sweep_csv": _cli_csv_sha(_SWEEP),
        "sweep_bypassed_csv": _cli_csv_sha(_SWEEP + " --bypass_gate"),
        # trial counts past two workers' fork floor, and odd: two uneven ranges
        "residual_csv": _cli_csv_sha(
            "validate-residual --n 200 --d 4 --epsilon 1e-4 --omega_size 300 --delta 0.1"
            " --trials 1201 --seed 19"
        ),
        "concentration_csv": _cli_csv_sha(
            "validate-concentration --n 200 --d 4 --omega_size 80 --delta 0.1"
            " --trials 1201 --seed 20"
        ),
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


@pytest.mark.parametrize("name", _NAMES)
def test_golden_digest(digests, name):
    cores = tuple(digests["cores"])
    if cores not in GOLDEN:
        pytest.skip(f"no digests recorded for the OpenBLAS cores (numpy, scipy) = {cores}")
    assert digests["digests"][name] == GOLDEN[cores][name]


if __name__ == "__main__":
    print(json.dumps({"cores": _cores(), "digests": compute_digests()}, indent=1))
