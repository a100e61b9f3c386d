"""Every public entry rejects a wrong kind of argument with the library's own ValueError.

``_CALLS`` holds one valid call for each name in ``grouse.__all__`` that
takes a checked count, real setting, seed, vector or second basis, and the
kind of each such argument.  The walk replaces one argument at a time with
a wrong value of its kind and requires a ``ValueError`` (``NumericalError``
is one) whose message is the library's, not one that numpy or Python raise
deep inside a computation; a vector's message names the vector, and a
second basis of another n or d gets the pair rule's message.  The other
public names take nothing of these kinds: records, files, single bases,
matrices, problem specs and an epsilon trajectory.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grouse
from grouse import (
    Basis,
    Observation,
    ProblemSpec,
    alignment,
    coherence_vector,
    epsilon,
    epsilon_residual,
    estimate_skip_rate,
    fit_x,
    full_step,
    gamma_bound,
    gate_check,
    grouse_step,
    incoherent_basis,
    least_squares,
    mu_xt_diagnostics,
    orthonormalize,
    pair_with_epsilon,
    predicted_decrease,
    random_basis,
    revealed_angle_sin_sq,
    run_full,
    run_stream,
    singular_values,
    step_size,
    sweep_phase,
    tail_slope,
    validate_gram_concentration,
    validate_residual_bound,
    validate_sin_sq_expectation,
)

U, UBAR = pair_with_epsilon(20, 2, 0.1, 1)
V = UBAR.columns @ [1.0, 2.0]
OMEGA = np.arange(0, 20, 2)
OBS = Observation(n=20, omega=OMEGA, values=V[OMEGA], latent_s=[1.0, 2.0])
SPEC = dict(n=20, d=2, q=10, iters=3, seed=1, alpha=1.0, init_noise_std=0.5)
SWEEP = dict(
    ns=[20], ds=[2], qs=[10], trials_per_cell=1, iters=2, seed=0, alpha=1.0, init_noise_std=0.5
)

# name -> (callable, keyword arguments of a valid call, {argument: kind}).
# A "vector" has the length the call expects; a "free vector" may have any.
_CALLS = {
    "Observation": (
        Observation,
        dict(n=20, omega=OMEGA, values=V[OMEGA], latent_s=[1.0, 2.0]),
        dict(n="count", values="vector", latent_s="free vector"),
    ),
    "ProblemSpec": (
        ProblemSpec,
        SPEC,
        dict(n="count", d="count", q="count", iters="count", seed="seed", alpha="real",
             init_noise_std="real"),
    ),
    "alignment": (alignment, dict(u=U, ubar=UBAR), dict(ubar="pair")),
    "coherence_vector": (coherence_vector, dict(x=V), dict(x="free vector")),
    "epsilon": (epsilon, dict(u=U, ubar=UBAR), dict(ubar="pair")),
    "epsilon_residual": (epsilon_residual, dict(u=U, ubar=UBAR), dict(ubar="pair")),
    "estimate_skip_rate": (
        estimate_skip_rate, dict(u=U, q=10, trials=3, seed=1),
        dict(q="count", trials="count", seed="seed"),
    ),
    "fit_x": (
        fit_x, dict(epsilon0=0.5, epsilonN=0.1, n=20, d=2, q=10, iters=5),
        dict(epsilon0="real", epsilonN="real", n="count", d="count", q="count", iters="count"),
    ),
    "full_step": (full_step, dict(u=U, v=V, ubar=UBAR), dict(v="vector", ubar="pair")),
    "gamma_bound": (
        gamma_bound, dict(d=2, mu=1.5, omega_size=10, delta=0.1),
        dict(d="count", mu="real", omega_size="count", delta="real"),
    ),
    "gate_check": (gate_check, dict(u=U, omega=OMEGA), dict(omega="free vector")),
    "grouse_step": (
        grouse_step, dict(u=U, obs=OBS, alpha=1.0, ubar=UBAR),
        dict(obs="observation", alpha="real", ubar="pair"),
    ),
    "incoherent_basis": (
        incoherent_basis, dict(n=20, d=2, seed=1), dict(n="count", d="count", seed="seed")
    ),
    "least_squares": (least_squares, dict(c=U.columns, b=V), dict(b="vector")),
    "mu_xt_diagnostics": (
        mu_xt_diagnostics, dict(u=U, ubar=UBAR, trials=3, seed=1),
        dict(ubar="pair", trials="count", seed="seed"),
    ),
    "pair_with_epsilon": (
        pair_with_epsilon, dict(n=20, d=2, eps=0.1, seed=1),
        dict(n="count", d="count", eps="real", seed="seed"),
    ),
    "predicted_decrease": (
        predicted_decrease, dict(u=U, ubar=UBAR, v=V, eta=0.5),
        dict(ubar="pair", v="vector", eta="real"),
    ),
    "random_basis": (
        random_basis, dict(n=20, d=2, seed=1), dict(n="count", d="count", seed="seed")
    ),
    "revealed_angle_sin_sq": (revealed_angle_sin_sq, dict(u=U, v=V), dict(v="vector")),
    "run_full": (
        run_full, dict(u0=U, ubar=UBAR, iters=3, seed=1),
        dict(ubar="pair", iters="count", seed="seed"),
    ),
    "run_stream": (
        run_stream, dict(u0=U, stream=[OBS], alpha=1.0, ubar=UBAR),
        dict(stream="stream", alpha="real", ubar="pair"),
    ),
    "step_size": (
        step_size, dict(sigma=1.0, norm_r=0.5, norm_p=1.0, alpha=1.0),
        dict(sigma="real", norm_r="real", norm_p="real", alpha="real"),
    ),
    "sweep_phase": (
        sweep_phase,
        SWEEP,
        dict(ns="counts", ds="counts", qs="counts", trials_per_cell="count", iters="count",
             seed="seed", alpha="real", init_noise_std="real"),
    ),
    "validate_gram_concentration": (
        validate_gram_concentration, dict(u=U, omega_size=10, delta=0.1, trials=3, seed=1),
        dict(omega_size="count", delta="real", trials="count", seed="seed"),
    ),
    "validate_residual_bound": (
        validate_residual_bound, dict(u=U, ubar=UBAR, omega_size=10, delta=0.1, trials=3, seed=1),
        dict(ubar="pair", omega_size="count", delta="real", trials="count", seed="seed"),
    ),
    "validate_sin_sq_expectation": (
        validate_sin_sq_expectation, dict(u=U, ubar=UBAR, trials=3, seed=1),
        dict(ubar="pair", trials="count", seed="seed"),
    ),
}

# Public names with no argument of these kinds.
_NOTHING_TO_REPLACE = {
    # records and the error type
    "ConcentrationReport", "FullStepRecord", "GateVerdict", "MuXtSummary",
    "NumericalError", "ResidualBoundReport", "StepRecord", "SweepCell", "TrialResult",
    # single bases, matrices and problem specs
    "Basis", "coherence_basis", "generate_problem", "nearest_orthogonal", "orthonormalize",
    "partial_residual", "run_full_trial", "run_partial_trial", "singular_values",
    # an epsilon trajectory, which may be empty or hold NaN, so no vector rule applies
    # (its own 1-d rule is tested in test_harness.py)
    "tail_slope",
    # files
    "read_observations", "read_problem_spec", "read_sweep_csv", "read_trajectory_csv",
    "write_observations", "write_problem_spec", "write_sweep_csv", "write_trajectory_csv",
}

# Text of numpy's and Python's own errors: a message holding one escaped the rules.
_FOREIGN = ("matmul", "gufunc", "SeedSequence", "math domain error", "truth value")


# kind -> what the message of its rule holds, given the replaced argument's name:
# a vector's own name (as a word), an observation's latent_s, or the pair rule.
_MESSAGE = {
    "vector": lambda arg: arg,
    "free vector": lambda arg: arg,
    "observation": lambda arg: "latent_s",
    "stream": lambda arg: "latent_s",
    "pair": lambda arg: "bases must share ambient and subspace dimensions",
}


def _longer_latent(obs: Observation, extra: int = 1) -> Observation:
    latent_s = np.append(obs.latent_s, np.ones(extra))
    return Observation(n=obs.n, omega=obs.omega, values=obs.values, latent_s=latent_s)


# kind -> (the wrong values every walk tries, a strategy of further ones),
# each a function of the valid value it replaces.
_WRONG = {
    "count": (lambda good: [2.5, float(good), True], lambda good: st.floats() | st.booleans()),
    "counts": (
        lambda good: [[2.5], [True]],
        lambda good: st.lists(st.floats(), min_size=1, max_size=2),
    ),
    "real": (
        lambda good: [True, math.nan, math.inf, -math.inf, 10**400],
        lambda good: st.booleans()
        | st.sampled_from([math.nan, math.inf, -math.inf])
        | st.integers(min_value=2**1024),
    ),
    "seed": (
        lambda good: [None, 1.5, True],
        lambda good: st.none() | st.floats() | st.booleans() | st.integers(max_value=-1),
    ),
    "vector": (
        lambda good: [np.append(good, 1.0), np.atleast_2d(good), (1 + 1j) * np.asarray(good)],
        lambda good: st.integers(1, 4).map(lambda k: np.ones(len(good) + k))
        | st.integers(2, 3).map(lambda k: np.ones((k, len(good)))),
    ),
    "free vector": (
        lambda good: [np.atleast_2d(good), (1 + 1j) * np.asarray(good)],
        lambda good: st.integers(1, 3).map(
            lambda k: np.ones((k, k + 1), dtype=np.asarray(good).dtype)
        ),
    ),
    "observation": (
        lambda good: [_longer_latent(good)],
        lambda good: st.integers(2, 4).map(lambda k: _longer_latent(good, k)),
    ),
    "stream": (
        lambda good: [[_longer_latent(good[0])]],
        lambda good: st.integers(2, 4).map(lambda k: [good[0], _longer_latent(good[0], k)]),
    ),
    # a second basis with another n, and one with another d
    "pair": (
        lambda good: [random_basis(good.n + 10, good.d, 1), random_basis(good.n, good.d + 1, 1)],
        lambda good: st.integers(1, 8).map(lambda k: random_basis(good.n + k, good.d, k))
        | st.integers(1, 3).map(lambda k: random_basis(good.n, good.d + k, k)),
    ),
}


def test_the_walk_covers_every_public_name():
    assert set(_CALLS) | _NOTHING_TO_REPLACE == set(grouse.__all__)
    assert not set(_CALLS) & _NOTHING_TO_REPLACE


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_each_walk_starts_from_a_valid_call(name):
    call, kwargs, _ = _CALLS[name]
    call(**kwargs)


def _assert_rejected(name: str, arg: str, bad) -> None:
    call, kwargs, kinds = _CALLS[name]
    with pytest.raises(ValueError) as exc:
        call(**{**kwargs, arg: bad})
    message = str(exc.value)
    assert message and not any(text in message for text in _FOREIGN), (name, arg, bad, message)
    if kinds[arg] in _MESSAGE:
        text = _MESSAGE[kinds[arg]](arg)
        assert re.search(rf"\b{re.escape(text)}\b", message), (name, arg, bad, message)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_public_entry_rejects_a_wrong_kind_at_its_boundary(data):
    for name, (_, kwargs, kinds) in sorted(_CALLS.items()):
        for arg, kind in kinds.items():
            fixed, further = _WRONG[kind]
            good = kwargs[arg]
            extra = data.draw(further(good), label=f"{name}.{arg}")
            for bad in fixed(good) + [extra]:
                _assert_rejected(name, arg, bad)


# A non-real array passed where a public entry expects reals, and the name
# its ValueError must hold: arguments outside the walk's kinds, and lists
# of Python complex numbers and strings, which the walk does not try.
_NOT_REAL = [
    (Basis, (np.eye(3, 2) * (1 + 1j),), "basis"),
    (Observation, (3, [0, 1], [1.0, 1j]), "values"),
    (Observation, (3, [0], ["1"]), "values"),
    (least_squares, (U.columns, [1j] * len(V)), "b"),
    (coherence_vector, ([1.0, 1j],), "x"),
    (singular_values, (np.eye(2) * 1j,), "matrix"),
    (orthonormalize, (np.eye(3, 2) * 1j,), "matrix"),
    (tail_slope, ([0.5, 0.25j],), "epsilons"),
]


@pytest.mark.parametrize("call, args, name", _NOT_REAL, ids=lambda x: getattr(x, "__name__", None))
def test_non_real_arrays_fail_at_the_boundary(call, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b.* must be real numbers, not "):
        call(*args)
