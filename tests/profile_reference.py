"""Frozen hand-written polynomial evaluators, kept to pin the ``polyval`` ones.

``reference_profile`` is the chain loader's old parser: one closure per
profile, a Horner loop for ``polynomial``.  ``reference_rate_fn`` and
``reference_loss_rate`` are the old loader callbacks built from those
closures, with their per-entry loop and their scalar/array fork.
``reference_polynomial_payoff`` is the old Horner loop of
``PolynomialPayoff``.
"""

import numpy as np


def reference_profile(spec: str):
    kind, *values = spec.split()
    args = [float(x) for x in values]
    if kind == "constant":
        return lambda t: args[0]
    if kind == "linear":
        return lambda t: args[0] + args[1] * t
    assert kind == "polynomial"

    def poly(t, c=tuple(args)):
        out = 0.0
        for a in reversed(c):
            out = out * t + a
        return out

    return poly


def reference_rate_fn(N: int, entries):
    """``entries`` lists ``(to, from, spec)``; a later entry for a pair replaces an earlier one."""
    profiles = [(i, j, reference_profile(spec)) for i, j, spec in entries]
    diag = np.arange(N)

    def rate_fn(t):
        A = np.zeros(np.shape(t) + (N, N))
        for i, j, prof in profiles:
            A[..., i, j] = prof(t)
        A[..., diag, diag] -= A.sum(axis=-2)
        return A

    return rate_fn


def reference_loss_rate(specs: dict):
    """``specs`` maps a state to its loss profile."""
    profiles = {state: reference_profile(spec) for state, spec in specs.items()}

    def loss_rate(t, i):
        if np.ndim(i) == 0:
            prof = profiles.get(int(i))
            return prof(t) if prof is not None else 0.0
        out = np.zeros(np.shape(i))
        for state, prof in profiles.items():
            at = i == state
            out[at] = prof(t[at])
        return out

    return loss_rate


def reference_polynomial_payoff(coefficients, w_tau):
    x = np.asarray(w_tau)[..., 0]
    out = np.zeros_like(x, dtype=float)
    for c in reversed(coefficients):
        out = out * x + c
    return out
