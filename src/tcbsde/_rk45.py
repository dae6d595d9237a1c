"""Dormand-Prince 5(4) stepping with dense output, as SciPy's ``RK45`` runs it.

``rk45`` repeats, operation for operation, what
``scipy.integrate.solve_ivp(fun, (0, t_end), y0, method="RK45", t_eval=...)``
computes: the initial step of Hairer, Norsett & Wanner (Solving ODEs I,
II.4) clamped to the interval, the same stage sums, error norm and step
factors, ``rtol`` raised to ``100 eps`` and the quartic interpolant at the
``t_eval`` points inside each step.  Its answers, ``t_eval`` values and
evaluation count are bit-equal to SciPy's; it leaves out the solver objects,
the wrapped right-hand side and the per-step interpolant objects.

Every stage sum, error estimate and interpolant stays the NumPy ``dot`` that
SciPy makes (a pure-Python stage sum rounds differently), called as the
array method; only scalar time and step-size arithmetic runs on Python
floats, where each operation is rounded once exactly as in NumPy.  Scaling
by ``h``, adding ``y`` and dividing by the error scale run in place on the
fresh result of a ``dot``, as IEEE sums and products commute.  The tableau
is SciPy's own.  Work whose result SciPy recomputes is done once:
the accepted step's ``abs(y_new)`` is the next step's ``abs(y)``, and
``t_eval`` is searched only in a step that holds an evaluation time.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.integrate import RK45

from .errors import SchemeError

_B, _E, _P = RK45.B, RK45.E, RK45.P
_EXPONENT = -1 / (RK45.error_estimator_order + 1)
# step-size control constants of scipy.integrate._ivp.rk
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size**0.5


def rk45(fun, t_end: float, y0: np.ndarray, t_eval: np.ndarray, rtol: float, atol: float):
    """Solve ``y' = fun(t, y)`` from ``y(0) = y0`` to ``t_end > 0``.

    ``t_eval`` is increasing inside ``[0, t_end]``.  Returns the solution at
    ``t_eval`` as an ``(n, len(t_eval))`` array, the number of ``fun`` calls,
    and the counts of accepted and rejected steps; every step attempt makes
    six calls and the initial step selection two, so the call count is
    ``2 + 6 (accepted + rejected)``.  Raises ``SchemeError`` when the step
    size falls below ten float spacings of ``t`` (or is NaN), where SciPy
    stops with ``TOO_SMALL_STEP`` (or never returns).
    """
    rtol = max(rtol, _RTOL_FLOOR)
    y, f = y0, fun(0.0, y0)

    abs_y = np.abs(y)
    scale = atol + abs_y * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((fun(h0, y + h0 * f) - f) / scale) / h0
    d = max(d1, d2)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:  # d is 0 only when d1 is and d2 is NaN: NumPy divides that to inf
        h1 = (0.01 / d) ** -_EXPONENT if d else math.inf
    h_abs = min(100 * h0, h1, t_end)
    nfev, accepted, rejected = 2, 0, 0

    t_list = t_eval.tolist()
    n_eval = len(t_list)
    out = np.empty((y.size, n_eval))
    K = np.empty((RK45.n_stages + 1, y.size))
    # transposed views of K, made once: the stages fill K in place
    KT, KT_stages = K.T, K[:-1].T
    stages = [(float(c), K[:s].T, a[:s]) for s, (a, c) in enumerate(zip(RK45.A, RK45.C)) if s]
    t, done = 0.0, 0
    while t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)  # keeps a NaN
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # NaN included: SciPy would retry it forever
                raise SchemeError(f"step size {h_abs} below the float spacing at t = {t}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            K[0] = f
            for s, (c, Ks, a) in enumerate(stages, start=1):
                v = Ks.dot(a)
                v *= h
                v += y
                K[s] = fun(t + c * h, v)
            y_new = KT_stages.dot(_B)
            y_new *= h
            y_new += y
            f_new = K[-1] = fun(t + h, y_new)  # not t_new: SciPy rounds t + h again
            nfev += 6
            abs_y_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_y_new)
            scale *= rtol
            scale += atol
            err = KT.dot(_E)
            err *= h
            err /= scale
            error_norm = _rms(err)
            if error_norm < 1:
                factor = _MAX_FACTOR
                if error_norm:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                h_abs *= min(1, factor) if step_rejected else factor
                accepted += 1
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            step_rejected = True
            rejected += 1

        if done < n_eval and t_list[done] <= t_new:  # an evaluation time in this step
            upto = bisect_right(t_list, t_new, done)
            x = (t_eval[done:upto] - t) / h
            powers = np.cumprod(x[None, :].repeat(_P.shape[1], axis=0), axis=0)
            out[:, done:upto] = h * KT.dot(_P).dot(powers) + y[:, None]
            done = upto
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
    return out, nfev, accepted, rejected
