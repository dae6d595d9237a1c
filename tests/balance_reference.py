"""Reference for ``check_gamma_balanced``: the probe loop that reads the rates one time at a time.

``reference_balance`` is the check as it stood before the rates were read
in one call after the draws: each probe calls ``model.rates(t)`` at its own
time before the drivers.  The kernel must give the same report, field by
field and bit for bit.
"""

import numpy as np

from tcbsde.chain import _BALANCE_PROBE_BOX, BalanceReport


def reference_balance(driver, model, probes, *, t_max=5.0, seed=0, tol=1e-9):
    rng = np.random.default_rng(seed)
    N = model.n_states
    box = _BALANCE_PROBE_BOX
    gamma = driver.gamma
    gaps, etas, axs, shifted = [], [], [], []
    for _ in range(probes):
        t = float(rng.uniform(0.0, t_max))
        x = int(rng.integers(0, N))
        y = float(rng.uniform(-box, box))
        z = rng.uniform(-box, box, size=N)
        zp = rng.uniform(-box, box, size=N)
        alpha = float(rng.uniform(-box, box))
        ax = model.rates(t)[:, x]
        eta = np.asarray(driver.eta(t, x, z, zp), dtype=float)
        lhs = driver.f(t, x, y, z) - driver.f(t, x, y, zp)
        gaps.append(lhs - float((z - zp) @ (eta - ax)))
        etas.append(eta)
        axs.append(ax)
        shifted.append(driver.eta(t, x, z + alpha * np.ones(N), zp))
    eta, ax = np.array(etas, dtype=float), np.array(axs, dtype=float)
    shifted = np.array(shifted, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eta / ax
    off = np.maximum(np.maximum(gamma - ratio, ratio - 1.0 / gamma), 0.0)
    off = np.where(ax == 0.0, np.abs(eta), off)
    worst = (
        float(np.max(np.abs(np.array(gaps, dtype=float)))),
        float(np.max(off)),
        float(np.max(np.abs(np.sum(eta, axis=1)))),
        float(np.max(np.abs(shifted - eta))),
    )
    return BalanceReport(*worst, bool(np.max(worst) <= tol))
