"""Closure-by-closure reference for the backward ODE in ``chain``.

``reference_ode_solve`` evaluates a problem through its own ``model.rates``,
``driver.f`` and ``terminal_fn``, so a clocked problem reads its clock once
in each callback: the rates, every free state's driver and every terminal
value.  It builds the right-hand side from fresh arrays on every call and
integrates with ``scipy.integrate.solve_ivp``.  The solver reads the clock
once per call, steps with its own copy of SciPy's RK45, and must agree with
it bit for bit.
"""

import numpy as np
from scipy.integrate import solve_ivp

from tcbsde.errors import PreconditionError, SchemeError


def reference_ode_solve(problem, grid, rtol, atol):
    """Values on ``grid``, the no-hit tail probability and the right-hand-side count."""
    N = problem.model.n_states
    hit = sorted(problem.hitting_set)
    free = [i for i in range(N) if i not in problem.hitting_set]
    if not free:
        raise PreconditionError("every state is terminal; nothing to solve")
    n_free = len(free)
    g = problem.terminal_fn
    f = problem.driver.f
    T = grid.t_end

    def assemble(t, u_free):
        u = np.empty(N)
        u[free] = u_free
        for i in hit:
            u[i] = g(t, i)
        return u

    def rhs(s, x):
        t = T - s
        u = assemble(t, x[:n_free])
        q = np.zeros(N)
        q[free] = x[n_free:]
        A = problem.model.rates(t)
        gen = (A.T @ np.column_stack((u, q)))[free]
        drv = np.array([f(t, i, u[i], u) for i in free])
        return np.concatenate((gen[:, 0] + drv, gen[:, 1]))  # dx/ds = -dx/dt

    x0 = np.concatenate(([g(T, i) for i in free], np.ones(n_free)))
    s_eval = T - grid.nodes[::-1]
    sol = solve_ivp(rhs, (0.0, T), x0, t_eval=s_eval, rtol=rtol, atol=atol, method="RK45")
    if not sol.success:
        raise SchemeError(f"backward ODE integration failed: {sol.message}")
    u_free_path = sol.y[:n_free].T[::-1]  # (n_nodes, len(free)) on the forward grid
    values = np.empty((grid.n_nodes, N))
    for j, t in enumerate(grid.nodes):
        values[j] = assemble(t, u_free_path[j])
    q = np.zeros(N)
    q[free] = sol.y[n_free:, -1]
    return values, float(q[int(problem.model.initial)]), sol.nfev
