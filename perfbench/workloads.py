"""The three benchmark pipelines, their fixed sizes and their checks.

Every problem size is fixed here and nothing is read from
``tcbsde.scenarios``, so an edit to the scenario defaults cannot change what
is measured.  Each pipeline calls the public API through its module
(``wi.solve_lsmc``, not a name bound at import time), so the traced run's
shims see every call.

A workload is built once per process (``__init__``: problems, grids and exact
references) and then run once per iteration seed (``iterate``).  ``iterate``
returns the per-iteration checks and the samples of the run-level Monte
Carlo checks named in ``pooled_names``; ``pooled_specs()`` gives their
references, and is called only after the last timed iteration, so that a
reference computed with the program (the chain Picard check's ODE value)
warms nothing before the cold iteration.

``count(kind, fn)`` wraps each callback the benchmark hands to the program
(rate functions, loss rates, drivers); the traced run passes a counting
wrapper, every other run passes the callbacks through untouched.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.integrate import quad

from tcbsde import chain as ch
from tcbsde import io as tio
from tcbsde import timechange as tc
from tcbsde import wiener as wi

from checks import Check

SIZES = {
    # each iteration takes one to two seconds here, so a run collects
    # enough iterations for a steady median
    "full": {
        "wiener-solve": {
            "oracle_paths": 2000,
            "oracle_steps": 50,
            "fine_nodes": 1001,
            "lsmc_paths": 10_000,
            "lsmc_steps": 100,
            "export_paths": 500,
        },
        "chain-montecarlo": {
            "occupancy_paths": 1000,
            "clock_nodes": 201,
            "message_paths": 5000,
            "picard_paths": 2000,
            "picard_nodes": 161,
        },
        "chain-equations": {"nodes": 201, "probes": 100, "horizon": 8.0},
    },
    # For the benchmark's own tests: every stage runs, nothing is expected to pass.
    "tiny": {
        "wiener-solve": {
            "oracle_paths": 50,
            "oracle_steps": 10,
            "fine_nodes": 101,
            "lsmc_paths": 300,
            "lsmc_steps": 10,
            "export_paths": 5,
        },
        "chain-montecarlo": {
            "occupancy_paths": 50,
            "clock_nodes": 21,
            "message_paths": 100,
            "picard_paths": 100,
            "picard_nodes": 161,
        },
        "chain-equations": {"nodes": 21, "probes": 5, "horizon": 3.0},
    },
}


def uncounted(kind, fn):
    return fn


def stage_seed(seed: int, stage: int) -> int:
    """Independent stream per (iteration seed, stage), so seeds of consecutive iterations never collide."""
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


def _linear_problem(grid, payoff, count):
    # f = r y + u z with r = 0.1 (1 + t), u = 0.3, read through SampledPath.at on every step
    r = tc.SampledPath(grid, 0.1 * (1.0 + grid.nodes), tc.LINEAR)
    u = tc.SampledPath(grid, np.full(grid.n_nodes, 0.3), tc.LINEAR)
    coeffs = tc.CoefficientProcesses.lipschitz(r, u, eps=0.05)

    def driver(t, w, y, z):
        return float(coeffs.r.at(t)) * y + float(coeffs.u.at(t)) * z[:, 0]

    return wi.WienerBSDEProblem(
        k=1,
        d=1,
        driver=count("driver", driver),
        coeffs=coeffs,
        terminal=wi.TerminalRule(kind="fixed"),
        payoff=payoff,
    )


def _rounded_12(values: np.ndarray) -> np.ndarray:
    return np.array([float(f"{v:.12g}") for v in values.ravel()]).reshape(values.shape)


class WienerSolve:
    """Oracle solves direct and through the clock, LSMC with both bases, CSV export."""

    name = "wiener-solve"
    check_names = (
        "oracle_y0_vs_closed_form",
        "transform_map_sup_gap",
        "lsmc_poly_vs_closed_form",
        "lsmc_bins_vs_closed_form",
        "csv_roundtrip_mismatches",
    )
    pooled_names: tuple = ()

    def pooled_specs(self) -> dict:
        return {}

    def __init__(self, size: str, count=uncounted, out_dir: str = "."):
        s = SIZES[size][self.name]
        self.s = s
        payoff = wi.PolynomialPayoff((1.0, 2.0, 1.0))
        self.fine = tc.TimeGrid.uniform(1.0, s["fine_nodes"])
        self.oracle_grid = tc.TimeGrid.uniform(1.0, s["oracle_steps"] + 1)
        self.lsmc_grid = tc.TimeGrid.uniform(1.0, s["lsmc_steps"] + 1)
        self.oracle_problem = _linear_problem(self.oracle_grid, payoff, count)
        self.lsmc_problem = _linear_problem(self.lsmc_grid, payoff, count)
        # closed_form_linear by hand: exp(int_0^1 r) E[(1 + G)^2], G ~ N(-int_0^1 u, 1)
        self.exact = math.exp(0.15) * ((1.0 - 0.3) ** 2 + 1.0)
        self.csv_path = os.path.join(out_dir, f"wiener-solve-{os.getpid()}.csv")

    def iterate(self, seed: int):
        s = self.s
        prob = self.oracle_problem
        W_fine = wi.simulate_brownian(self.fine, s["oracle_paths"], 1, stage_seed(seed, 0))
        W = wi.restrict_brownian(W_fine, self.oracle_grid)
        clock = tc.build_phi(prob.coeffs, tc.IncreasingProcess.identity(self.oracle_grid), target="image")
        tp = wi.transform_driver(prob, clock, W=W_fine)
        direct = wi.solve_picard_oracle(prob, W, iterations=8)
        mapped = wi.map_solution(wi.solve_picard_oracle(tp, iterations=8), clock, "from_transformed")

        W_lsmc = wi.simulate_brownian(self.lsmc_grid, s["lsmc_paths"], 1, stage_seed(seed, 1))
        poly = wi.solve_lsmc(self.lsmc_problem, W_lsmc, basis="poly")
        bins = wi.solve_lsmc(self.lsmc_problem, W_lsmc, basis="bins")

        k = s["export_paths"]
        export = wi.SolutionEnsemble(
            grid=mapped.grid, Y=mapped.Y[:k], Z=mapped.Z[:k], stop_idx=mapped.stop_idx[:k],
            scheme=mapped.scheme, seed=mapped.seed,
        )
        try:
            tio.write_solution_csv(export, self.csv_path)
            back = tio.read_solution_csv(self.csv_path)
        finally:
            if os.path.exists(self.csv_path):
                os.remove(self.csv_path)
        stopped = (np.arange(export.grid.n_nodes)[None, :] >= export.stop_idx[:, None]).astype(int)
        mismatches = (
            int(np.sum(back["Y"] != _rounded_12(export.Y)))
            + int(np.sum(back["Z"] != _rounded_12(export.Z)))
            + int(np.sum(back["stopped"] != stopped))
            + int(np.sum(back["times"] != _rounded_12(export.grid.nodes)))
        )

        exact = self.exact
        checks = [
            Check("oracle_y0_vs_closed_form", abs(direct.y0() - exact) / exact, 0.01),
            Check(
                "transform_map_sup_gap",
                float(np.max(np.abs(direct.Y - mapped.Y)) / np.max(np.abs(direct.Y))),
                0.03,
            ),
            Check("lsmc_poly_vs_closed_form", abs(poly.y0() - exact) / exact, 0.05),
            Check("lsmc_bins_vs_closed_form", abs(bins.y0() - exact) / exact, 0.05),
            Check("csv_roundtrip_mismatches", float(mismatches), 0.0),
        ]
        return checks, {}


# two-state symmetric chain under the clock with density 1 + t on [0, 2]:
# phi(t) = t + t^2/2, C(u) = sqrt(1 + 2u) - 1, P(state 0 at u) = 1/2 + 1/2 exp(-2 C(u))
OCCUPANCY_TIME = 3.0
MESSAGE_HORIZON = 12.0


def _reach_exact(loss_integral) -> float:
    # unit-rate hop to the target, killed at the loss rate: int_0^inf e^{-t} e^{-L(t)} dt
    return quad(lambda t: math.exp(-t - loss_integral(t)), 0.0, 50.0)[0]


def _line_model(count):
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    return ch.MarkovChainModel(2, count("rate_fn", lambda t: A), 0, rate_bound=1.0)


class ChainMonteCarlo:
    """Thinning simulation of a transformed chain, killed-chain MC, and the Picard solver."""

    name = "chain-montecarlo"
    check_names = ("occupancy_vs_exact_law", "reach_vs_quadrature", "tail_probability")
    pooled_names = ("picard_vs_ode", "killed_mc_vs_quadrature")

    def __init__(self, size: str, count=uncounted, out_dir: str = "."):
        s = SIZES[size][self.name]
        self.s = s
        A2 = np.array([[-1.0, 1.0], [1.0, -1.0]])
        self.symmetric = ch.MarkovChainModel(2, count("rate_fn", lambda t: A2), 0, rate_bound=1.0)
        grid = tc.TimeGrid.uniform(2.0, s["clock_nodes"])
        self.c_path = tc.SampledPath(grid, 1.0 + grid.nodes, tc.LINEAR)
        c = math.sqrt(1.0 + 2.0 * OCCUPANCY_TIME) - 1.0
        p0 = 0.5 + 0.5 * math.exp(-2.0 * c)
        self.law = np.array([p0, 1.0 - p0])

        self.line = _line_model(count)
        self.loss = count("loss_rate", lambda t, i: 1.0 + t)
        self.reach_exact = _reach_exact(lambda t: t + 0.5 * t * t)

        # the three-state model of test_picard_matches_markov_ode_three_states
        A3 = np.array([[-2.0, 1.0, 0.0], [1.5, -2.0, 0.0], [0.5, 1.0, 0.0]])
        self.picard_grid = tc.TimeGrid.uniform(8.0, s["picard_nodes"])

        def eta(t, i, z, zp):
            return 0.8 * A3[:, i]

        def f(t, i, y, z):
            return -0.3 * y + float(z @ (eta(t, i, z, None) - A3[:, i]))

        self.three_state = ch.ChainBSDEProblem(
            model=ch.MarkovChainModel(3, count("rate_fn", lambda t: A3), 0, rate_bound=2.0),
            driver=ch.GammaBalancedDriver(
                f=count("f", f), eta=count("eta", eta), gamma=0.8,
                c_path=tc.SampledPath(self.picard_grid, np.full(self.picard_grid.n_nodes, 0.3), tc.LINEAR),
                c1=0.0, c2=0.0, beta_hat=0.0, beta=1.0, beta_tilde=1.0,
                k1=lambda t: 1.0, k2=lambda t: 1.0,
            ),
            hitting_set=frozenset({2}),
            terminal_fn=lambda t, i: 1.0,
            markovian=True,
        )

    def pooled_specs(self) -> dict:
        ode_y0 = float(ch.solve_chain_bsde(self.three_state, "markov-ode", self.picard_grid).state_values[0, 0])
        return {
            "picard_vs_ode": {"kind": "mean", "ref": ode_y0, "limit": 0.02 * max(abs(ode_y0), 1.0)},
            "killed_mc_vs_quadrature": {"kind": "binomial", "ref": self.reach_exact, "sigmas": 3.0},
        }

    def iterate(self, seed: int):
        s = self.s
        clock = ch.chain_clock(self.c_path, 0.0)
        tilde = ch.transform_chain(self.symmetric, clock)
        paths = ch.simulate_chain(tilde, clock.target_grid.t_end, s["occupancy_paths"], stage_seed(seed, 0))
        occ = ch.occupancy(paths, OCCUPANCY_TIME, 2)

        n_msg = s["message_paths"]
        rep = ch.message_transmission(
            self.line, self.loss, source=0, target=1, horizon=MESSAGE_HORIZON,
            paths=n_msg, seed=stage_seed(seed, 1),
        )
        pic = ch.solve_chain_bsde(
            self.three_state, "picard", self.picard_grid, paths=s["picard_paths"], seed=stage_seed(seed, 2)
        )

        checks = [
            Check(
                "occupancy_vs_exact_law",
                float(np.max(np.abs(occ - self.law))),
                3.0 / math.sqrt(s["occupancy_paths"]),
            ),
            Check("reach_vs_quadrature", abs(rep.reach_probability - self.reach_exact), 2e-3),
            Check("tail_probability", rep.tail_probability, 1e-3),
        ]
        pooled = {
            "picard_vs_ode": float(pic.state_values[0, 0]),
            "killed_mc_vs_quadrature": (int(round(rep.mc_estimate * n_msg)), n_msg),
        }
        return checks, pooled


BOUND_TOL = 0.02
BALANCE_TOL = 1e-9

# loss rate, its integral, and the limit on |reach - exact| (0.02 is the
# scenarios' constant-rate limit, 2e-3 the time-varying quadrature limit)
LOSS_CASES = (
    ("constant", lambda t, i: 1.0, lambda t: t, 0.02),
    ("linear", lambda t, i: 1.0 + t, lambda t: t + 0.5 * t * t, 2e-3),
    ("quadratic", lambda t, i: 1.0 + t * t, lambda t: t + t**3 / 3.0, 2e-3),
)


class ChainEquations:
    """Message problems solved by the backward ODE through the clock, with bound and balance probes."""

    name = "chain-equations"
    check_names = tuple(
        f"{check}_{case[0]}"
        for case in LOSS_CASES
        for check in (
            "reach_vs_exact", "bound_doubled", "bound_tight", "tail_probability",
            "balance_input", "balance_transformed",
        )
    )
    pooled_names: tuple = ()

    def pooled_specs(self) -> dict:
        return {}

    def __init__(self, size: str, count=uncounted, out_dir: str = "."):
        s = SIZES[size][self.name]
        self.s = s
        self.model = _line_model(count)
        self.grid = tc.TimeGrid.uniform(s["horizon"], s["nodes"])
        self.cases = [
            (case, count("loss_rate", loss), _reach_exact(integral), limit)
            for case, loss, integral, limit in LOSS_CASES
        ]

    def iterate(self, seed: int):
        probes = self.s["probes"]
        checks = []
        for k, (case, loss, exact, limit) in enumerate(self.cases):
            problem = ch.build_message_problem(self.model, loss, 1, self.grid)
            clock = ch.chain_clock(problem.driver.c_path, problem.driver.c2, target="image")
            tilde = ch.transform_chain_problem(problem, clock)
            tilde_sol = ch.solve_chain_bsde(tilde, "markov-ode", clock.target_grid)
            sol = ch.map_chain_solution(tilde_sol, clock)
            r_doubled, _ = ch.verify_bound(sol, problem.driver, "doubled", BOUND_TOL)
            r_tight, _ = ch.verify_bound(sol, problem.driver, "tight", BOUND_TOL)
            bal_in = ch.check_gamma_balanced(
                problem.driver, problem.model, probes, t_max=self.grid.t_end,
                seed=stage_seed(seed, 2 * k), tol=BALANCE_TOL,
            )
            bal_out = ch.check_gamma_balanced(
                tilde.driver, tilde.model, probes, t_max=clock.target_grid.t_end,
                seed=stage_seed(seed, 2 * k + 1), tol=BALANCE_TOL,
            )
            checks += [
                Check(f"reach_vs_exact_{case}", abs(sol.value_at(0.0, 0) - exact), limit),
                Check(f"bound_doubled_{case}", r_doubled, 1.0 + BOUND_TOL),
                Check(f"bound_tight_{case}", r_tight, 1.0 + BOUND_TOL),
                Check(f"tail_probability_{case}", tilde_sol.metadata["tail_probability"], 1e-3),
                Check(f"balance_input_{case}", _worst_violation(bal_in), BALANCE_TOL),
                Check(f"balance_transformed_{case}", _worst_violation(bal_out), BALANCE_TOL),
            ]
        return checks, {}


def _worst_violation(rep) -> float:
    return max(
        rep.worst_difference_identity, rep.worst_ratio_deviation,
        rep.worst_sum, rep.worst_shift_invariance,
    )


WORKLOADS = {w.name: w for w in (WienerSolve, ChainMonteCarlo, ChainEquations)}
