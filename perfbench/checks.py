"""Check records and the run-level checks pooled over iterations.

Kept free of numpy and tcbsde imports so the orchestrating process stays light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One measured quantity against its limit; a NaN value fails."""

    name: str
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.limit)


def pooled_check(name: str, spec: dict, samples: list) -> Check:
    """Evaluate a Monte Carlo check on the samples of every iteration in a run.

    ``mean``: ``|mean(samples) - ref| <= limit``.  ``binomial``: samples are
    ``(successes, trials)`` pairs; the pooled frequency must lie within
    ``sigmas`` standard errors of ``ref``.  Pooling keeps the false-alarm
    rate of a statistical check at one draw per run, whatever the number of
    iterations the run fits in.
    """
    if not samples:
        return Check(name, math.nan, math.nan)
    if spec["kind"] == "mean":
        mean = sum(samples) / len(samples)
        return Check(name, abs(mean - spec["ref"]), spec["limit"])
    if spec["kind"] == "binomial":
        hits = sum(s[0] for s in samples)
        trials = sum(s[1] for s in samples)
        est = hits / trials
        se = math.sqrt(max(est * (1.0 - est), 1e-12) / trials)
        return Check(name, abs(est - spec["ref"]), spec["sigmas"] * se)
    raise ValueError(f"unknown pooled check kind {spec['kind']!r}")
