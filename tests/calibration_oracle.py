"""Reference wind calibration: one nominal batch per evaluated wind strength.

The loop ``evaluation.calibrate_wind`` ran before its evaluations became
counts of ``fastpath.exit_counter``: at each sigma, the scenario is rescaled
with ``Scenario.with_wind``, the seeds' wind rows are scaled with
``sim.wind_rows`` and one nominal ``batch`` call counts the exits. Tests and
``benchmarks/bench_rollout.py`` compare ``calibrate_wind`` with it byte for
byte.
"""

from rtsa import fastpath
from rtsa.evaluation import CALIBRATION_BUDGET, CalibrationResult, PolicySpec, _kernel_args
from rtsa.sim import wind_rows


def calibrate_wind(scenario, target_exit_rate, seeds, tol=0.02, batch=None,
                   budget=CALIBRATION_BUDGET):
    """``evaluation.calibrate_wind`` as one ``batch`` call per evaluation (by default
    ``fastpath.batch``), with at most ``budget`` evaluations."""
    batch = batch or fastpath.batch
    if not 0.0 < target_exit_rate < 1.0:
        raise ValueError("target exit rate must lie in (0, 1)")
    draws = fastpath.wind_draws(list(seeds))
    sim = scenario.sim
    gust_ratio = sim.gust_sigma / sim.wind_sigma if sim.wind_sigma > 0 else 0.25

    def rate(sigma):
        windy = scenario.with_wind(sigma, gust_ratio * sigma)
        summaries = batch(wind=wind_rows(draws, windy.sim),
                          **_kernel_args(PolicySpec.nominal(), windy))
        return int((summaries[:, 1] == fastpath.OUTCOME_EXITED).sum()) / len(summaries)

    iterations = 0
    lo, hi = 0.0, max(sim.wind_sigma, 1.0)
    hi_rate = rate(hi)
    iterations += 1
    while hi_rate < target_exit_rate:
        lo = hi
        hi *= 2.0
        hi_rate = rate(hi)
        iterations += 1
        if iterations >= budget:
            raise RuntimeError("wind calibration failed to bracket the target exit rate")

    best = (abs(hi_rate - target_exit_rate), hi, hi_rate)
    while iterations < budget:
        mid = 0.5 * (lo + hi)
        mid_rate = rate(mid)
        iterations += 1
        if abs(mid_rate - target_exit_rate) < best[0]:
            best = (abs(mid_rate - target_exit_rate), mid, mid_rate)
        if best[0] <= tol:
            break
        if mid_rate < target_exit_rate:
            lo = mid
        else:
            hi = mid
    if best[0] > tol:
        raise RuntimeError(
            f"wind calibration did not reach the target within {budget} evaluations"
        )
    sigma = best[1]
    return CalibrationResult(
        wind_sigma=sigma,
        gust_sigma=gust_ratio * sigma,
        exit_rate=best[2],
        iterations=iterations,
    )
