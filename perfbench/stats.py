"""Summary statistics for the benchmark: tails, spreads and time to R^2."""

from __future__ import annotations

import statistics

# Candidate tail percentiles with the share of samples beyond each, in parts
# per million, so that "at least ten samples beyond" is exact integer math.
_TAILS_PPM = ((50.0, 500_000), (90.0, 100_000), (99.0, 10_000),
              (99.9, 1_000), (99.99, 100), (99.999, 10))
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ten of n samples beyond it.

    None when even the median has fewer than ten samples above it.
    """
    best = None
    for q, ppm in _TAILS_PPM:
        if n * ppm >= MIN_BEYOND * 1_000_000:
            best = q
    return best


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def epochs_to_r2(valid_losses, valid_variance: float,
                 target: float = 0.99) -> int | None:
    """First epoch (1-based) whose held-out R^2 = 1 - mse/var reaches target."""
    for epoch, mse in enumerate(valid_losses, start=1):
        if 1.0 - mse / valid_variance >= target:
            return epoch
    return None


def time_to_r2(fit_s: float, valid_losses, valid_variance: float,
               target: float = 0.99) -> float | None:
    """Fit wall time / epochs run * epochs needed to first reach target R^2."""
    needed = epochs_to_r2(valid_losses, valid_variance, target)
    if needed is None:
        return None
    return fit_s / len(valid_losses) * needed
