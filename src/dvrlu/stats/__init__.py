"""Valuation statistics: closed-form laws and the Monte-Carlo engine."""

from .formulas import (
    det_val_cdf,
    det_val_mean,
    expected_vl_alternating,
    expected_vl_series,
    expected_vl_log_gap_bound,
    pi_q,
    vij_mass,
    vl_centerings,
    vl_expectation_interval,
    vl_tail_bound,
    vl_upper_tail,
)
from .montecarlo import (
    Engine,
    McSummary,
    monte_carlo_det,
    monte_carlo_vl,
    simulate,
    simulate_matrices,
    simulate_wi_2x2,
    tail_frequency,
)

__all__ = [
    "det_val_cdf",
    "det_val_mean",
    "expected_vl_alternating",
    "expected_vl_series",
    "expected_vl_log_gap_bound",
    "pi_q",
    "vij_mass",
    "vl_centerings",
    "vl_expectation_interval",
    "vl_tail_bound",
    "vl_upper_tail",
    "Engine",
    "McSummary",
    "monte_carlo_det",
    "monte_carlo_vl",
    "simulate",
    "simulate_matrices",
    "simulate_wi_2x2",
    "tail_frequency",
]
