"""Unit tests for the Figure 10 correlation layer (`ser/correlation.py`).

The heavy end-to-end path (beam + SART on real workloads) is covered by
`tests/ser/test_ser.py` and the Figure 10 benchmark; these tests pin the
row arithmetic, including the degenerate inputs: an empty campaign
(zero measured events), a single-component model, and zero-variance
(constant) AVF vectors where proxy and SART agree exactly, plus the
modeled rates of one real workload.
"""

from __future__ import annotations

import pytest

from repro.ser.beam import BeamResult
from repro.ser.correlation import (
    TINYCORE_LOOP_PAVF,
    CorrelationRow,
    model_rates,
)


def make_row(*, sdc_events=8, exposures=100, cycles_per_run=200,
             modeled_proxy=1e-3, modeled_sart=5e-4,
             seq_avf_proxy=0.6, seq_avf_sart=0.3) -> CorrelationRow:
    measured = BeamResult(sdc_events=sdc_events, due_events=0,
                          exposures=exposures, cycles_per_run=cycles_per_run,
                          strikes=50, storage_bits=300, flux=2e-5)
    return CorrelationRow(workload="synthetic", measured=measured,
                          modeled_proxy=modeled_proxy,
                          modeled_sart=modeled_sart,
                          seq_avf_proxy=seq_avf_proxy,
                          seq_avf_sart=seq_avf_sart,
                          sart=None)


def test_normalized_uses_measured_as_unit():
    row = make_row(sdc_events=20, exposures=100, cycles_per_run=100,
                   modeled_proxy=4e-3, modeled_sart=2e-3)
    rates = row.normalized()
    assert rates["measured"] == 1.0
    assert rates["proxy"] == pytest.approx(2.0)
    assert rates["sart"] == pytest.approx(1.0)


def test_normalized_with_empty_campaign():
    # Zero measured events: the reference falls back to 1.0 instead of
    # dividing by zero, and the modeled rates pass through unscaled.
    row = make_row(sdc_events=0, modeled_proxy=1e-3, modeled_sart=5e-4)
    assert row.measured_rate == 0.0
    rates = row.normalized()
    assert rates["proxy"] == pytest.approx(1e-3)
    assert rates["sart"] == pytest.approx(5e-4)


def test_sequential_avf_reduction():
    row = make_row(seq_avf_proxy=0.6, seq_avf_sart=0.3)
    assert row.sequential_avf_reduction == pytest.approx(0.5)


def test_sequential_avf_reduction_degenerate_proxy():
    # Zero-variance all-zero proxy AVF vector: reduction is defined as 0.
    row = make_row(seq_avf_proxy=0.0, seq_avf_sart=0.0)
    assert row.sequential_avf_reduction == 0.0


def test_zero_variance_avf_vectors_agree():
    # Proxy == SART (constant AVF everywhere): no reduction, and both
    # models produce the same rate, so no correlation improvement either.
    row = make_row(seq_avf_proxy=0.4, seq_avf_sart=0.4,
                   modeled_proxy=8e-4, modeled_sart=8e-4)
    assert row.sequential_avf_reduction == pytest.approx(0.0)
    assert row.correlation_improvement == pytest.approx(0.0)


def test_correlation_improvement():
    # measured 4e-4/cycle; proxy off by 6e-4, SART off by 1e-4 -> ~83 %.
    row = make_row(sdc_events=8, exposures=100, cycles_per_run=200,
                   modeled_proxy=1e-3, modeled_sart=5e-4)
    assert row.measured_rate == pytest.approx(4e-4)
    assert row.correlation_improvement == pytest.approx(1.0 - 1e-4 / 6e-4)


def test_correlation_improvement_perfect_proxy():
    # Proxy already exact: gap 0, improvement defined as 0 (not a div0).
    row = make_row(sdc_events=8, exposures=100, cycles_per_run=200,
                   modeled_proxy=4e-4, modeled_sart=4e-4)
    assert row.correlation_improvement == 0.0


def test_within_measurement_error_uses_poisson_interval():
    row = make_row(sdc_events=9, exposures=100, cycles_per_run=100,
                   modeled_sart=9e-4)
    low, high = row.measured.rate_interval()
    assert low <= row.modeled_sart <= high
    assert row.within_measurement_error
    far_off = make_row(sdc_events=9, exposures=100, cycles_per_run=100,
                       modeled_sart=1.0)
    assert not far_off.within_measurement_error


def test_tinycore_loop_pavf_is_calibrated_between_bounds():
    # Calibration contract from the module docstring: between the
    # paper's 0.3 prescription and the dominant structure AVF (~0.6).
    assert 0.3 <= TINYCORE_LOOP_PAVF <= 0.6


@pytest.mark.slow
def test_model_rates_pinned_on_fib():
    # Pinned at the values of a hand-wired build -> golden run -> ports
    # -> SART chain: the pipeline run must reproduce them bit for bit.
    assert model_rates("fib", flux=1e-5, include_arrays=False)[:4] == (
        0.0011650000000000026, 0.0009119999999999954,
        0.5, 0.39141630901287694)


@pytest.mark.slow
def test_model_rates_sart_below_proxy_on_real_workload():
    proxy_rate, sart_rate, proxy_avf, sart_avf, sart = model_rates(
        "fib", flux=2e-5)
    # SART refines the conservative proxy downward but stays positive.
    assert 0.0 < sart_rate <= proxy_rate
    assert 0.0 < sart_avf <= proxy_avf <= 1.0
    assert sart.node_avfs
    # With the data arrays, pinned like the test above.
    assert (proxy_rate, sart_rate) == (0.0036100000000000056,
                                       0.003103999999999991)
