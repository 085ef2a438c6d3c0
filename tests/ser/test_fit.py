"""Unit tests for the Eq 1 FIT accumulator (`ser/fit.py`)."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.ser.fit import FitModel, GroupFit, sdc_rate_per_cycle


def test_eq1_accumulation():
    model = FitModel(intrinsic_fit_per_bit=2e-5)
    model.add("sequentials", 0.5, bits=100)
    model.add("arrays", 0.25, bits=1000)
    assert model.group_fit("sequentials") == pytest.approx(0.5 * 100 * 2e-5)
    assert model.group_fit("arrays") == pytest.approx(0.25 * 1000 * 2e-5)
    assert model.total_fit() == pytest.approx(
        model.group_fit("sequentials") + model.group_fit("arrays"))
    assert model.total_bits() == 1100


def test_derating_scales_fit_not_bits():
    model = FitModel(intrinsic_fit_per_bit=1.0)
    model.add("seq", 1.0, bits=10, derating=0.5)
    assert model.group_fit("seq") == pytest.approx(5.0)
    assert model.total_bits() == 10


def test_add_rejects_out_of_range_avf():
    model = FitModel()
    with pytest.raises(ReproError, match="out of range"):
        model.add("seq", 1.5)
    with pytest.raises(ReproError, match="out of range"):
        model.add("seq", -0.1)
    with pytest.raises(ReproError, match="negative bit"):
        model.add("seq", 0.5, bits=-1)
    assert model.groups == {}  # nothing partially recorded


def test_boundary_avfs_accepted():
    model = FitModel(intrinsic_fit_per_bit=1.0)
    model.add("seq", 0.0, bits=5)
    model.add("seq", 1.0, bits=5)
    assert model.group_fit("seq") == pytest.approx(5.0)


def test_empty_model_degenerates_to_zero():
    model = FitModel()
    assert model.total_fit() == 0.0
    assert model.total_bits() == 0
    assert model.group_fit("anything") == 0.0
    assert model.normalized() == {}
    assert sdc_rate_per_cycle(model) == 0.0


def test_zero_avf_model_normalizes_to_zeros():
    # All-zero AVFs give total FIT 0: normalized() must not divide by it.
    model = FitModel()
    model.add("seq", 0.0, bits=10)
    model.add("arrays", 0.0, bits=10)
    assert model.normalized() == {"seq": 0.0, "arrays": 0.0}


def test_normalized_against_total_and_reference():
    model = FitModel(intrinsic_fit_per_bit=1.0)
    model.add("seq", 0.5, bits=2)      # fit 1.0
    model.add("arrays", 1.0, bits=3)   # fit 3.0
    by_total = model.normalized()
    assert by_total["TOTAL"] == pytest.approx(1.0)
    assert by_total["seq"] == pytest.approx(0.25)
    by_ref = model.normalized(reference=2.0)
    assert by_ref["seq"] == pytest.approx(0.5)
    assert by_ref["TOTAL"] == pytest.approx(2.0)


def test_group_average_avf_zero_denominator():
    empty = GroupFit(group="seq")
    assert empty.average_avf(1e-3) == 0.0
    assert empty.average_avf(0.0) == 0.0
    filled = GroupFit(group="seq", bits=10, fit=5e-3)
    assert filled.average_avf(1e-3) == pytest.approx(0.5)


def test_single_component_model():
    # The single-FUB degenerate case: one group, one bit.
    model = FitModel(intrinsic_fit_per_bit=1e-3)
    model.add("seq", 0.7)
    assert model.total_fit() == pytest.approx(7e-4)
    assert model.normalized()["seq"] == pytest.approx(1.0)
    assert model.groups["seq"].average_avf(1e-3) == pytest.approx(0.7)


def test_sdc_rate_scales_with_flux():
    model = FitModel(intrinsic_fit_per_bit=1e-3)
    model.add("seq", 0.5, bits=4)
    assert sdc_rate_per_cycle(model) == pytest.approx(2e-3)
    # The flux lives in the per-bit rate: ten times the flux, ten times
    # the events.
    model = FitModel(intrinsic_fit_per_bit=1e-2)
    model.add("seq", 0.5, bits=4)
    assert sdc_rate_per_cycle(model) == pytest.approx(2e-2)
