"""FIT model, simulated beam, and correlation-experiment tests."""

import pytest

from repro.designs.tinycore.programs import default_dmem, program
from repro.errors import CampaignError, ReproError
from repro.pipeline import BeamSpec
from repro.ser.beam import BeamConfig, run_beam_test
from repro.ser.correlation import TINYCORE_LOOP_PAVF, correlate_workloads, model_rates
from repro.ser.fit import FitModel, sdc_rate_per_cycle

pytestmark = pytest.mark.slow  # end-to-end beam + SART correlation runs


class TestFitModel:
    def test_eq1(self):
        m = FitModel(intrinsic_fit_per_bit=2.0)
        m.add("seq", avf=0.5, bits=10)
        assert m.total_fit() == pytest.approx(0.5 * 10 * 2.0)
        assert m.groups["seq"].bits == 10

    def test_groups_accumulate(self):
        m = FitModel()
        m.add("a", 0.1, bits=4)
        m.add("a", 0.3, bits=4)
        m.add("b", 1.0, bits=1)
        assert m.group_fit("a") == pytest.approx((0.1 + 0.3) * 4 * m.intrinsic_fit_per_bit)
        assert m.total_bits() == 9
        assert m.group_fit("missing") == 0.0

    def test_normalization(self):
        m = FitModel()
        m.add("a", 0.5, bits=2)
        m.add("b", 0.5, bits=2)
        norm = m.normalized()
        assert norm["a"] == pytest.approx(0.5)
        assert norm["TOTAL"] == pytest.approx(1.0)

    def test_validation(self):
        m = FitModel()
        with pytest.raises(ReproError):
            m.add("a", 1.5)
        with pytest.raises(ReproError):
            m.add("a", 0.5, bits=-1)

    def test_derating_and_rate(self):
        m = FitModel(intrinsic_fit_per_bit=1e-5)
        m.add("seq", 1.0, bits=100, derating=0.5)
        assert sdc_rate_per_cycle(m) == pytest.approx(5e-4)

    def test_average_avf(self):
        m = FitModel(intrinsic_fit_per_bit=1.0)
        m.add("seq", 0.25, bits=8)
        assert m.groups["seq"].average_avf(1.0) == pytest.approx(0.25)


class TestBeam:
    @pytest.fixture(scope="class")
    def beam(self):
        words, dmem = program("fib"), default_dmem("fib")
        return run_beam_test(
            words, dmem, BeamConfig(flux=5e-5, exposures=126, seed=9)
        )

    def test_counts_and_rate(self, beam):
        assert beam.exposures == 126
        assert beam.strikes > 0
        assert 0 <= beam.sdc_events <= beam.exposures
        lo, hi = beam.rate_interval()
        assert lo <= beam.sdc_rate_per_cycle <= hi

    def test_zero_flux_rejected(self):
        with pytest.raises(CampaignError):
            run_beam_test(program("fib"), None, BeamConfig(flux=0.0))

    def test_higher_flux_more_events(self):
        words = program("fib")
        low = run_beam_test(words, None, BeamConfig(flux=1e-5, exposures=63, seed=1))
        high = run_beam_test(words, None, BeamConfig(flux=2e-4, exposures=63, seed=1))
        assert high.sdc_events > low.sdc_events

    def test_determinism(self):
        words = program("fib")
        cfg = BeamConfig(flux=5e-5, exposures=63, seed=5)
        a = run_beam_test(words, None, cfg)
        b = run_beam_test(words, None, cfg)
        assert a.sdc_events == b.sdc_events and a.strikes == b.strikes


class TestCorrelation:
    @pytest.fixture(scope="class")
    def rows(self):
        return correlate_workloads(
            ("lattice2d", "md5mix"),
            beam=BeamSpec(flux=1e-5, exposures=189, seed=77),
        )

    def test_proxy_overpredicts(self, rows):
        # The paper's pre-sequential-AVF state: modeled SER well above
        # measured ("off by nearly 100%" — here 2-3x).
        for row in rows:
            assert row.normalized()["proxy"] > 1.5

    def test_sart_improves_correlation(self, rows):
        for row in rows:
            norm = row.normalized()
            assert norm["sart"] < norm["proxy"]
            assert row.correlation_improvement > 0.2
        mean_improvement = sum(r.correlation_improvement for r in rows) / len(rows)
        assert mean_improvement > 0.4  # paper: ~66 %

    def test_sart_stays_conservative(self, rows):
        for row in rows:
            assert row.modeled_sart >= row.measured_rate * 0.95

    def test_sequential_avf_reduction(self, rows):
        for row in rows:
            assert row.seq_avf_sart < row.seq_avf_proxy
            assert row.sequential_avf_reduction > 0.15  # paper: 63 %

    def test_model_rates_components(self):
        proxy, sart, proxy_avf, sart_avf, result = model_rates(
            "fib", flux=1e-5, include_arrays=False
        )
        assert proxy > 0 and sart > 0
        assert 0 < sart_avf < 1 and 0 < proxy_avf <= 1
        assert result.config.loop_pavf == TINYCORE_LOOP_PAVF
