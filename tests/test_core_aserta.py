"""Tests for the ASERTA analyzer and unreliability accounting."""

import pytest

from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.unreliability import GateUnreliability, UnreliabilityReport
from repro.errors import AnalysisError
from repro.tech.library import CellParams, ParameterAssignment


class TestConfig:
    def test_defaults_match_paper(self):
        config = AsertaConfig()
        assert config.n_vectors == 10000
        assert config.n_sample_widths == 10
        assert config.charge_fc == 16.0
        assert config.input_probability == 0.5

    def test_validation(self):
        with pytest.raises(AnalysisError):
            AsertaConfig(n_vectors=0)
        with pytest.raises(AnalysisError):
            AsertaConfig(n_sample_widths=1)
        with pytest.raises(AnalysisError):
            AsertaConfig(charge_fc=-1.0)
        with pytest.raises(AnalysisError):
            AsertaConfig(input_probability=2.0)
        # The P_ij simulation draws uniform bits, so any other input
        # probability would mix two input models.
        for p in (0.0, 0.3, 1.0):
            with pytest.raises(AnalysisError, match="uniform input bits"):
                AsertaConfig(input_probability=p)


class TestAnalysis:
    def test_report_covers_all_gates(self, c17_analyzer, c17):
        report = c17_analyzer.analyze()
        assert set(report.unreliability.per_gate) == {
            g.name for g in c17.gates()
        }
        assert report.total > 0.0
        assert report.runtime_s >= 0.0

    def test_contribution_formula(self, c17_analyzer):
        report = c17_analyzer.analyze()
        for entry in report.unreliability.per_gate.values():
            assert entry.contribution == pytest.approx(
                entry.size * sum(entry.widths_by_output.values())
            )
        assert report.total == pytest.approx(
            sum(e.contribution for e in report.unreliability.per_gate.values())
        )

    def test_zero_charge_means_zero_unreliability(self, c17_analyzer):
        report = c17_analyzer.analyze(charge_fc=0.0)
        assert report.total == 0.0

    def test_unreliability_monotone_in_charge(self, c17_analyzer):
        low = c17_analyzer.analyze(charge_fc=8.0).total
        high = c17_analyzer.analyze(charge_fc=32.0).total
        assert high >= low

    def test_analysis_deterministic(self, c17_analyzer):
        assert c17_analyzer.analyze().total == pytest.approx(
            c17_analyzer.analyze().total
        )

    def test_size_weighting_visible(self, c17_analyzer):
        big = ParameterAssignment(default=CellParams(size=2.0))
        nominal_report = c17_analyzer.analyze()
        big_report = c17_analyzer.analyze(big)
        for name, entry in big_report.unreliability.per_gate.items():
            assert entry.size == 2.0
        assert nominal_report.unreliability.per_gate["22"].size == 1.0

    def test_po_gate_width_hits_latch_directly(self, c17_analyzer, c17):
        report = c17_analyzer.analyze()
        for out in c17.outputs:
            entry = report.unreliability.per_gate[out]
            assert entry.widths_by_output[out] == pytest.approx(
                entry.generated_width_ps
            )

    def test_softest_gates_ranked(self, c432_analyzer):
        report = c432_analyzer.analyze()
        top = report.unreliability.softest_gates(5)
        assert len(top) == 5
        values = [e.contribution for e in top]
        assert values == sorted(values, reverse=True)
        assert values[0] == max(
            e.contribution for e in report.unreliability.per_gate.values()
        )


class TestReportHelpers:
    def test_improvement_over(self):
        def fake(name, contribution):
            return GateUnreliability(
                gate=name, generated_width_ps=1.0, size=1.0,
                widths_by_output={"o": contribution},
            )

        base = UnreliabilityReport("c", {"g": fake("g", 10.0)})
        better = UnreliabilityReport("c", {"g": fake("g", 6.0)})
        assert better.improvement_over(base) == pytest.approx(0.4)
        assert base.improvement_over(base) == 0.0

    def test_contribution_missing_gate_is_zero(self):
        report = UnreliabilityReport("c", {})
        assert report.contribution("ghost") == 0.0
