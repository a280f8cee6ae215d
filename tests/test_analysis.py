"""Analysis-layer coverage: robustness clause-by-clause, accountability
edge paths, complexity fitting, report formatting.

Complements test_runner_analysis.py (happy paths) with the branches it
leaves untested: fork diagnostics, strict-ordering suffixes, failed
censorship resistance, forgeable-backend refusal and exponent-fit
errors.
"""

import math

import pytest

from repro.analysis.accountability import check_accountability
from repro.analysis.complexity import measure_complexity
from repro.analysis.report import render_table
from repro.analysis.robustness import check_robustness
from repro.experiments import Scenario, get_scenario
from repro.sim.metrics import fit_exponent


def forked_run():
    """An over-threshold polygraph fork: 3 executed deviators > t0=2
    reliably split the honest players' *final* ledgers."""
    return Scenario(
        name="poly-fork", protocol="polygraph", n=7, rounds=1,
        rational=1, byzantine=2, attack="fork",
        delta=0.9, timeout=8.4, max_time=200.0,
    ).run(seed=0)


class TestRobustnessClauses:
    def test_fork_run_reports_disagreement_heights(self):
        report = check_robustness(forked_run())
        assert not report.agreement
        assert not report.robust
        assert report.fork_heights, "a fork must pinpoint conflicting heights"
        assert min(report.fork_heights) >= 1

    def test_strict_ordering_suffix_tolerates_fork_tail(self):
        strict = check_robustness(forked_run())
        relaxed = check_robustness(forked_run(), c=max(strict.fork_heights))
        assert not strict.strict_ordering
        assert relaxed.strict_ordering

    def test_censorship_attack_fails_strong_robustness(self):
        scenario = get_scenario("censorship")
        result = scenario.run(seed=0)
        report = check_robustness(
            result, censored_tx_ids=list(scenario.censored_tx_ids)
        )
        assert report.censorship_resistance is False
        assert report.strongly_robust is False

    def test_honest_run_is_strongly_robust_for_included_tx(self):
        result = get_scenario("honest").run(seed=0)
        report = check_robustness(result, censored_tx_ids=["tx-0"])
        assert report.censorship_resistance is True
        assert report.strongly_robust is True

    def test_heights_reported(self):
        result = get_scenario("honest").run(seed=0)
        report = check_robustness(result)
        assert report.max_final_height >= report.min_final_height >= 0
        assert report.progressed

    def test_no_honest_players_rejected(self):
        scenario = Scenario(name="all-dev", n=3, rational=1, byzantine=1)
        result = scenario.run(seed=0)
        result.players[2].role = result.players[0].role  # no honest left
        with pytest.raises(ValueError):
            check_robustness(result)


class TestAccountabilityEdges:
    def test_forgeable_backend_refused(self):
        scenario = Scenario(
            name="fast", n=5, rounds=1, crypto_backend="fast-sim", max_time=200.0
        )
        result = scenario.run(seed=0)
        with pytest.raises(ValueError, match="unforgeable"):
            check_accountability(result)

    def test_burn_without_proof_is_unsound(self):
        result = get_scenario("honest").run(seed=0)
        result.ctx.collateral.burn(2, reason="framed")
        report = check_accountability(result)
        assert not report.burns_backed_by_proofs
        assert not report.no_honest_framed
        assert not report.sound

    def test_fork_collusion_report_is_sound(self):
        result = get_scenario("fork").run(seed=0)
        report = check_accountability(result)
        assert report.sound
        assert report.burned
        assert report.burned <= report.ground_truth_deviators


class TestComplexity:
    def test_fit_exponent_recovers_known_power_law(self):
        sizes = [2, 4, 8, 16]
        values = [3.0 * n**2 for n in sizes]
        assert fit_exponent(sizes, values) == pytest.approx(2.0)

    def test_fit_exponent_input_validation(self):
        with pytest.raises(ValueError):
            fit_exponent([4], [1.0])
        with pytest.raises(ValueError):
            fit_exponent([4, 8], [0.0, 0.0])
        with pytest.raises(ValueError):
            fit_exponent([4, 4], [1.0, 2.0])

    def test_exponent_properties_match_fit(self):
        measurement = measure_complexity(get_scenario("honest").with_params(rounds=1), [4, 8])
        expected = fit_exponent(measurement.sizes, measurement.messages_per_round)
        assert measurement.message_exponent == pytest.approx(expected)
        assert math.isfinite(measurement.size_exponent)


class TestRenderTableEdges:
    def test_untitled_table_has_no_title_line(self):
        table = render_table(["a"], [[1]])
        assert table.splitlines()[0].startswith("a")

    def test_float_formatting_three_significant_digits(self):
        table = render_table(["v"], [[1234.5678], [0.000123456]])
        assert "1.23e+03" in table and "0.000123" in table

    def test_column_width_tracks_longest_cell(self):
        table = render_table(["x", "y"], [["longest-cell-wins", 1]])
        header, separator, row = table.splitlines()
        assert len(header) == len(separator) == len(row)

    def test_empty_rows_render_header_only(self):
        table = render_table(["alpha", "beta"], [])
        lines = table.splitlines()
        assert len(lines) == 2 and "alpha" in lines[0]
