import math
from pathlib import Path

import pytest

from tai_welfare import ConfigError, DomainError, RunConfig, parse_config
from tai_welfare.compensation import PANELS
from tai_welfare.config import DEFAULT_ANCHOR_TARGET, calibrate_c0
from tai_welfare.tables import (
    SENTINEL_TOKENS,
    SOLVE_TARGETS,
    TABLE_IDS,
    TABLES,
    emit_table,
    format_number,
    solve_cell,
    table_spec,
)


class TestCalibration:
    def test_default_anchor_value(self):
        c0 = calibrate_c0()
        assert 10.74 <= math.log(c0) <= 10.78
        assert c0 == pytest.approx(4.70e4, rel=2e-3)

    def test_round_trip_with_known_c0(self):
        # build a synthetic anchor from a known c0 and invert it back
        known = 100.0
        lam = math.log(known)
        rho, g_ai, g0 = 0.05, 0.05, 0.0175
        w0 = lam / rho + g0 / rho**2
        wa = lam / rho + g_ai / rho**2
        target = 1.0 - w0 / wa
        assert calibrate_c0(target) == pytest.approx(known, rel=1e-8)

    def test_boundary_anchor_returns_one(self):
        rho, g_ai, g0 = 0.05, 0.05, 0.0175
        target = 1.0 - (g0 / rho**2) / (g_ai / rho**2)
        assert calibrate_c0(target) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("g_baseline", [0.0, 0.01, 0.02, 0.04])
    def test_anchor_cell_holds_at_any_baseline(self, g_baseline):
        # the default c0 is calibrated at the config's own baseline growth
        outcome = solve_cell("p3-immediate", RunConfig(g_baseline=g_baseline), 1.0, 0.05, 0.05, {})
        assert outcome.value == pytest.approx(DEFAULT_ANCHOR_TARGET, rel=1e-12)

    def test_impossible_anchor_rejected(self):
        with pytest.raises(DomainError):
            calibrate_c0(0.9999)  # would need c0 < 1

    def test_cross_validates_on_other_cells(self):
        # the single-anchor calibration must reproduce the rest of the
        # immediate-misalignment row within half a percent
        from tai_welfare import Preferences, ScenarioSpec, solve_p3_immediate

        c0 = calibrate_c0()
        targets = {(0.1, 0.05): 0.129332, (0.2, 0.01): 0.593343, (0.4, 0.002): 0.907439}
        for (g, rho), expected in targets.items():
            spec = ScenarioSpec(c0=c0, g_ai=g, prefs=Preferences(rho=rho, theta_rra=1.0))
            assert solve_p3_immediate(spec).value == pytest.approx(expected, rel=5e-3)


class TestFormatting:
    def test_six_significant_digits(self):
        assert format_number(62.628546) == "62.6285"
        assert format_number(0.055282) == "0.055282"

    def test_scientific_below_milli(self):
        assert format_number(5.12e-06) == "5.12000e-06"
        assert format_number(0.0009) == "9.00000e-04"
        assert format_number(0.001) == "0.001"

    def test_zero(self):
        assert format_number(0.0) == "0"


class TestEmitTable:
    def test_deterministic_bytes(self):
        spec = table_spec("t1", RunConfig())
        config = RunConfig()
        assert emit_table(spec, config) == emit_table(spec, config)

    def test_t1_has_no_sentinels(self):
        text = emit_table(table_spec("t1", RunConfig()), RunConfig())
        for token in SENTINEL_TOKENS.values():
            assert token not in text
        rows = text.strip().split("\n")
        assert len(rows) == 6  # header + five growth rows
        assert len(rows[0].split(",")) == 9  # g_ai + 2 thetas x 4 rhos

    def test_t3b_theta2_block_all_noTAI(self):
        text = emit_table(table_spec("t3b", RunConfig()), RunConfig())
        for row in text.strip().split("\n")[1:]:
            cells = row.split(",")
            assert all(c == "NO_TAI_PREFERRED" for c in cells[5:9])

    def test_t3b_has_above_one_sentinels(self):
        text = emit_table(table_spec("t3b", RunConfig()), RunConfig())
        assert "TAI_PREFERRED" in text

    def test_markdown_rendering(self):
        config = RunConfig(output_format="markdown")
        text = emit_table(table_spec("t2", config), config)
        assert text.startswith("| g_ai |")
        assert "| --- |" in text.split("\n")[1]

    def test_grid_overrides(self):
        config = RunConfig(g_ai_grid=(0.1, 0.3), rho_grid=(0.01, 0.05),
                           theta_set=(1.0,))
        text = emit_table(table_spec("t1", config), config)
        rows = text.strip().split("\n")
        assert len(rows) == 3
        assert len(rows[0].split(",")) == 3

    def test_unknown_table_rejected(self):
        with pytest.raises(ConfigError):
            table_spec("t9", RunConfig())

    def test_cell_error_does_not_abort_table(self):
        # W0 overflows at rho = 1e200, but the table must still be emitted
        # with an ERROR token in that cell of each row
        config = RunConfig(g_ai_grid=(0.1, 0.2), rho_grid=(0.05, 1e200), theta_set=(1.0,))
        text = emit_table(table_spec("t2", config), config)
        rows = text.strip().split("\n")
        assert rows[1:] == ["0.1,0.129332,ERROR:OverflowError",
                            "0.2,0.247325,ERROR:OverflowError"]


class TestReads:
    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_table_fixes_exactly_what_its_target_reads(self, table_id):
        # panel d's epsilon is re-solved per cell, never fixed by its table
        target, _, fixed = TABLES[table_id]
        reads = (SOLVE_TARGETS.get(target) or PANELS[target])[0]
        assert set(fixed) == set(reads) - {"epsilon"}

    @pytest.mark.parametrize("target", list(SOLVE_TARGETS))
    def test_solve_target_rejects_a_value_it_does_not_read(self, target):
        reads, solve = SOLVE_TARGETS[target]
        values = {name: 0.5 for name in reads}
        with pytest.raises(TypeError, match="unread"):
            solve(None, **values, unread=0.5)

    @pytest.mark.parametrize("panel", list(PANELS))
    def test_panel_rejects_a_value_it_does_not_read(self, panel):
        reads, risky = PANELS[panel]
        values = {name: 0.5 for name in reads}
        with pytest.raises(TypeError, match="unread"):
            risky(None, **values, unread=0.5)


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "bench" / "golden"


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_default_tables_match_golden_bytes(table_id):
    golden = (GOLDEN_DIR / f"{table_id}.csv").read_text(encoding="utf-8")
    config = RunConfig()
    assert emit_table(table_spec(table_id, config), config) == golden


class TestParseConfig:
    def test_basic_assignments(self):
        config = parse_config("c0=47000\ng_baseline=0.0175\n")
        assert config.c0 == 47000.0
        assert config.g_baseline == 0.0175

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="c0"):
            parse_config("c0=0.5")

    def test_empty_input_gives_defaults(self):
        config = parse_config("")
        assert config == RunConfig()

    def test_comments_and_blanks(self):
        config = parse_config("# comment\n\nc0=2.0  # trailing\n")
        assert config.c0 == 2.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("c0=2\ng_baseline=0.01\nbogus=1\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_non_numeric_value_reports_key(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config("epsilon=abc")

    def test_grid_lists(self):
        config = parse_config("g_ai_grid=0.1,0.2\nrho_grid=0.01,0.03\ntheta_set=1\n")
        assert config.g_ai_grid == (0.1, 0.2)
        assert config.rho_grid == (0.01, 0.03)
        assert config.theta_set == (1.0,)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("g_ai_grid=0.2,0.1")

    def test_output_format_checked(self):
        with pytest.raises(ConfigError):
            parse_config("output_format=yaml")
