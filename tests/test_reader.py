import random

import pytest

from oracles import parse_han_number

from mtnorm.corpus import _gen_surface
from mtnorm.extractor import NSW_SYMBOLS
from mtnorm.reader import (
    read_decimal,
    read_number_positional,
    render,
    spell_digits,
)

GENERATOR_BY_LABEL = {
    "A_Read_No_Zero": "int:0-99999",
    "A_Spell_Keep_Zero": "year",
    "B_Percent": "percent",
    "B_Range": "range",
    "B_Score_Ratio": "score",
    "B_Slash_Per": "per",
    "B_Time": "time",
    "B_Date_YMD": "date",
    "A_Two_Liang": "two",
    "A_One_Yao_Spell": "phone",
    "B_Dollar": "dollar",
}


class TestFixtureTable:
    def test_every_fixture_entry(self, fixture_rows):
        failures = []
        for surface, label, expected in fixture_rows:
            got = render(surface, label)
            if got != expected:
                failures.append((surface, label, got, expected))
        assert not failures, failures[:10]

    def test_positional_fixtures_agree_with_parser_oracle(self, fixture_rows):
        for surface, label, expected in fixture_rows:
            if label == "A_Read_No_Zero":
                assert parse_han_number(expected) == int(surface.replace(",", ""))


class TestPositional:
    def test_zero(self):
        assert read_number_positional("0") == "零"

    def test_interior_zero_collapse(self):
        assert read_number_positional("10015") == "一万零一十五"
        assert read_number_positional("100000005") == "一亿零五"

    def test_leading_yishi_reduction(self):
        assert read_number_positional("10") == "十"
        assert read_number_positional("115") == "一百一十五"  # interior 一十 kept

    def test_magnitude_cap(self):
        with pytest.raises(ValueError):
            read_number_positional("1000000000000")

    def test_non_digit_rejected(self):
        for bad in ("", "12a", "1.5", "-3"):
            with pytest.raises(ValueError):
                read_number_positional(bad)

    def test_round_trip_sample(self):
        rng = random.Random(0)
        for _ in range(2000):
            n = rng.randrange(10**rng.randint(1, 12))
            assert parse_han_number(read_number_positional(str(n))) == n


class TestSpell:
    def test_keeps_zeros(self):
        assert spell_digits("2020") == "二零二零"
        assert spell_digits("0001") == "零零零一"

    def test_yao(self):
        assert spell_digits("911", use_yao=True) == "九幺幺"
        assert spell_digits("911") == "九一一"

    def test_single_digit(self):
        assert spell_digits("5") == "五"

    def test_agreement_with_positional_on_single_digits(self):
        for d in "03456789":
            assert spell_digits(d) == read_number_positional(d)

    def test_non_digit_rejected(self):
        with pytest.raises(ValueError):
            spell_digits("1-3")


class TestDecimal:
    def test_cases(self):
        assert read_decimal("1.5") == "一点五"
        assert read_decimal("0.05") == "零点零五"
        assert read_decimal("25") == "二十五"

    def test_dangling_point(self):
        with pytest.raises(ValueError):
            read_decimal("3.")


class TestRender:
    def test_illegal_pairing_rejected(self):
        with pytest.raises(ValueError, match="not legal"):
            render("10%", "B_Time")

    def test_precondition_documented_examples(self):
        assert render("10:30", "B_Time") == "十点三十分"
        assert render("30-10", "B_Score_Ratio") == "三十比十"
        assert render("2019-10-01", "B_Date_YMD") == "二零一九年十月一日"

    def test_totality_and_purity_on_legal_surfaces(self):
        # any generator-produced surface must render, and the rendering must
        # carry no digits and no extraction symbols
        rng = random.Random(23)
        for name, spec in GENERATOR_BY_LABEL.items():
            for _ in range(60):
                surface = _gen_surface(spec, rng)
                rendered = render(surface, name)
                assert rendered
                assert not any(ch.isdigit() for ch in rendered)
                assert not any(ch in NSW_SYMBOLS for ch in rendered)

    def test_rendered_output_not_extractable(self, fixture_rows):
        from mtnorm.extractor import extract_nsw

        for surface, label, expected in fixture_rows:
            assert extract_nsw(expected) == []
