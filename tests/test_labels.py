import random
from importlib import resources

import pytest

from mtnorm.corpus import _gen_surface, load_templates
from mtnorm.labels import DEFAULT_REGISTRY, LabelRegistry
from mtnorm.reader import render


class TestRegister:
    def test_label_holds_compiled_format_and_reader(self):
        reg = LabelRegistry()
        lab = reg.register("B_Hour", r"\d{1,2}h", lambda s: s[:-1] + "小时")
        assert lab.id == 0 and reg.by_name("B_Hour") is lab
        assert lab.format.fullmatch("12h")
        assert reg.legal_labels("12h") == [True]
        assert reg.legal_labels("123h") == [False]
        assert render("12h", "B_Hour", reg).text == "12小时"

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError, match="bad pattern for B_Hour"):
            LabelRegistry().register("B_Hour", r"\d(", str)


class TestFromFile:
    def test_only_listed_formats_change(self, tmp_path):
        path = tmp_path / "formats.txt"
        path.write_text(
            "# widen time, narrow dollars\n"
            r"B_Time: (?:[01]?\d|2[0-4]):[0-5]\d" "\n"
            r"B_Dollar: \$\d{1,3}" "\n",
            encoding="utf-8",
        )
        reg = LabelRegistry.from_file(str(path))
        assert len(reg) == len(DEFAULT_REGISTRY)
        for old, new in zip(DEFAULT_REGISTRY, reg):
            assert (new.id, new.name, new.read, new.description) == (
                old.id, old.name, old.read, old.description
            )
            if new.name not in ("B_Time", "B_Dollar"):
                assert new.format.pattern == old.format.pattern, new.name
        assert not DEFAULT_REGISTRY.verify("24:00", reg.id_of("B_Time"))
        assert reg.verify("24:00", reg.id_of("B_Time"))
        assert not reg.verify("$1000", reg.id_of("B_Dollar"))
        assert DEFAULT_REGISTRY.verify("$1000", reg.id_of("B_Dollar"))

    def test_bad_pattern_in_file(self, tmp_path):
        path = tmp_path / "formats.txt"
        path.write_text("B_Time: \\d(\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad pattern for B_Time"):
            LabelRegistry.from_file(str(path))


class TestRuleFormatAgreement:
    def test_rule_surfaces_pass_label_format(self, ruleset, fixture_rows):
        """A surface a shipped rule accepts is one its label's format accepts."""
        rng = random.Random(31)
        surfaces = {surface for surface, _, _ in fixture_rows}
        for entry in load_templates().values():
            surfaces.update(_gen_surface(entry.nsw_spec, rng) for _ in range(300))
        checked = 0
        for rule in ruleset:
            for surface in sorted(surfaces):
                if rule.nsw_pattern.fullmatch(surface):
                    checked += 1
                    assert DEFAULT_REGISTRY.verify(surface, rule.label), (rule.name, surface)
        assert checked > 1000
