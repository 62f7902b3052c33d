import random

import pytest

from oracles import brute_force_best_rule, reference_match_nsw

from mtnorm.corpus import CorpusDistribution, NSWSpan, generate_synthetic_corpus
from mtnorm.extractor import extract_nsw
from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.pipeline import normalize
from mtnorm.rules import RuleError, RuleSet, match_nsw, parse_rules


def make_rule_text(specs):
    blocks = []
    for spec in specs:
        blocks.append(
            f"rule: {spec['name']}\n"
            f"priority: {spec['priority']}\n"
            f"context_len: {spec['context_len']}\n"
            f"pre: {spec['pre']}\n"
            f"nsw: {spec['nsw']}\n"
            f"post: {spec['post']}\n"
            f"label: {spec['label']}\n"
        )
    return "\n".join(blocks)


class TestCompile:
    def test_sort_by_context_then_priority(self):
        text = make_rule_text(
            [
                {"name": "a", "priority": 1, "context_len": 5, "pre": "", "nsw": r"\d+", "post": "", "label": "A_Read_No_Zero"},
                {"name": "b", "priority": 9, "context_len": 2, "pre": "", "nsw": r"\d+", "post": "", "label": "A_Read_No_Zero"},
                {"name": "c", "priority": 3, "context_len": 2, "pre": "", "nsw": r"\d+", "post": "", "label": "A_Read_No_Zero"},
            ]
        )
        rs = parse_rules(text)
        assert [(r.context_len, r.priority) for r in rs] == [(5, 1), (2, 9), (2, 3)]

    def test_empty_file(self):
        assert len(parse_rules("")) == 0

    def test_unknown_label_rejected(self):
        text = "rule: r1\nnsw: \\d+\nlabel: B_Hour\n"
        with pytest.raises(RuleError, match="B_Hour"):
            parse_rules(text)

    def test_unknown_field_rejected(self):
        # "group" was parsed but never read, and is no longer a rule field
        text = "rule: r1\ngroup: phone\nnsw: \\d+\nlabel: A_Read_No_Zero\n"
        with pytest.raises(RuleError, match=":2: unknown field 'group'"):
            parse_rules(text)

    def test_duplicate_name_rejected(self):
        text = "rule: r1\nnsw: \\d+\nlabel: A_Read_No_Zero\n\nrule: r1\nnsw: \\d\nlabel: A_Read_No_Zero\n"
        with pytest.raises(RuleError, match="duplicate"):
            parse_rules(text)

    def test_bad_regex_names_rule(self):
        text = "rule: broken\nnsw: [unclosed\nlabel: A_Read_No_Zero\n"
        with pytest.raises(RuleError, match="broken"):
            parse_rules(text)

    def test_context_pattern_needs_context_len(self):
        # searched in an empty window, the pattern could never match
        for field in ("pre: 比分", "post: 年"):
            text = f"rule: ok\nlabel: A_Read_No_Zero\n\nrule: dead\ncontext_len: 0\n{field}\nlabel: A_Read_No_Zero\n"
            with pytest.raises(RuleError, match=":4: rule dead: .*context_len >= 1"):
                parse_rules(text)
        text = "rule: dead\nnsw: \\d{4}\npost: 年\nlabel: A_Spell_Keep_Zero\n"
        with pytest.raises(RuleError, match=":1: rule dead"):
            parse_rules(text)  # context_len defaults to 0

    def test_missing_nsw_takes_label_format(self, fixture_rows):
        surfaces = {surface for surface, _, _ in fixture_rows}
        surfaces |= {"1,000,000,000,000", "24:00", "25.3", "10:30:45", "$1,000", "3"}
        for lab in DEFAULT_REGISTRY:
            rs = parse_rules(f"rule: r1\nlabel: {lab.name}\n")
            matched = {s for s in surfaces if match_nsw(rs, s, NSWSpan(0, len(s)))}
            assert matched == {s for s in surfaces if lab.format.fullmatch(s)}, lab.name
            assert matched, lab.name



class TestMatch:
    def test_longer_context_beats_generic(self):
        text = make_rule_text(
            [
                {"name": "score", "priority": 1, "context_len": 3, "pre": "比分", "nsw": r"\d+-\d+", "post": "", "label": "B_Score_Ratio"},
                {"name": "range", "priority": 9, "context_len": 0, "pre": "", "nsw": r"\d+-\d+", "post": "", "label": "B_Range"},
            ]
        )
        rs = parse_rules(text)
        sentence = "比分是30-10领先"
        span = extract_nsw(sentence)[0]
        match = match_nsw(rs, sentence, span)
        assert match.name == "score"

    def test_priority_breaks_context_ties(self):
        text = make_rule_text(
            [
                {"name": "low", "priority": 3, "context_len": 0, "pre": "", "nsw": r"\d+", "post": "", "label": "B_Range"},
                {"name": "high", "priority": 9, "context_len": 0, "pre": "", "nsw": r"\d+", "post": "", "label": "A_Read_No_Zero"},
            ]
        )
        match = match_nsw(parse_rules(text), "共100人", NSWSpan(1, 4))
        assert match.name == "high"

    def test_no_match_returns_none(self):
        text = make_rule_text(
            [{"name": "pct", "priority": 1, "context_len": 0, "pre": "", "nsw": r"\d+%", "post": "", "label": "B_Percent"}]
        )
        assert match_nsw(parse_rules(text), "共100人", NSWSpan(1, 4)) is None

    def test_context_clipped_at_boundaries(self):
        text = make_rule_text(
            [{"name": "any", "priority": 1, "context_len": 4, "pre": "", "nsw": r"\d+", "post": "", "label": "A_Read_No_Zero"}]
        )
        # span at position 0: empty pre-window still matches the empty pattern
        assert match_nsw(parse_rules(text), "20人", NSWSpan(0, 2)) is not None


def random_instance(rng):
    keywords = ["比分", "气温", "时间", "票价", "编号"]
    tails = ["领先", "度", "点", "元", "号"]
    nsw_patterns = [r"\d+", r"\d+-\d+", r"\d+%", r"\d{2}", r"\d+:\d+"]
    specs = []
    for i in range(rng.randint(1, 8)):
        specs.append(
            {
                "name": f"r{i:02d}",
                "priority": rng.randint(0, 9),
                "context_len": rng.randint(0, 4),
                "pre": rng.choice([""] * 3 + keywords),
                "nsw": rng.choice(nsw_patterns),
                "post": rng.choice([""] * 3 + tails),
                "label": "A_Read_No_Zero",
            }
        )
        if specs[-1]["pre"] or specs[-1]["post"]:
            # a context pattern needs a window: parse_rules rejects context_len 0
            specs[-1]["context_len"] = max(1, specs[-1]["context_len"])
    body = rng.choice(["30-10", "100", "15%", "10:30", "42"])
    left = rng.choice(["", "比分", "气温是", "在", "编号共计"])
    right = rng.choice(["", "领先", "度", "元整", "号房间"])
    text = left + body + right
    return specs, text, len(left), len(left) + len(body)


class TestAgainstBruteForce:
    def test_matches_brute_force_selection(self):
        rng = random.Random(1234)
        for _ in range(300):
            specs, text, start, end = random_instance(rng)
            rs = parse_rules(make_rule_text(specs))
            got = match_nsw(rs, text, NSWSpan(start, end))
            want = brute_force_best_rule(specs, text, start, end)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.name == want["name"]

    def test_shuffle_invariance(self):
        rng = random.Random(99)
        for _ in range(50):
            specs, text, start, end = random_instance(rng)
            baseline = match_nsw(parse_rules(make_rule_text(specs)), text, NSWSpan(start, end))
            shuffled = specs[:]
            rng.shuffle(shuffled)
            permuted = match_nsw(parse_rules(make_rule_text(shuffled)), text, NSWSpan(start, end))
            if baseline is None:
                assert permuted is None
            else:
                assert permuted.name == baseline.name

    def test_strictly_longer_context_wins(self):
        rng = random.Random(5)
        for _ in range(100):
            specs, text, start, end = random_instance(rng)
            rs = parse_rules(make_rule_text(specs))
            got = match_nsw(rs, text, NSWSpan(start, end))
            if got is None:
                continue
            matching = [
                s for s in specs
                if brute_force_best_rule([s], text, start, end) is not None
            ]
            longest = max(s["context_len"] for s in matching)
            if sum(1 for s in matching if s["context_len"] == longest) == 1:
                assert got.context_len == longest


class TestAgainstReferenceLoop:
    """``match_nsw`` against the rule-by-rule loop over ``RuleSet.rules``."""

    def check(self, rs, text, span):
        rule = reference_match_nsw(rs.rules, text, span.start, span.end)
        got = match_nsw(rs, text, span)
        assert got is rule
        return rule

    def test_dense_lines_and_their_edges(self, ruleset):
        corpus = generate_synthetic_corpus(CorpusDistribution.default(), 600, seed=31)
        rng = random.Random(31)
        found = []
        for _ in range(150):
            text = "，".join(s.text for s in rng.sample(corpus, rng.randint(2, 8))) + "。"
            for span in extract_nsw(text):
                found.append(self.check(ruleset, text, span))
                # the span at the start and at the end of the text
                self.check(ruleset, text[span.start :], NSWSpan(0, span.end - span.start))
                self.check(ruleset, text[: span.end], span)
        assert any(rule is None for rule in found)
        assert any(rule is not None and rule.pre_pattern.pattern for rule in found)
        assert any(rule is not None and rule.post_pattern.pattern for rule in found)

    def test_fixture_rows_in_context(self, ruleset, fixture_rows):
        for surface, _, _ in fixture_rows:
            # keywords at and away from the near edge of the context
            for pre in ("", "比分", "本场比分是", "共"):
                for post in ("", "领先", "以领先", "度", "个人", "年"):
                    span = NSWSpan(len(pre), len(pre) + len(surface))
                    self.check(ruleset, pre + surface + post, span)

    def test_random_rule_sets(self):
        rng = random.Random(77)
        for _ in range(300):
            specs, text, start, end = random_instance(rng)
            self.check(parse_rules(make_rule_text(specs)), text, NSWSpan(start, end))


def definite(rs, text, span):
    """The pipeline's definite check: ``match_nsw`` over the context prefix, kept if a context rule."""
    rule = match_nsw(rs.context_prefix, text, span)
    return rule if rule is not None and rule.context else None


class TestMatchDefinite:
    """Over ``context_prefix``, ``match_nsw`` gives a context rule exactly when the whole set does."""

    def check(self, rs, text, span):
        rule = match_nsw(rs, text, span)
        got = definite(rs, text, span)
        if rule is not None and rule.context:
            assert got is rule
        else:
            assert got is None
        return got

    def test_dense_lines(self, ruleset):
        corpus = generate_synthetic_corpus(CorpusDistribution.default(), 600, seed=41)
        rng = random.Random(41)
        found = []
        for _ in range(150):
            text = "，".join(s.text for s in rng.sample(corpus, rng.randint(2, 8))) + "。"
            for span in extract_nsw(text):
                found.append(self.check(ruleset, text, span))
                self.check(ruleset, text[span.start :], NSWSpan(0, span.end - span.start))
                self.check(ruleset, text[: span.end], span)
        names = {rule.name for rule in found if rule is not None}
        assert {"year_before_nian", "liang_before_measure", "range_with_unit", "quantity_before_unit"} <= names
        assert None in found

    def test_random_rule_sets(self):
        rng = random.Random(88)
        shadowed = found = 0
        for _ in range(500):
            specs, text, start, end = random_instance(rng)
            rs = parse_rules(make_rule_text(specs))
            found += self.check(rs, text, NSWSpan(start, end)) is not None
            flags = [rule.context for rule in rs]
            # a context-free rule sorts before a context rule
            shadowed += any(not a and b for a, b in zip(flags, flags[1:]))
            prefix = rs.context_prefix.rules
            assert rs.rules[: len(prefix)] == prefix and sum(flags) == sum(r.context for r in prefix)
            assert not prefix or prefix[-1].context
        assert shadowed > 100 and found > 10

    def test_context_free_rule_first(self):
        rs = parse_rules(make_rule_text([
            {"name": "wide", "priority": 1, "context_len": 3, "pre": "", "nsw": r"\d+-\d+", "post": "", "label": "B_Range"},
            {"name": "score", "priority": 1, "context_len": 2, "pre": "", "nsw": r"\d+-\d+", "post": "领先", "label": "B_Score_Ratio"},
        ]))
        assert match_nsw(rs.context_prefix, "主队3-1领先", NSWSpan(2, 5)).name == "wide"
        assert definite(rs, "主队3-1领先", NSWSpan(2, 5)) is None
        narrow = parse_rules(make_rule_text([
            {"name": "wide", "priority": 1, "context_len": 3, "pre": "", "nsw": r"\d+:\d+", "post": "", "label": "B_Time"},
            {"name": "score", "priority": 1, "context_len": 2, "pre": "", "nsw": r"\d+-\d+", "post": "领先", "label": "B_Score_Ratio"},
        ]))
        assert definite(narrow, "主队3-1领先", NSWSpan(2, 5)).name == "score"

    def test_no_context_rules(self):
        rs = parse_rules("rule: r1\nlabel: A_Read_No_Zero\n")
        assert match_nsw(rs, "共100人", NSWSpan(1, 4)) is not None
        assert len(rs.context_prefix) == 0
        assert definite(rs, "共100人", NSWSpan(1, 4)) is None

    def test_prefix_is_its_own_prefix(self, ruleset):
        empty = RuleSet([])
        assert empty.context_prefix is empty
        prefix = ruleset.context_prefix
        assert prefix is not ruleset and 0 < len(prefix) < len(ruleset)
        assert prefix.context_prefix is prefix


class TestNormalizeRuleBased:
    """The rules-only system through ``pipeline.normalize``."""

    def test_percent_sentence(self, rules_system):
        out, traces = normalize("只有10%的学生", rules_system)
        assert out == "只有百分之十的学生"
        assert traces[0].label is not None

    def test_identity_without_nsw(self, rules_system):
        out, traces = normalize("大家好才是真的好", rules_system)
        assert out == "大家好才是真的好"
        assert traces == []

    def test_currency_rule(self, rules_system):
        out, _ = normalize("这支笔卖$20", rules_system)
        assert out == "这支笔卖二十美元"

    def test_unmatched_left_verbatim(self, rules_system):
        out, traces = normalize("温度是25.3左右", rules_system)
        assert "25.3" in out
        assert traces[0].route == "unmatched"
        assert traces[0].sfw is None

    def test_context_preserved_exactly(self, rules_system):
        from mtnorm.corpus import CorpusDistribution, generate_synthetic_corpus

        for sentence in generate_synthetic_corpus(CorpusDistribution.default(), 100, seed=21):
            text = sentence.text
            out, traces = normalize(text, rules_system)
            spans = extract_nsw(text)
            rebuilt = []
            cursor = 0
            for span, trace in zip(spans, traces):
                rebuilt.append(text[cursor:span.start])
                rebuilt.append(trace.sfw if trace.sfw is not None else text[span.start:span.end])
                cursor = span.end
            rebuilt.append(text[cursor:])
            assert "".join(rebuilt) == out

    def test_deterministic(self, rules_system):
        text = "比赛10:30开始，比分是30-10"
        assert normalize(text, rules_system) == normalize(text, rules_system)
