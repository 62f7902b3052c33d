import random

import numpy as np
import pytest

from mtnorm.labels import DEFAULT_REGISTRY
from mtnorm.legality import default_formats
from mtnorm.neural.model import masked_softmax

TABLE_EXAMPLES = {
    "A_Read_No_Zero": "200",
    "A_Spell_Keep_Zero": "2020",
    "B_Percent": "10%",
    "B_Range": "10-15",
    "B_Score_Ratio": "30-10",
    "B_Slash_Per": "5人/组",
    "B_Time": "10:30",
    "B_Date_YMD": "2019-10-01",
    "A_Two_Liang": "2",
    "A_One_Yao_Spell": "911",
    "B_Dollar": "$20",
}


FORMATS = default_formats()

def lid(name):
    return DEFAULT_REGISTRY.id_of(name)


class TestLegalLabels:
    def test_colon_time_is_not_pure_number(self):
        flags = FORMATS.legal_labels("12:00")
        assert not flags[lid("A_Read_No_Zero")]
        assert not flags[lid("A_Spell_Keep_Zero")]
        assert flags[lid("B_Time")]

    def test_percent_is_not_date_or_time(self):
        flags = FORMATS.legal_labels("10%")
        assert flags[lid("B_Percent")]
        assert not flags[lid("B_Date_YMD")]
        assert not flags[lid("B_Time")]

    def test_digits_are_positional_legal(self):
        assert FORMATS.legal_labels("200")[lid("A_Read_No_Zero")]

    def test_verify_examples(self):
        assert FORMATS.verify("10:30", lid("B_Time"))
        assert not FORMATS.verify("10%", lid("B_Date_YMD"))
        for name in TABLE_EXAMPLES:
            assert not FORMATS.verify("", lid(name))

    def test_unregistered_label_rejected(self):
        for label_id in (99, -1):  # -1 must not index the table from its end
            with pytest.raises(KeyError, match=f"unknown label id: {label_id}"):
                FORMATS.verify("200", label_id)


class TestTableCoverage:
    def test_each_example_legal_for_own_label(self):
        for name, example in TABLE_EXAMPLES.items():
            assert FORMATS.verify(example, lid(name)), (name, example)

    def test_pairwise_distinguishing(self):
        # every label rejects at least one other label's example
        for name in TABLE_EXAMPLES:
            rejected = [
                other
                for other, example in TABLE_EXAMPLES.items()
                if other != name and not FORMATS.verify(example, lid(name))
            ]
            assert rejected, f"{name} accepts every example"


class TestMaskVerifierConsistency:
    def test_masked_argmax_always_passes_verify(self):
        # shared registry: whatever the masked softmax picks must verify
        rng = random.Random(17)
        np_rng = np.random.default_rng(17)
        surfaces = list(TABLE_EXAMPLES.values()) + ["7", "99%", "0:59", "1999", "23-45"]
        for _ in range(500):
            surface = rng.choice(surfaces)
            flags = np.asarray(FORMATS.legal_labels(surface))
            if not flags.any():
                continue
            probs = masked_softmax(np_rng.normal(size=len(flags)), flags)[0]
            assert FORMATS.verify(surface, int(np.argmax(probs)))
