"""NSW-to-SFW readers; each pattern label in :mod:`mtnorm.labels` holds one.

Numeral conventions pinned here (and frozen in the test suite's fixture
table, ``tests/fixtures.tsv``):

* positional reading groups by 万/亿, collapses interior zero runs to one
  零, keeps trailing zeros silent, and reduces a leading 一十 to 十;
* digit spelling reads 0 as 零 and, with ``use_yao``, 1 as 幺;
* hours of exactly 2 read 两点; minutes 00 are omitted, minutes 01-09 read
  零X分;
* per-unit quantities swap operands: 5人/组 reads 每组五人.

Reading stays cheap without per-digit Python on the common input. An ASCII
digit string is spelled with one ``str.translate`` through a module-level
table (plain or 幺); other decimal digits, such as full-width ones, keep the
per-character ``int()`` path, so they read as before. ``_read_group`` is
memoized: its domain is 1..9,999, so the memo holds at most 9,999 entries.
A value below 10^4 is read as its one group, before the three-group loop.
"""

from __future__ import annotations

import functools
import re

DIGIT_CHARS = "零一二三四五六七八九"
_YAO_CHARS = "零幺二三四五六七八九"
_SPELL = str.maketrans("0123456789", DIGIT_CHARS)
_SPELL_YAO = str.maketrans("0123456789", _YAO_CHARS)
_GROUP_UNITS = ("", "十", "百", "千")

MAX_POSITIONAL = 10**12


@functools.cache
def _read_group(value: int) -> str:
    """Read 1..9999 positionally with 千/百/十 units."""
    out = []
    pending_zero = False
    started = False
    for pos in (3, 2, 1, 0):
        d = (value // 10**pos) % 10
        if d == 0:
            pending_zero = started
            continue
        if pending_zero:
            out.append("零")
            pending_zero = False
        out.append(DIGIT_CHARS[d])
        out.append(_GROUP_UNITS[pos])
        started = True
    return "".join(out)


def read_number_positional(digits: str) -> str:
    """Standard Mandarin positional reading of a digit string below 10^12."""
    if not digits or not digits.isdigit():
        raise ValueError(f"not a digit string: {digits!r}")
    n = int(digits)
    if n >= MAX_POSITIONAL:
        raise ValueError(f"magnitude out of range for positional reading: {digits}")
    if n == 0:
        return "零"
    if n < 10**4:
        out = _read_group(n)
        return out[1:] if out.startswith("一十") else out
    groups = (n // 10**8, (n // 10**4) % 10**4, n % 10**4)
    out = ""
    for value, unit in zip(groups, ("亿", "万", "")):
        if value == 0:
            continue
        if out and value < 1000:
            out += "零"
        out += _read_group(value) + unit
    if out.startswith("一十"):
        out = out[1:]
    return out


def spell_digits(digits: str, use_yao: bool = False) -> str:
    """Digit-by-digit reading; zeros kept, 1 read 幺 when ``use_yao``."""
    if not digits or not digits.isdigit():
        raise ValueError(f"not a digit string: {digits!r}")
    if digits.isascii():
        return digits.translate(_SPELL_YAO if use_yao else _SPELL)
    table = _YAO_CHARS if use_yao else DIGIT_CHARS
    return "".join(table[int(d)] for d in digits)


def read_decimal(number: str) -> str:
    """Read ``123.45``-style strings: positional integer part, spelled fraction."""
    integer, dot, fraction = number.partition(".")
    out = read_number_positional(integer)
    if dot:
        if not fraction:
            raise ValueError(f"dangling decimal point: {number!r}")
        out += "点" + spell_digits(fraction)
    return out


_RANGE_SEP = re.compile(r"[-~—]")
_PER_LEFT = re.compile(r"(?P<num>\d+(?:\.\d+)?)(?P<unit>[一-鿿]*)")


def _read_quantity(num: str) -> str:
    # Counted quantities read a bare 2 as 两 (两人, not 二人).
    if num == "2":
        return "两"
    return read_decimal(num)


def render_read(surface: str) -> str:
    return read_number_positional(surface.replace(",", ""))


def render_spell(surface: str) -> str:
    return spell_digits(surface)


def render_yao(surface: str) -> str:
    return spell_digits(surface, use_yao=True)


def render_liang(surface: str) -> str:
    return "两"


def render_percent(surface: str) -> str:
    return "百分之" + read_decimal(surface[:-1])


def render_range(surface: str) -> str:
    lo, hi = _RANGE_SEP.split(surface, maxsplit=1)
    return read_decimal(lo) + "到" + read_decimal(hi)


def render_score(surface: str) -> str:
    a, b = re.split(r"[-:]", surface, maxsplit=1)
    return read_number_positional(a) + "比" + read_number_positional(b)


def render_time(surface: str) -> str:
    hour, minute = surface.split(":")
    h = int(hour)
    out = ("两" if h == 2 else read_number_positional(str(h))) + "点"
    if minute == "00":
        return out
    if minute[0] == "0":
        return out + "零" + DIGIT_CHARS[int(minute[1])] + "分"
    return out + read_number_positional(minute) + "分"


def render_date(surface: str) -> str:
    year, month, day = surface.split("-")
    return (
        spell_digits(year)
        + "年"
        + read_number_positional(str(int(month)))
        + "月"
        + read_number_positional(str(int(day)))
        + "日"
    )


def render_per(surface: str) -> str:
    left, right = surface.split("/", 1)
    m = _PER_LEFT.fullmatch(left)
    if m is None:
        raise ValueError(f"unreadable per-unit quantity: {surface!r}")
    return "每" + right + _read_quantity(m.group("num")) + m.group("unit")


def render_dollar(surface: str) -> str:
    return read_decimal(surface[1:]) + "美元"


def render(surface: str, label: int | str) -> str:
    """The spoken form of an NSW surface, from the label's reader.

    The label resolves through the shipped label table, and the surface is
    checked against that label's format. A surface the format rejects, or
    that the reader cannot read, raises ``ValueError``.
    """
    table = labels.DEFAULT_REGISTRY
    lab = table.by_name(label) if isinstance(label, str) else table.by_id(label)
    if not table.verify(surface, lab.id):
        raise ValueError(f"surface {surface!r} is not legal for label {lab.name}")
    return lab.read(surface)


# At the foot: labels imports this module for its readers, and render reads
# the table at call time, so either module may be imported first.
from . import labels  # noqa: E402
