"""Property tests of the tensor text parser: every text parses or is refused cleanly."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biasrank.gf import PrimeField  # noqa: E402
from biasrank.tensor import (  # noqa: E402
    TensorFormatError,
    from_entries,
    parse_tensor,
    serialize_tensor,
)

SETTINGS = settings(max_examples=200, deadline=None, database=None)

# Lines built from tokens near the format's edges: small and negative ints,
# composite and large moduli, junk, comments and blank lines.
token = st.one_of(st.integers(-2, 6).map(str),
                  st.sampled_from(["257", "4", "1", "0", "2147483647", "99999", "x", "1.5", "-0",
                                   "+1", "1_0", "#", "# note", "\t"]))
line = st.lists(token, max_size=6).map(" ".join)


@st.composite
def framed(draw):
    """A header, mostly of a small shape, then entries in range of which at
    most one token is one step outside its range, and at most one token line."""
    p, n, d = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    entry = st.tuples(st.lists(st.integers(0, max(n - 1, 0)), min_size=d, max_size=d),
                      st.integers(0, max(p - 1, 0)))
    rows = [idx + [c] for idx, c in draw(st.lists(entry, max_size=4))]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        k = draw(st.sampled_from([d] + list(range(d + 1))))  # the value half the time
        row[k] = draw(st.sampled_from([-1, n if k < d else p]))
    lines = [" ".join(map(str, row)) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(line))
    header = draw(st.sampled_from([f"{p} {n} {d}"] * 3 + [draw(line)]))
    return "\n".join([header] + lines)


def reference_parse(text):
    """The tensor that the lines of an accepted text spell out, entry by entry."""
    rows = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    (p, n, d), *entries = [[int(tok) for tok in row] for row in rows if row]
    for *idx, c in entries:
        assert len(idx) == d and all(0 <= i < n for i in idx) and 0 <= c < p
    return from_entries(PrimeField(p), n, d, [(idx, c) for *idx, c in entries])


def parse_or_refuse(text):
    """The parsed tensor, or None where the text is refused with a line number."""
    try:
        t = parse_tensor(text)
    except TensorFormatError as err:
        assert err.line >= 1
        assert str(err).startswith(f"line {err.line}: ")
        return None
    assert t == reference_parse(text)
    return t


@SETTINGS
@given(st.one_of(st.text(max_size=60), framed(), framed()))
def test_any_text_parses_or_raises_a_format_error(text):
    t = parse_or_refuse(text)
    if t is not None:
        assert parse_tensor(serialize_tensor(t)) == t


@st.composite
def entry_lists(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, n - 1)] * d)
    entries = draw(st.lists(st.tuples(index, st.integers(0, p - 1)), max_size=12))
    return p, n, d, entries


@SETTINGS
@given(entry_lists())
def test_entries_are_summed_mod_p_like_from_entries(case):
    # repeated indices are summed, so the parser and from_entries must agree
    p, n, d, entries = case
    text = "\n".join([f"{p} {n} {d}"] + [" ".join(map(str, idx)) + f" {c}" for idx, c in entries])
    assert parse_tensor(text) == from_entries(PrimeField(p), n, d, entries)
