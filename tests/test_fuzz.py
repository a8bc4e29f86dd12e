"""Hypothesis fuzzing of the two parsers that read outside input.

Every mutation of a small valid DECG file either reads or fails with
BadFormat or ChecksumMismatch, and does so exactly when the whole-text
reader in tests/reference.py does; `parse_pattern` fails only with
ValueError.  Header edits reach `n 10**6` with a matching palette size,
which the reader must refuse from the body without building the palette.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from decg import (
    BadFormat,
    ChecksumMismatch,
    ShiftSystem,
    color_graph,
    decg_dumps,
    fnv1a64,
    parse_pattern,
    read_decg,
    sample_periodic_points,
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

POINTS = sample_periodic_points(3, 3, 5, seed=1)
VALID = decg_dumps(color_graph(ShiftSystem(3), POINTS, 1)).encode()


@st.composite
def mutated_decg(draw) -> bytes:
    lines = VALID.split(b"\n")  # the last entry is the empty tail after the final LF
    if draw(st.booleans()):
        n = draw(st.integers(0, 10**6))
        colors = (2 * n + 1) ** 2 if draw(st.booleans()) else draw(st.integers(0, 10**13))
        q = draw(st.integers(0, 10**6)) if draw(st.booleans()) else len(POINTS)
        lines[2] = b"n %d" % n
        lines[3] = b"vertices %d  colors %d  sampled full" % (q, colors)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["swap", "duplicate", "drop"]))
        i = draw(st.integers(0, len(lines) - 2))
        j = draw(st.integers(0, len(lines) - 2))
        if kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif len(lines) > 2:
            del lines[i]
    data = b"\n".join(lines)
    if draw(st.booleans()):  # re-sign, so the mutation meets the grammar, not the checksum
        body, sep, _ = data.rpartition(b"end ")
        if sep:
            data = body + b"end %016x\n" % fnv1a64(body)
    flips = draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)), max_size=3))
    raw = bytearray(data)
    for at, mask in flips:
        raw[at] ^= mask
    return bytes(raw[: draw(st.integers(0, len(raw)))]) if draw(st.booleans()) else bytes(raw)


@FUZZ
@given(mutated_decg())
def test_read_decg_fails_only_with_format_errors(data):
    # and exactly when the whole-text reader does; otherwise both read the same graph
    try:
        expected = reference.read_decg(data)
    except (BadFormat, ChecksumMismatch):
        with pytest.raises((BadFormat, ChecksumMismatch)):
            read_decg(data)
    else:
        got = read_decg(data)
        assert got == expected
        assert got.checksum_hex() == expected.checksum_hex()


def test_truncation_at_every_line_boundary_and_mid_line():
    ends = [at + 1 for at, byte in enumerate(VALID) if byte == ord("\n")]
    starts = [0] + ends[:-1]
    cuts = set(starts)  # whole lines missing
    cuts |= {end - 1 for end in ends}  # the last line loses its newline
    cuts |= {(start + end) // 2 for start, end in zip(starts, ends)}  # cut mid-line
    for cut in sorted(cuts):
        with pytest.raises(BadFormat) as got:
            read_decg(VALID[:cut])
        with pytest.raises(BadFormat) as want:
            reference.read_decg(VALID[:cut])
        assert got.value.line_no == want.value.line_no, cut


def _signed(lines: list[bytes]) -> bytes:
    body = b"".join(line + b"\n" for line in lines)
    return body + b"end %016x\n" % fnv1a64(body)


def test_edge_line_with_a_checked_tail_but_wrong_indices_is_refused():
    # every edge line in turn replaces its successor: its tail has passed
    # the checks, its indices are one edge behind
    lines = VALID.split(b"\n")[:-2]  # without the end line
    for at in range(4 + len(POINTS), len(lines) - 1):
        data = _signed(lines[: at + 1] + [lines[at]] + lines[at + 2 :])
        with pytest.raises(BadFormat, match="out of order") as got:
            read_decg(data)
        with pytest.raises(BadFormat) as want:
            reference.read_decg(data)
        assert got.value.line_no == want.value.line_no == at + 2


@pytest.mark.parametrize("extra", [b"x", b"\n", VALID[-21:]])
def test_content_after_the_end_line_is_refused(extra):
    end_no = VALID.count(b"\n")
    for reader in (read_decg, reference.read_decg):
        with pytest.raises(BadFormat) as info:
            reader(VALID + extra)
        assert info.value.line_no == end_no + 1


VALID_PATTERN = "k3:w3:012210021"


@st.composite
def pattern_texts(draw) -> str:
    if draw(st.booleans()):
        return draw(st.text(alphabet="kw:0123456789abz \n²", max_size=24))
    text = list(VALID_PATTERN)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(list("kw:01239az\n²")))
        if draw(st.booleans()) and at < len(text):
            text[at] = ch
        else:
            text.insert(at, ch)
    return "".join(text)


@FUZZ
@given(pattern_texts())
@example("k" + "1" * 5000 + ":w1:0")  # past int's default digit limit
@example("k2:w99999999999:0")
@example("k37:w1:0")
@example("k2:w1:2")
def test_parse_pattern_fails_only_with_value_error(text):
    try:
        parse_pattern(text)
    except ValueError:
        pass
