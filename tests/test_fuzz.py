"""Hypothesis fuzzing of the two parsers that read outside input.

Every mutation of a small valid DECG file either reads or fails with
BadFormat or ChecksumMismatch, and `parse_pattern` fails only with
ValueError.  Header edits reach `n 10**6` with a matching palette size,
which the reader must refuse from the body without building the palette.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    try:
        read_decg(data)
    except (BadFormat, ChecksumMismatch):
        pass


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
