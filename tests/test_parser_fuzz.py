"""Property tests of the profile and graph parsers, which have no writer.

Any text must parse to a value or raise FileFormatError whose diagnostics
point at lines of that text; no other exception may escape.  The parsers must
also agree with the per-line state machines in oracles.py.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles

from fmf_ttdl.design import ConversionGraph, parse_graph
from fmf_ttdl.fileio import FileFormatError
from fmf_ttdl.materials import FiberProfile, parse_profile

PROFILE_LINES = (
    "[layer]", "[ layer ]", "[core]", "[]", "[", "radius_um = 3.0", "radius_um = 10",
    "radius_um = 2.5e0", "radius_um = -1", "radius_um = 0", "radius_um = nan",
    "radius_um = 1e309", "radius_um = abc", "radius_um =", "delta_percent = 0.21",
    "delta_percent = -0.5", "delta_percent = inf", "delta_percent = 1e308",
    "delta_percent = ٣", "name = ring", "name =", "material_model = scaled-silica",
    "material_model = sellmeier-blend", "material_model = glass", "# comment", "",
    "=", "key = value", "no equals sign",
)

GRAPH_LINES = (
    "[sample 1]", "[sample 2]", "[sample 3]", "[sample 0]", "[sample 01]", "[sample ²]",
    "[sample ١]", "[sample " + "9" * 5000 + "]", "[sample x]", "[sample]", "[samples 1]",
    "segment = LP01, a", "segment = LP11, b", "segment = LP02, a", "segment = LP01, fixed",
    "segment = LP10_1, c", "segment = LP²1, a", "segment = LP" + "1" * 5000 + "_1, a",
    "segment = LP01", "segment = LP01, 9bad", "segment = XX, a", "segment = LP1_0, a",
    "segment =", "other = 1", "# comment", "", "junk",
)


def texts(fragments):
    line = st.one_of(st.sampled_from(fragments), st.text(max_size=30))
    return st.tuples(st.lists(line, max_size=14), st.sampled_from(("\n", "\r\n"))).map(
        lambda parts: parts[1].join(parts[0]))


def sectioned(preamble, header, bodies):
    """Texts of preamble lines, then sections of one body each under header.format(N)."""
    parts = st.tuples(st.lists(st.sampled_from(preamble), max_size=2),
                      st.lists(st.sampled_from(bodies), min_size=1, max_size=3))
    return parts.map(lambda drawn: "\n".join(
        [*drawn[0], *(f"{header.format(n)}\n{body}" for n, body in enumerate(drawn[1], 1))]))


# Mostly well-formed files, so that the oracle tests compare parsed values too.
FORMED_PROFILES = sectioned(
    ("name = ring", "material_model = sellmeier-blend", "# comment"), "[layer]",
    ("radius_um = 3.0\ndelta_percent = 0.21", "delta_percent = 0.72\nradius_um = 10",
     "radius_um = 20\ndelta_percent = -0.1", "radius_um = 4"))
FORMED_GRAPHS = sectioned(
    ("# comment",), "[sample {}]",
    ("segment = LP02, a\nsegment = LP12, b", "segment = LP02, a\nsegment = LP12, c\n"
     "segment = LP01, d", "segment = LP21, fixed", "segment = LP01, a", ""))


def _check(parse, text, kind):
    try:
        value = parse(text, source="fuzz")
    except FileFormatError as exc:
        last = max(1, len(text.splitlines()))
        assert exc.diagnostics
        assert all(1 <= line <= last for line, _ in exc.diagnostics), exc.diagnostics
    else:
        assert isinstance(value, kind)


@settings(max_examples=300, deadline=None)
@given(texts(PROFILE_LINES))
def test_parse_profile_gives_a_profile_or_line_diagnostics(text):
    _check(parse_profile, text, FiberProfile)


@settings(max_examples=300, deadline=None)
@given(texts(GRAPH_LINES))
def test_parse_graph_gives_a_graph_or_line_diagnostics(text):
    _check(parse_graph, text, ConversionGraph)


def _outcome(parse, text):
    try:
        return parse(text, source="fuzz")
    except FileFormatError as exc:
        return exc.diagnostics


def _repeats_a_top_level_key(text):
    keys = []
    for _, kind, payload in oracles.iter_config_lines(text):
        if kind == "section" and payload == "layer":
            break
        if kind == "pair" and payload[0] in ("name", "material_model"):
            keys.append(payload[0])
    return len(keys) != len(set(keys))


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts(PROFILE_LINES), FORMED_PROFILES))
def test_parse_profile_matches_the_per_line_oracle(text):
    assume(not _repeats_a_top_level_key(text))  # the oracle silently overrides these
    assert _outcome(parse_profile, text) == _outcome(oracles.parse_profile_per_line, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts(GRAPH_LINES), FORMED_GRAPHS))
def test_parse_graph_matches_the_per_line_oracle(text):
    assert _outcome(parse_graph, text) == _outcome(oracles.parse_graph_per_line, text)


def test_graph_mode_label_that_int_rejects_is_a_diagnostic():
    label = "LP" + "1" * 5000 + "_1"
    with pytest.raises(FileFormatError) as excinfo:
        parse_graph(f"[sample 1]\nsegment = {label}, a\n", source="g.graph")
    assert excinfo.value.diagnostics == ((2, f"mode label must look like 'LP01', got '{label}'"),)


@pytest.mark.parametrize("number", ["²", "9" * 5000])
def test_graph_sample_number_that_int_rejects_is_a_diagnostic(number):
    with pytest.raises(FileFormatError) as excinfo:
        parse_graph(f"[sample {number}]\nsegment = LP01, fixed\n", source="g.graph")
    assert excinfo.value.diagnostics == ((1, f"expected [sample 1], got [sample {number}]"),)
