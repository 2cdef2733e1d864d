"""Property tests of the profile and graph parsers, which have no writer.

Any text must parse to a value or raise FileFormatError whose diagnostics
point at lines of that text; no other exception may escape.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
