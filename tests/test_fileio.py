import math

import pytest
from hypothesis import given, strategies as st
from oracles import um_from_nm_with_neighbours

from fmf_ttdl.design import PlacementSolution, parse_placements_csv, placements_to_csv
from fmf_ttdl.fileio import FileFormatError, csv_text, read_csv, read_sections, um_from_nm
from fmf_ttdl.modes import (
    ModeRecord,
    ModeTable,
    mode_table_to_csv,
    parse_mode_table_csv,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
wavelengths_um = st.floats(0.2, 10.0)
mode_labels = st.tuples(st.integers(0, 12), st.integers(1, 12))


@st.composite
def mode_tables(draw):
    labels = draw(st.lists(mode_labels, min_size=1, max_size=8, unique=True))
    count = len(labels)
    n_eff = sorted(draw(st.lists(finite, min_size=count, max_size=count, unique=True)),
                   reverse=True)
    lambda0_um = draw(wavelengths_um)
    return ModeTable(tuple(
        ModeRecord(l, m, n, lambda0_um, draw(finite), draw(finite))
        for (l, m), n in zip(labels, n_eff)
    ), lambda0_um)


@st.composite
def placements(draw):
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
                          min_size=1, max_size=8, unique=True))
    samples = draw(st.integers(1, 6))
    per_sample = st.lists(finite, min_size=samples, max_size=samples).map(tuple)
    return PlacementSolution(
        lengths={name: draw(st.floats(0.0, 1.0)) for name in names},
        tau_eq_ps_per_km=draw(per_sample),
        d_eq_ps_per_km_nm=draw(st.none() | per_sample),
        delta_tau_ps_per_km=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        delta_d_ps_per_km_nm=draw(st.none() | finite),
        lambda0_um=draw(wavelengths_um),
        reference_mode=draw(mode_labels),
    )


@given(mode_tables())
def test_mode_table_write_read_write_is_byte_identical(table):
    text = mode_table_to_csv(table)
    assert mode_table_to_csv(parse_mode_table_csv(text)) == text


@given(placements())
def test_placements_write_read_write_is_byte_identical(solution):
    text = placements_to_csv(solution)
    assert placements_to_csv(parse_placements_csv(text)) == text


powers_of_two = st.integers(-1074, 1023).map(lambda exponent: math.ldexp(1.0, exponent))
below_powers_of_two = powers_of_two.map(lambda power: math.nextafter(power, 0.0))


@given(st.floats(allow_nan=False) | powers_of_two | below_powers_of_two)
def test_um_from_nm_is_the_neighbour_search_without_the_search(value_nm):
    assert repr(um_from_nm(value_nm)) == repr(um_from_nm_with_neighbours(value_nm))


word = st.from_regex(r"[a-z0-9.]{1,5}", fullmatch=True)
blank_lines = st.lists(st.sampled_from(["", "  "]), max_size=2)
table_rows = st.lists(st.tuples(blank_lines, st.lists(word, min_size=1, max_size=4)), max_size=6)
summary_rows = st.lists(
    st.tuples(blank_lines, st.lists(word, min_size=2, max_size=2)).filter(
        lambda entry: entry[1] != ["key", "value"]
    ),
    max_size=6,
)


@given(table_rows, st.none() | summary_rows)
def test_read_csv_skips_blank_lines_and_numbers_lines_by_position(rows, summary):
    lines, want_rows, want_summary = ["a,b"], [], []

    def add(found, want):
        for blanks, row in found:
            lines.extend(blanks)
            lines.append(",".join(row))
            want.append((len(lines), row))

    add(rows, want_rows)
    if summary is not None:
        lines.extend(["[summary]", "key,value"])
        add(summary, want_summary)
    text = "\n".join(lines) + "\n"
    assert read_csv(text, "a,b", "t.csv") == (want_rows, want_summary)
    pairs = None if summary is None else [tuple(row) for _, row in summary]
    written = csv_text("a,b", [row for _, row in rows], pairs)
    assert written == "\n".join(line for line in lines if line.strip()) + "\n"


def test_read_csv_checks_the_header():
    with pytest.raises(FileFormatError) as excinfo:
        read_csv("a,c\n1,2\n", "a,b", "t.csv")
    assert str(excinfo.value) == "t.csv:1: expected header 'a,b'"
    with pytest.raises(FileFormatError):
        read_csv("", "a,b", "t.csv")


def test_read_sections_keeps_entries_of_a_rejected_header_with_the_section_before():
    text = "a = 1\n[skip]\nb=2\n\n# note\n[keep]\n c = 3 \n[skip]\nd =\njunk\n"
    diagnostics, preamble, sections = read_sections(text, lambda name: name == "keep")
    assert diagnostics == [(2, "unknown section '[skip]'"), (8, "unknown section '[skip]'"),
                           (10, "expected 'key = value' or '[section]', got 'junk'")]
    assert preamble == [(1, "a", "1"), (3, "b", "2")]
    assert sections == [(6, "keep", [(7, "c", "3"), (9, "d", "")])]
