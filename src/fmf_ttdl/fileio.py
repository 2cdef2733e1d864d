"""Shared text-file helpers: diagnostics, section files, table files, atomic writes.

Each input syntax has one reader here; the parsers check only their own keys,
columns and values.  read_sections reads the profile and the graph: `[section]`
headers, `key = value` lines, `#` comments.  Every CSV file of the pipeline
(mode table, placements, grating positions, perturbation report, delay curve,
RF response) is a table file: one header line, one comma-separated line per
row and, for the placements and the perturbation report, a trailing block

    [summary]
    key,value
    <key>,<value>
    ...

which csv_text writes and read_csv reads back.

A range rule (positive, at_least(bound), span_rule, ...) returns what is wrong
with a value ("must be > 0, got -1.0") or None.  The library raises it through
check as ValueError("<name> must be ..."); the CLI reports "--<flag>: must be ...".
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path


class FileFormatError(ValueError):
    """An input file failed validation; carries (line, message) diagnostics."""

    def __init__(self, source, diagnostics):
        self.source = str(source)
        self.diagnostics = tuple(sorted(diagnostics))
        super().__init__(
            "\n".join(f"{self.source}:{line}: {message}" for line, message in self.diagnostics)
        )


def read_sections(text, opens):
    """Split a section file into (diagnostics, preamble, sections).

    Entries are stripped (line, key, value); each section is (header line, name,
    entries).  A line with neither '[...]' nor '=' is a diagnostic, and so is a
    header that opens(name) rejects: its entries stay in the section before it.
    """
    diagnostics, sections = [], [(0, "", [])]
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if opens(name):
                sections.append((number, name, []))
            else:
                diagnostics.append((number, f"unknown section '[{name}]'"))
        elif "=" in line:
            key, _, value = line.partition("=")
            sections[-1][2].append((number, key.strip(), value.strip()))
        else:
            diagnostics.append((number, f"expected 'key = value' or '[section]', got {line!r}"))
    return diagnostics, sections[0][2], sections[1:]


SUMMARY_SECTION = "[summary]"
SUMMARY_HEADER = "key,value"


def csv_text(header, rows, summary=None):
    """Table-file text: the header line, one line per row of formatted fields,
    then, if summary (key, formatted value) pairs are given, the summary block.
    """
    lines = [header, *(",".join(row) for row in rows)]
    if summary is not None:
        lines += [SUMMARY_SECTION, SUMMARY_HEADER, *(f"{key},{value}" for key, value in summary)]
    return "\n".join(lines) + "\n"


def read_csv(text, header, source):
    """Split a table file into (rows, summary), each a list of (line, fields).

    The first line must be header, or FileFormatError is raised.  Blank lines
    and the summary block's own header are skipped; fields are the stripped
    line split at every comma.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise FileFormatError(source, [(1, f"expected header '{header}'")])
    rows, summary = [], []
    section = rows
    for number, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if stripped == SUMMARY_SECTION:
            section = summary
        elif stripped and not (section is summary and stripped == SUMMARY_HEADER):
            section.append((number, stripped.split(",")))
    return rows, summary


def finite_float(text):
    """Parse a finite float; the ValueError message is a ready diagnostic."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got '{text}'") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{text}'")
    return value


def positive(value):
    return None if value > 0 else f"must be > 0, got {value}"


def at_least(bound):
    return lambda value: None if value >= bound else f"must be >= {bound}, got {value}"


non_negative = at_least(0)


MAX_GRID_POINTS = 1_000_000


def _grid_count(start, stop, step):
    """Points of start:stop:step up to stop within 1e-9 of a step; inf if that overflows."""
    cells = (stop - start) / step + 1e-9
    return math.floor(cells) + 1 if math.isfinite(cells) else math.inf


def order_rule(span):
    start, stop = span[:2]
    return f"stop {stop} precedes start {start}" if stop < start else None


def span_rule(span):
    start, stop, step = span
    if step <= 0.0:
        return f"step must be > 0, got {step}"
    if problem := order_rule(span):
        return problem
    too_many = _grid_count(start, stop, step) > MAX_GRID_POINTS
    return f"has more than {MAX_GRID_POINTS} points, got step {step}" if too_many else None


def check(name, rule, value):
    """Raise ValueError("<name> <problem>") if rule finds a problem with value."""
    if problem := rule(value):
        raise ValueError(f"{name} {problem}")


def grid_points(start, stop, step):
    """start, start + step, ... up to stop (within 1e-9 of a step)."""
    check("grid", span_rule, (start, stop, step))
    return [start + k * step for k in range(_grid_count(start, stop, step))]


def fmt_float(value):
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(value))


def um_from_nm(value_nm):
    """Convert nm to um so that write(read(file)) stays byte-identical.

    The doubles y with y * 1000 == value_nm fill an interval centred on
    value_nm / 1000, so the quotient is in it whenever any double is.
    """
    return value_nm / 1000.0


def atomic_write_text(path, text):
    """Write text via a same-directory temp file plus atomic rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
