"""Shared text-file helpers: diagnostics, config-line parsing, atomic writes."""

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


def iter_config_lines(text):
    """Yield (line_number, kind, payload) from a key=value / [section] file.

    kind is 'section' (payload: section name), 'pair' (payload: (key, value))
    or 'error' (payload: message).  Blank lines and '#' comments are skipped.
    """
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            yield number, "section", line[1:-1].strip()
        elif "=" in line:
            key, _, value = line.partition("=")
            yield number, "pair", (key.strip(), value.strip())
        else:
            yield number, "error", f"expected 'key = value' or '[section]', got {line!r}"


def finite_float(text):
    """Parse a finite float; the ValueError message is a ready diagnostic."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got '{text}'") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{text}'")
    return value


def fmt_float(value):
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(value))


def um_from_nm(value_nm):
    """Convert nm to um picking the double whose nm image is exact.

    Keeps write(read(file)) byte-identical: among the doubles nearest to
    value_nm/1000, prefer one that multiplies back to value_nm exactly.
    """
    base = value_nm / 1000.0
    if base * 1000.0 == value_nm:
        return base
    for candidate in (math.nextafter(base, 0.0), math.nextafter(base, math.inf)):
        if candidate * 1000.0 == value_nm:
            return candidate
    return base


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
