"""The reader of the two input tables: series energies and lifetimes."""

import csv
import math


def finite(name, value):
    """value as a float; ValueError naming the field if it is nan or inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return value


def read_rows(source, kind, columns):
    """Cells of each data row of a CSV table; columns names its header.

    source is a path or an open stream. The header must start with the
    two required columns; the third is optional. Lines starting with '#'
    and blank rows are skipped. Each row comes back as three cells, the
    third None where the header or the row lacks it. ValueError is raised
    for a missing or wrong header, for a file with no rows, and for a
    one-cell row, which is named by its physical line, comments counted.
    """
    stream = source if hasattr(source, "read") else open(source, newline="")
    number = 0  # the physical line the reader has reached

    def uncommented():
        nonlocal number
        for number, line in enumerate(stream, 1):
            if not line.startswith("#"):
                yield line

    try:
        reader = csv.reader(uncommented())
        header = next(reader, None)
        if header is None:
            raise ValueError("empty %s file" % kind)
        header = [h.strip() for h in header]
        if header[:2] != list(columns[:2]):
            raise ValueError("expected header %s,%s[,%s], got %r"
                             % (*columns, ",".join(header)))
        has_third = header[2:3] == [columns[2]]
        rows = []
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) < 2:
                raise ValueError("%s file line %d has one cell, %r; "
                                 "expected %s,%s"
                                 % (kind, number, row[0], *columns[:2]))
            third = row[2] if has_third and len(row) > 2 else None
            rows.append((row[0], row[1], third))
        if not rows:
            raise ValueError("%s file has no data rows" % kind)
        return rows
    finally:
        if stream is not source:
            stream.close()
