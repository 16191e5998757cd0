"""The reader of the two input tables: series energies and lifetimes."""

import csv
import math


def finite(name, value):
    """value as a float; ValueError naming the field if it is not a number
    or is nan or inf."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError("%s must be a number, got %r" % (name, value)) \
            from None
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return value


def read_rows(source, kind, columns, record):
    """(line, record(first, second, third)) for each data row of a CSV
    table; columns names its header.

    source is a path or an open stream. The header must start with the
    two required columns; the third is optional. Lines starting with '#'
    and blank rows are skipped. Each cell is read as a finite float, and
    the third is None where the header or the row lacks it; line is the
    row's physical line, comments counted. ValueError is raised for a
    missing or wrong header and for a file with no rows; for a one-cell
    row, a cell that is not a finite number (named by its column) and a
    ValueError from record, it names the line.
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
            try:
                values = [None if cell is None else finite(name, cell)
                          for name, cell in zip(columns, (*row[:2], third))]
                rows.append((number, record(*values)))
            except ValueError as exc:
                raise ValueError("%s file line %d: %s" % (kind, number, exc)) \
                    from None
        if not rows:
            raise ValueError("%s file has no data rows" % kind)
        return rows
    finally:
        if stream is not source:
            stream.close()
