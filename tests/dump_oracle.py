"""The orbit-dump readers and writer the column path replaced, kept as its references.

``write_records_dump`` and ``read_records_dump`` are the record-based pair;
``read_lines_dump`` is the per-line column reader that one ``np.loadtxt``
parse replaced.
"""

import math

import numpy as np

from friedzeta import OrbitDump, OrbitRecord, ValidationError
from friedzeta.errors import ascii_line
from friedzeta.toral import ORBIT_DUMP_HEADER


def write_records_dump(path, records):
    """Write ``#fried-orbits v1`` from a list of :class:`OrbitRecord`, one record per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(ORBIT_DUMP_HEADER + "\n")
        for r in sorted(records, key=lambda x: (x.period, x.num1, x.num2)):
            exps = " ".join(str(e) for e in r.class_exps)
            fh.write(
                f"{r.period} {r.num1} {r.num2} {r.den} {r.length!r} {r.epsilon} {r.winding}"
                + (f" {exps}" if exps else "")
                + "\n"
            )


def read_records_dump(path):
    """Read a ``#fried-orbits v1`` file into :class:`OrbitRecord` rows with ``nan`` eigenvalues."""
    records = []
    with open(path, "rb") as fh:
        header = ascii_line(path, 1, fh.readline()).strip()
        if header != ORBIT_DUMP_HEADER:
            raise ValidationError(f"bad orbit dump header: {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = ascii_line(path, lineno, raw).strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) < 7:
                    raise ValidationError("an orbit line needs period, base point, length, epsilon, winding")
                period, n1, n2, den = (int(x) for x in parts[:4])
                length = float(parts[4])
                if not (math.isfinite(length) and length > 0):
                    raise ValidationError(f"length must be positive and finite, got {parts[4]!r}")
                eps, winding = int(parts[5]), int(parts[6])
                exps = tuple(int(x) for x in parts[7:])
                if records and len(exps) != len(records[0].class_exps):
                    first = len(records[0].class_exps)
                    raise ValidationError(f"{len(exps)} class exponents where the first orbit line has {first}")
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            records.append(OrbitRecord(period, n1, n2, den, length, eps, math.nan, math.nan, 0, exps, winding))
    return records


def read_lines_dump(path):
    """Read a ``#fried-orbits v1`` file into :class:`OrbitDump` columns, one line at a time.

    The per-line column reader, with one check added after it was replaced:
    a period or denominator below 1 is refused.  The later narrowing of the
    format (no ``_`` in a number, no control byte) is not here, so it accepts
    those lines.
    """
    ints, lengths, width = [], [], None
    with open(path, "rb") as fh:
        header = ascii_line(path, 1, fh.readline()).strip()
        if header != ORBIT_DUMP_HEADER:
            raise ValidationError(f"bad orbit dump header: {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = ascii_line(path, lineno, raw).strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) < 7:
                    raise ValidationError("an orbit line needs period, base point, length, epsilon, winding")
                row = [int(x) for x in parts[:4]]  # period, base point, denominator
                length = float(parts[4])
                if not (math.isfinite(length) and length > 0):
                    raise ValidationError(f"length must be positive and finite, got {parts[4]!r}")
                row += [int(x) for x in parts[5:]]  # epsilon, winding, class exponents
                if width is not None and len(row) != width:
                    raise ValidationError(
                        f"{len(row) - 6} class exponents where the first orbit line has {width - 6}")
                if max(map(abs, row)) >= 1 << 63:
                    raise ValidationError("integer field exceeds 64 bits")
                if row[4] not in (-1, 1):
                    raise ValidationError(f"epsilon must be -1 or 1, got {row[4]}")
                if row[5] != row[0]:
                    raise ValidationError(f"winding {row[5]} differs from the period {row[0]}")
                if row[0] < 1 or row[3] < 1:  # added
                    raise ValidationError(f"period and denominator must be at least 1, got {row[0]} and {row[3]}")
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            width = len(row)
            ints.append(row)
            lengths.append(length)
    ints = np.array(ints, dtype=np.int64).reshape(len(lengths), width or 6)
    return OrbitDump(*ints[:, :4].T, np.array(lengths), *ints[:, 4:6].T, ints[:, 6:])
