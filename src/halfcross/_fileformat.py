"""The line-oriented ASCII v1 format shared by CODE and TILING files.

A file is a magic line (``TILING v1``), one ``key value`` line per header key
in a fixed order, then exactly as many rows of space-separated integers as
the last header key says.  Readers are strict: every key must be named,
the row count must match, and nothing may follow the last row.  Bodies are
written as whole non-negative integer arrays and parsed as one int64 array
wherever numpy reads them exactly as int() would, row by row otherwise.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

import numpy as np


#: the largest header value: numpy's largest array dimension (2^63 - 1 on 64-bit)
_LARGEST = int(np.iinfo(np.intp).max)


class FormatError(ValueError):
    """A v1 file failed to parse."""


def write(path: str | Path, magic: str, header: dict[str, int], rows: np.ndarray) -> None:
    """Write the magic line, the header in dict order, then one line per row of the
    non-negative integer array ``rows``, formatted at once."""
    head = "".join(f"{line}\n" for line in (magic, *(f"{k} {v}" for k, v in header.items())))
    Path(path).write_bytes(head.encode("ascii") + _format_array(rows))


def _format_array(rows: np.ndarray) -> bytes:
    """" ".join(map(str, row)) + "\n" for every row of a non-negative array, at once:
    right-aligned digit fields and separators, then one mask drops leading zeros."""
    width = len(str(rows.max())) if rows.size else 1
    field = np.full((*rows.shape, width + 1), ord(" "), dtype=np.uint8)
    field[:, -1, width] = ord("\n")
    for j in range(width):
        field[..., width - 1 - j] = rows // 10**j % 10 + ord("0")
    keep = np.ones(field.shape, dtype=bool)  # [..., :-2]: every digit but the last
    keep[..., :-2] = np.logical_or.accumulate(field[..., :-2] != ord("0"), axis=-1)
    return field[keep].tobytes()


def _parse_array(lines: list[str]) -> np.ndarray | None:
    """The lines as one int64 array, a row per line, parsed at once; None (parse row by
    row) where numpy and int() could disagree: blank lines, "1_0", past int64, ragged."""
    if not lines or not lines[0].strip():  # numpy warns on a body with no data
        return None
    try:
        rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if len(rows) == len(lines) else None


def read(
    path: str | Path,
    magic: str,
    keys: tuple[str, ...],
    error: type[FormatError],
    build: Callable,
):
    """Parse a v1 file and return ``build(*header_values, rows)``.

    The value of the last key in ``keys`` is the row count.  Rows are one
    int64 array wherever numpy parses the body exactly as int() would, and
    tuples of Python ints otherwise.  Every parse failure, non-ASCII input
    included, and every ValueError raised by ``build`` is raised as ``error``.
    """
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
        if lines[0] != magic:
            raise error(f"bad header {lines[0]!r}")
        values = []
        for i, key in enumerate(keys, start=1):
            name, _, value = lines[i].partition(" ")
            if name != key:
                raise error(f"line {i + 1}: expected {key!r}, got {lines[i]!r}")
            values.append(int(value))
            if values[-1] > _LARGEST:  # no array could have this many rows or columns
                raise error(f"line {i + 1}: {key} must be at most {_LARGEST}, got {value}")
        count = values[-1]
        if count < 0:
            raise error(f"{keys[-1]} must be >= 0, got {count}")
        body = lines[len(keys) + 1 :]
        if len(body) != count:
            raise error(f"expected {count} rows, got {len(body)}")
        rows = _parse_array(body)
        if rows is None:
            rows = tuple([tuple(map(int, line.split())) for line in body])
    except FormatError:
        raise
    except (IndexError, ValueError) as exc:
        raise error(f"malformed {magic} file {path}: {exc}") from exc
    try:
        return build(*values, rows)
    except ValueError as exc:
        raise error(str(exc)) from exc
