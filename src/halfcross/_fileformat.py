"""The line-oriented ASCII v1 format shared by CODE, TILING and LATTICE files.

A file is a magic line (``TILING v1``), one ``key value`` line per header key
in a fixed order, then exactly as many rows of space-separated integers as
the last header key says.  Readers are strict: every key must be named,
the row count must match, and nothing may follow the last row.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from pathlib import Path


class FormatError(ValueError):
    """A v1 file failed to parse."""


def write(
    path: str | Path, magic: str, header: dict[str, int], rows: Iterable[Sequence[int]]
) -> None:
    """Write the magic line, the header in dict order, then one line per row."""
    lines = [magic, *(f"{key} {value}" for key, value in header.items())]
    lines.extend(" ".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read(
    path: str | Path,
    magic: str,
    keys: tuple[str, ...],
    error: type[FormatError],
    build: Callable,
):
    """Parse a v1 file and return ``build(*header_values, rows)``.

    The value of the last key in ``keys`` is the row count.  Every parse
    failure, non-ASCII input included, and every ValueError raised by
    ``build`` is raised as ``error``.
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
        count = values[-1]
        if count < 0:
            raise error(f"{keys[-1]} must be >= 0, got {count}")
        body = lines[len(keys) + 1 :]
        if len(body) != count:
            raise error(f"expected {count} rows, got {len(body)}")
        rows = tuple([tuple(map(int, line.split())) for line in body])
    except FormatError:
        raise
    except (IndexError, ValueError) as exc:
        raise error(f"malformed {magic} file {path}: {exc}") from exc
    try:
        return build(*values, rows)
    except ValueError as exc:
        raise error(str(exc)) from exc
