"""File formats: surface JSON/binary, OBJ export, PCA model files, CSV
tables and JSON configs.

Surface files store raw grid samples (no triangulation); a triangulation
exists only in the OBJ export.  The binary variants use a 16-byte
magic+dims header followed by little-endian float64 payloads, and all
round trips are bit exact.  A grid below 8x8, a header field that is
missing, non-integer or negative, or a stored number that is not finite
raises `ParseError` naming the file and the field.

A table is CSV: a header row, then one record per LF-ended line, fields
quoted only where needed (a term such as ``ps(shape,1)`` holds a comma),
floats as ``%.17g`` and other values as ``str``, written as UTF-8.  The
reader also takes CRLF and a leading UTF-8 byte order mark, as
spreadsheet programs write one.  It raises `ParseError` naming the file
and line for an empty file, no data rows, a row whose field count
differs from the header's, a repeated id, and a required number that is
``not numeric`` or ``not finite`` (``line N, field 'X': not finite
('nan')``).

`read_numeric_table` reads a table of ids and numbers, as `regress`
takes them, in one `np.loadtxt` pass over every column: numpy's C
parser gives the numbers, and a converter collects the ids.  It keeps
that result only when it is what the Python path gives: the header line
has no quote or bare CR, the text has no ASCII separator (0x1c-0x1f,
which numpy strips as whitespace where `float` refuses them), every
column parses, one row comes from each line after the header (numpy
skips blank lines and would join a quoted line break), the row width is
the header's, every selected number is finite and no id repeats.
Otherwise the Python path (`read_csv`, then `numeric_columns` and
`id_column`: one `float` per cell) reads the table again, and gives the
same values (``1_0`` is 10 to `float` but not to numpy) or the
`ParseError` above.

A JSON config is one UTF-8 object with known keys, with or without a
byte order mark; a missing file, invalid JSON, another top-level value
or an unknown key raises `ConfigError`, as does a number that is not
finite (NaN, Infinity, 1e400); the error names the key that holds it.

The CSV and JSON readers load no geometry: `grids` and `shape_stats`
are imported by the surface and model readers that build their types.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, InputError, ParseError

if TYPE_CHECKING:
    from .grids import Surface
    from .shape_stats import ShapeModel

SURFACE_MAGIC = b"ESHSURF1"
MODEL_MAGIC = b"ESHMODL1"

__all__ = [
    "CsvTable",
    "load_surface",
    "save_surface",
    "export_obj",
    "save_model",
    "load_model",
    "load_json_object",
    "check_keys",
    "write_csv",
    "write_matrix_csv",
    "read_csv",
    "numeric_columns",
    "id_column",
    "read_numeric_table",
]


# What the JSON reader makes of a number that is not finite: NaN and
# Infinity, which json reads by default but JSON does not have, or 1e400.
_NOT_FINITE = object()


def _finite_float(text: str):
    value = float(text)
    return value if math.isfinite(value) else _NOT_FINITE


def _checked_pairs(pairs) -> dict:
    for key, value in pairs:
        if value is _NOT_FINITE or isinstance(value, list) and _NOT_FINITE in value:
            raise ValueError(f"key '{key}': not a finite number")
    return dict(pairs)


def _json_object(data, origin, error) -> dict:
    """The top-level object of a JSON text; `error` if there is none."""
    try:
        doc = json.loads(data, parse_float=_finite_float, parse_constant=_finite_float,
                         object_pairs_hook=_checked_pairs)
    except ValueError as exc:  # also a decode error or a number that is not finite
        raise error(f"{origin}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{origin}: top level must be a JSON object")
    return doc


def load_json_object(path) -> dict:
    """The top-level object of a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except IsADirectoryError as exc:
        raise ConfigError(f"config path is a directory: {path}") from exc
    return _json_object(text, path, ConfigError)


def check_keys(doc: dict, allowed, where) -> None:
    """ConfigError naming the keys of a config object not in `allowed`."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys: {', '.join(unknown)}")


def _int_fields(doc: dict, keys, origin) -> list:
    """The named header fields, each a required nonnegative integer."""
    values = []
    for key in keys:
        if key not in doc:
            raise ParseError(f"{origin}: missing required field '{key}'")
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError(f"{origin}: field '{key}' must be a nonnegative integer")
        values.append(value)
    return values


def _finite(values: np.ndarray, origin, name) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ParseError(f"{origin}: field '{name}' holds non-finite values")
    return values


def _surface_from_fields(n_u, n_v, flat: np.ndarray, origin, name="points") -> Surface:
    from .grids import Surface, make_grid

    expected = 3 * n_u * n_v
    if flat.size != expected:
        raise ParseError(
            f"{origin}: field '{name}' has {flat.size} values, "
            f"expected 3*n_u*n_v = {expected}"
        )
    _finite(flat, origin, name)
    try:
        grid = make_grid(n_u, n_v)
    except ValueError as exc:
        raise ParseError(f"{origin}: {exc}") from exc
    return Surface(grid=grid, points=flat.reshape(n_v, n_u, 3))


def _load_surface_json(path: Path, raw: bytes) -> Surface:
    doc = _json_object(raw, path, ParseError)
    n_u, n_v = _int_fields(doc, ("n_u", "n_v"), path)
    if "points" not in doc:
        raise ParseError(f"{path}: missing required field 'points'")
    try:
        flat = np.asarray(doc["points"], dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: field 'points' is not a flat numeric array") from exc
    return _surface_from_fields(n_u, n_v, flat, path)


def _load_surface_binary(path: Path, raw: bytes) -> Surface:
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated header")
    n_u, n_v = struct.unpack("<II", raw[8:16])
    expected = 16 + 8 * 3 * n_u * n_v
    if len(raw) != expected:
        raise ParseError(
            f"{path}: payload has {len(raw) - 16} bytes, "
            f"expected {expected - 16} for field 'points'"
        )
    flat = np.frombuffer(raw[16:], dtype="<f8").astype(float)
    return _surface_from_fields(n_u, n_v, flat, path)


def load_surface(path) -> Surface:
    """Load a surface from JSON or the binary variant (sniffed by magic)."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] == SURFACE_MAGIC:
        return _load_surface_binary(path, raw)
    return _load_surface_json(path, raw)


def save_surface(f: Surface, path) -> None:
    """Write a surface: JSON if the path ends in .json, else binary."""
    path = Path(path)
    if path.suffix.lower() != ".json":
        header = SURFACE_MAGIC + struct.pack("<II", f.grid.n_u, f.grid.n_v)
        payload = np.ascontiguousarray(f.flat(), dtype="<f8").tobytes()
        path.write_bytes(header + payload)
    else:
        doc = {
            "n_u": f.grid.n_u,
            "n_v": f.grid.n_v,
            "points": [float(x) for x in f.flat()],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def export_obj(f: Surface, path) -> None:
    """Quad-triangulated OBJ of the surface grid.

    Writes the n_u * n_v grid vertices in row-major order (polar rows
    outer), two triangles per grid quad with periodic wrap in azimuth,
    and a triangle fan over each boundary ring to close the poles.
    """
    n_u, n_v = f.grid.n_u, f.grid.n_v
    lines = []
    for row in f.points.reshape(-1, 3):
        lines.append(f"v {row[0]:.17g} {row[1]:.17g} {row[2]:.17g}")

    def vid(j, i):
        return j * n_u + i + 1

    for j in range(n_v - 1):
        for i in range(n_u):
            i2 = (i + 1) % n_u
            lines.append(f"f {vid(j, i)} {vid(j + 1, i)} {vid(j + 1, i2)}")
            lines.append(f"f {vid(j, i)} {vid(j + 1, i2)} {vid(j, i2)}")
    for i in range(1, n_u - 1):
        lines.append(f"f {vid(0, 0)} {vid(0, i + 1)} {vid(0, i)}")
    for i in range(1, n_u - 1):
        lines.append(f"f {vid(n_v - 1, 0)} {vid(n_v - 1, i)} {vid(n_v - 1, i + 1)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_model(model: ShapeModel, path) -> None:
    """Single-file model: JSON header, then mean / singulars / directions."""
    header = json.dumps(
        {
            "n_u": model.mean.grid.n_u,
            "n_v": model.mean.grid.n_v,
            "n_train": model.n_train,
            "n_directions": model.n_directions,
        }
    ).encode()
    parts = [
        MODEL_MAGIC,
        struct.pack("<I", len(header)),
        header,
        np.ascontiguousarray(model.mean.flat(), dtype="<f8").tobytes(),
        np.ascontiguousarray(model.singulars, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.directions, dtype="<f8").tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> ShapeModel:
    from .shape_stats import ShapeModel

    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != MODEL_MAGIC:
        raise ParseError(f"{path}: not a shape model file (bad magic)")
    if len(raw) < 12:
        raise ParseError(f"{path}: truncated header")
    (header_len,) = struct.unpack("<I", raw[8:12])
    head = _json_object(raw[12 : 12 + header_len], f"{path}: model header", ParseError)
    n_u, n_v, n_train, n_dirs = _int_fields(
        head, ("n_u", "n_v", "n_train", "n_directions"), path
    )
    flat_len = 3 * n_u * n_v
    need = 12 + header_len + 8 * (flat_len + n_dirs + n_dirs * flat_len)
    if len(raw) != need:
        raise ParseError(f"{path}: model payload size mismatch")
    body = np.frombuffer(raw[12 + header_len :], dtype="<f8").astype(float)
    mean = _surface_from_fields(n_u, n_v, body[:flat_len], path, "mean")
    singulars = _finite(body[flat_len : flat_len + n_dirs], path, "singulars")
    directions = _finite(body[flat_len + n_dirs :], path, "directions")
    directions = directions.reshape(n_dirs, flat_len)
    return ShapeModel(
        mean=mean, directions=directions, singulars=singulars, n_train=n_train
    )


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write a table: the header row, then one record per row.  A row
    whose length differs from the header's raises ValueError before
    anything is written."""
    records = [[_cell(x) for x in row] for row in rows]
    for i, record in enumerate(records, start=1):
        if len(record) != len(header):
            raise ValueError(f"{path}: row {i} has {len(record)} fields for {len(header)} columns")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def write_matrix_csv(path, matrix: np.ndarray, header: list) -> None:
    """A numeric matrix as a table with the given header row."""
    write_csv(path, header, np.atleast_2d(np.asarray(matrix, dtype=float)).tolist())


@dataclass(frozen=True)
class CsvTable:
    """A table as read: its header, and its data rows as lists of strings;
    data row i is line i + 2 of the file."""

    path: Path
    header: list
    rows: list


def read_csv(path) -> CsvTable:
    """Read a table and check its shape (errors: see the module docstring)."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            records = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not a readable CSV table ({exc})") from exc
    if not any(records):  # no line, or blank lines only
        raise ParseError(f"{path}: empty CSV")
    header, rows = records[0], records[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {line} has {len(row)} fields, expected {len(header)}"
            )
    return CsvTable(path=path, header=header, rows=rows)


def numeric_columns(table: CsvTable, index) -> list:
    """The columns at the given positions as contiguous float arrays;
    ParseError names the first cell, in file order, that is not a finite
    number."""
    columns = [[] for _ in index]
    for line, row in enumerate(table.rows, start=2):
        for column, j in zip(columns, index):
            try:
                value = float(row[j])
                problem = None if math.isfinite(value) else "not finite"
            except ValueError:
                problem = "not numeric"
            if problem:
                raise ParseError(
                    f"{table.path}: line {line}, field '{table.header[j]}': "
                    f"{problem} ({row[j]!r})"
                )
            column.append(value)
    return [np.array(column) for column in columns]


def id_column(table: CsvTable, j: int) -> list:
    """The ids in column j; ParseError names a repeated id and both of its
    lines."""
    line_of = {}
    for line, row in enumerate(table.rows, start=2):
        if row[j] in line_of:
            raise ParseError(
                f"{table.path}: repeated {table.header[j]} '{row[j]}' on lines "
                f"{line_of[row[j]]} and {line}"
            )
        line_of[row[j]] = line
    return list(line_of)


# The ASCII separators, which numpy's number parser strips as whitespace
# and `float` refuses: the one input numpy takes and `float` does not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _numpy_table(path: Path, columns: Callable):
    """numpy's parse of the table as `read_numeric_table` returns it, or
    None where a check fails (see the module docstring)."""
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    head, _, body = text.partition("\n")
    head = head.removesuffix("\r")
    if not head or '"' in head or "\r" in head or not body or body.isspace() \
            or any(c in text for c in _SEPARATORS):
        return None
    header = head.split(",")
    try:
        id_index, value_index = columns(header)
    except InputError:  # the Python path reports a malformed row first
        return None
    ids = []

    def take(field: str) -> float:
        ids.append(field)
        return 0.0

    try:
        matrix = np.loadtxt(
            io.StringIO(body), delimiter=",", quotechar='"', comments=None, ndmin=2,
            converters=None if id_index is None else {id_index: take},
        )
    except ValueError:
        return None
    if matrix.shape != (body.count("\n") + (not body.endswith("\n")), len(header)):
        return None
    values = matrix[:, value_index]
    if not np.isfinite(values).all() or len(set(ids)) < len(ids):
        return None
    return (None if id_index is None else ids), values


def read_numeric_table(path, columns: Callable):
    """The ids and numbers of a table: (ids or None, float matrix).

    `columns(header)` returns the index of the id column (None if the
    table has none) and the indices of the value columns, whose numbers
    are the matrix's columns in that order; it raises `InputError` for a
    header it rejects.  numpy parses the table where it gives the same
    result as the Python path, which reads it otherwise (see the module
    docstring).
    """
    path = Path(path)
    parsed = _numpy_table(path, columns)
    if parsed is not None:
        return parsed
    table = read_csv(path)
    id_index, value_index = columns(table.header)
    values = np.column_stack(numeric_columns(table, value_index))
    return (None if id_index is None else id_column(table, id_index)), values
