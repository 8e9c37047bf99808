import csv
import io
import json
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import elastishape
from elastishape import fileio
from elastishape.errors import ConfigError, InputError, ParseError
from elastishape.fileio import (
    MODEL_MAGIC,
    SURFACE_MAGIC,
    export_obj,
    id_column,
    load_json_object,
    load_model,
    load_surface,
    numeric_columns,
    read_csv,
    read_numeric_table,
    save_model,
    save_surface,
    write_csv,
    write_matrix_csv,
)
from elastishape.grids import make_grid
from elastishape.shape_stats import ShapeModel
from elastishape.synthetic import gen_surface


@pytest.fixture
def surface(grid16):
    return gen_surface("bumpy-sphere", grid16, amplitude=0.2, degree=2, seed=5)


def test_surface_json_round_trip(surface, tmp_path):
    path = tmp_path / "f.json"
    save_surface(surface, path)
    loaded = load_surface(path)
    assert loaded.grid.same_dims(surface.grid)
    assert_allclose(loaded.points, surface.points, atol=1e-15)


def test_surface_binary_round_trip_is_exact(surface, tmp_path):
    path = tmp_path / "f.surf"
    save_surface(surface, path)
    loaded = load_surface(path)
    assert np.array_equal(loaded.points, surface.points)


def test_format_sniffing_ignores_extension(surface, tmp_path):
    # The writer picks the format by suffix; the reader by content alone.
    for name, magic in (("f.surf", True), ("noext", True), ("f.json", False),
                        ("F.JSON", False)):
        written = tmp_path / name
        save_surface(surface, written)
        assert (written.read_bytes()[:8] == SURFACE_MAGIC) == magic, name
        renamed = written.rename(tmp_path / f"moved_{name}.bin")
        assert_allclose(load_surface(renamed).points, surface.points, atol=1e-15)


def test_missing_field_names_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_v": 16, "points": []}')
    with pytest.raises(ParseError, match="n_u"):
        load_surface(path)


def test_wrong_point_count_names_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_u": 16, "n_v": 16, "points": [1.0, 2.0]}')
    with pytest.raises(ParseError, match="points"):
        load_surface(path)


def test_invalid_json_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_surface(path)


def test_truncated_binary_is_a_parse_error(surface, tmp_path):
    path = tmp_path / "f.surf"
    save_surface(surface, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(ParseError):
        load_surface(path)


def test_model_round_trip(surface, tmp_path):
    rng = np.random.default_rng(3)
    k, dim = 4, surface.points.size
    directions = np.linalg.qr(rng.standard_normal((dim, k)))[0].T
    model = ShapeModel(
        mean=surface,
        directions=directions,
        singulars=np.array([2.0, 1.0, 0.5, 0.1]),
        n_train=9,
    )
    path = tmp_path / "m.eshm"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.mean.points, model.mean.points)
    assert np.array_equal(loaded.directions, model.directions)
    assert np.array_equal(loaded.singulars, model.singulars)
    assert loaded.n_train == 9


def test_obj_export_counts(tmp_path):
    grid = make_grid(8, 8)
    f = gen_surface("sphere", grid)
    path = tmp_path / "f.obj"
    export_obj(f, path)
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 64
    # two triangles per quad with azimuthal wrap, plus a fan per pole ring
    assert len(f_lines) == 2 * 8 * (8 - 1) + 2 * (8 - 2)
    for line in f_lines:
        ids = [int(tok) for tok in line.split()[1:]]
        assert len(ids) == 3
        assert all(1 <= i <= 64 for i in ids)


def test_matrix_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    mat = np.arange(12.0).reshape(3, 4) / 7.0
    write_matrix_csv(path, mat, ["a", "b", "c", "d"])
    table = read_csv(path)
    assert table.header == ["a", "b", "c", "d"]
    assert_allclose(np.column_stack(numeric_columns(table, range(4))), mat, atol=1e-15)


def _model_file(path, head, payload_values=0):
    header = json.dumps(head).encode()
    payload = np.zeros(payload_values).astype("<f8").tobytes()
    path.write_bytes(MODEL_MAGIC + struct.pack("<I", len(header)) + header + payload)


@pytest.mark.parametrize(
    "field, value, message",
    [("n_u", "8", "n_u"), ("n_directions", -1, "n_directions"),
     ("n_train", -2, "n_train"), ("n_v", 2.5, "n_v")],
)
def test_model_header_fields_must_be_nonnegative_integers(tmp_path, field, value, message):
    head = {"n_u": 8, "n_v": 8, "n_train": 3, "n_directions": 0, field: value}
    path = tmp_path / "m.eshm"
    _model_file(path, head, 3 * 64)
    with pytest.raises(ParseError, match=message):
        load_model(path)


def test_model_header_must_be_an_object(tmp_path):
    path = tmp_path / "m.eshm"
    _model_file(path, [8, 8])
    with pytest.raises(ParseError, match="object"):
        load_model(path)
    path.write_bytes(MODEL_MAGIC + b"\x01")
    with pytest.raises(ParseError, match="truncated"):
        load_model(path)


def test_undersized_grids_are_parse_errors(tmp_path):
    model = tmp_path / "m.eshm"
    _model_file(model, {"n_u": 4, "n_v": 4, "n_train": 1, "n_directions": 0}, 3 * 16)
    with pytest.raises(ParseError, match="below minimum"):
        load_model(model)
    surf = tmp_path / "f.json"
    surf.write_text(json.dumps({"n_u": 4, "n_v": 8, "points": [0.0] * 96}))
    with pytest.raises(ParseError, match="below minimum"):
        load_surface(surf)
    binary = tmp_path / "f.surf"
    binary.write_bytes(SURFACE_MAGIC + struct.pack("<II", 8, 4) + bytes(8 * 96))
    with pytest.raises(ParseError, match="below minimum"):
        load_surface(binary)


def test_json_object_loader(tmp_path):
    path = tmp_path / "cfg.json"
    with pytest.raises(ConfigError, match="not found"):
        load_json_object(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_json_object(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_json_object(path)
    path.write_text('{"a": [1, 2]}')
    assert load_json_object(path) == {"a": [1, 2]}
    # JSON has no NaN or Infinity, and 1e400 overflows to one.
    for text in ('{"a": NaN}', '{"b": {"a": -Infinity}}', '{"a": [1, 1e400]}'):
        path.write_text(text)
        with pytest.raises(ConfigError, match="key 'a': not a finite number"):
            load_json_object(path)


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["ps(shape,1)", 0.1, np.float32(0.5), np.float64(1 / 3), 7, "+"]]
    write_csv(path, ["term", "a", "b", "c", "n", "sign"], rows)
    assert path.read_bytes() == (
        b"term,a,b,c,n,sign\n"
        b'"ps(shape,1)",0.10000000000000001,0.5,0.33333333333333331,7,+\n'
    )
    table = read_csv(path)
    assert table.rows == [["ps(shape,1)", "0.10000000000000001", "0.5",
                           "0.33333333333333331", "7", "+"]]
    assert float(table.rows[0][3]) == 1 / 3


def test_write_csv_rejects_a_ragged_row_before_writing(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="row 2"):
        write_csv(path, ["a", "b"], [[1, 2], [3]])
    assert not path.exists()


def test_read_csv_takes_crlf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"id,x\r\ns0,1.5\r\ns1,2\r\n")
    table = read_csv(path)
    assert table.header == ["id", "x"]
    assert table.rows == [["s0", "1.5"], ["s1", "2"]]
    assert id_column(table, 0) == ["s0", "s1"]
    (x,) = numeric_columns(table, [1])
    assert x.tolist() == [1.5, 2.0] and x.flags.c_contiguous


@pytest.mark.parametrize(
    "text, message",
    [("", "empty CSV"),
     ("a,b\n", "no data rows"),
     ("a,b\n1,2\n3\n", "line 3 has 1 fields, expected 2"),
     ("a,b\n1,2,3\n", "line 2 has 3 fields, expected 2")],
)
def test_read_csv_shape_errors(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        read_csv(path)
    assert str(path) in str(exc.value)


def test_numeric_columns_name_the_first_bad_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,x,y\ns0,1,2\ns1,3,inf\ns2,abc,4\n")
    table = read_csv(path)
    with pytest.raises(ParseError, match="line 3, field 'y': not finite \\('inf'\\)"):
        numeric_columns(table, [1, 2])
    with pytest.raises(ParseError, match="line 4, field 'x': not numeric \\('abc'\\)"):
        numeric_columns(table, [1])


def test_id_column_names_a_repeated_id_and_both_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,x\ns0,1\ns1,2\ns0,3\n")
    with pytest.raises(ParseError, match="repeated id 's0' on lines 2 and 4"):
        id_column(read_csv(path), 0)


def test_csv_and_json_parsing_live_only_in_fileio():
    package = Path(elastishape.__file__).parent
    for source in sorted(package.glob("*.py")):
        if source.name == "fileio.py":
            continue
        text = source.read_text()
        for word in ("import csv", "json.loads", "loadtxt", "genfromtxt", "fromstring"):
            assert word not in text, (source.name, word)


def _score_columns(header):
    """As `regress` reads a score table: an optional leading id column."""
    first = 1 if header[0].strip().lower() == "id" else 0
    if len(header) == first:
        raise InputError("no score columns")
    return (0 if first else None), range(first, len(header))


def _python_path(path, columns):
    """The reference: one `float` per cell, as `read_numeric_table` falls back to."""
    table = read_csv(path)
    id_index, value_index = columns(table.header)
    values = np.column_stack(numeric_columns(table, value_index))
    return (None if id_index is None else id_column(table, id_index)), values


def _outcome(read, path):
    try:
        ids, values = read(path, _score_columns)
    except InputError as exc:
        return type(exc), str(exc)
    return ids, values.shape, values.dtype, values.tobytes()


def _number_text(x, form):
    if form == "fixed":  # 5., .25, -.25
        text = f"{x:.4f}".rstrip("0")
        short = text.lstrip("-").startswith("0.") and not text.endswith(".")
        return text.replace("0.", ".", 1) if short else text
    return {"17g": f"{x:.17g}", "repr": repr(x), "exp": f"{x:.6E}"}[form]


@st.composite
def tables(draw):
    """A well-formed table as (file bytes, its rows): an id column, then
    numbers in the forms `write_csv` and spreadsheets write."""
    n_rows, n_values = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(" ab1,\"'é", max_size=4), min_size=n_rows,
                        max_size=n_rows, unique=True))
    number = st.builds(_number_text, st.floats(-1e6, 1e6, allow_subnormal=True),
                       st.sampled_from(["17g", "repr", "exp", "fixed"]))
    rows = [[sid, *draw(st.lists(number, min_size=n_values, max_size=n_values))]
            for sid in ids]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    fh = io.StringIO()
    fh.write(",".join(["id", *(f"z{k}" for k in range(1, n_values + 1))]) + ending)
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(fh, lineterminator=ending, quoting=quoting).writerows(rows)
    text = fh.getvalue()
    if draw(st.booleans()):
        text = text[: -len(ending)]  # no line end after the last row
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode(), rows


@given(table=tables())
def test_numpy_reads_a_well_formed_table_as_the_python_path_does(tmp_path_factory, table):
    raw, rows = table
    path = tmp_path_factory.getbasetemp() / "well_formed.csv"
    path.write_bytes(raw)
    expected = _outcome(_python_path, path)
    assert expected[0] == [row[0] for row in rows]
    with mock.patch.object(fileio, "read_csv", side_effect=AssertionError("fell back")):
        assert _outcome(read_numeric_table, path) == expected


def _irregular(rows, how):
    """The text of a table of `rows` under one header, made irregular as
    `how` says."""
    header = ["id", *(f"z{k}" for k in range(1, len(rows[0])))]
    rows = [list(row) for row in rows]
    if how == "short row":
        rows[0].pop()
    elif how == "long row":
        rows[0].append("1")
    elif how == "repeated id":
        rows.append(rows[0])
    elif how == "missing id column":
        header[0] = "x"
    elif how == "id column only":
        header, rows = ["id"], [row[:1] for row in rows]
    elif how == "quoted line break":
        rows[0][0] += "\nb"
    elif how not in ("blank line", "bare CR"):
        rows[0][-1] = how
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    head, body = fh.getvalue().split("\n", 1)
    if how == "blank line":
        body = "\n" + body
    elif how == "bare CR":
        body = body.replace("\n", "\r", 1)
    return f"{head}\n{body}"


@pytest.mark.parametrize("how", [
    "blank line", "short row", "long row", "repeated id", "missing id column",
    "id column only", "quoted line break", "bare CR",
    "nan", "inf", "-inf", "1e400", "1_0", "abc", "", " ", "\x1c1", "1\x00", "\u0661",
])
@given(table=tables())
def test_an_irregular_table_gives_the_python_paths_values_or_error(tmp_path_factory,
                                                                    how, table):
    _, rows = table
    path = tmp_path_factory.getbasetemp() / "irregular.csv"
    path.write_text(_irregular(rows, how), encoding="utf-8", newline="")
    assert _outcome(read_numeric_table, path) == _outcome(_python_path, path)


@given(head=st.sampled_from(["", "id,z1\n", "id,z1,z2\r\n", "\ufeffz1\n"]),
       text=st.text('id,"\r\n 1.5e-_x\x1c\x00', max_size=40))
def test_any_text_gives_the_python_paths_values_or_error(tmp_path_factory, head, text):
    path = tmp_path_factory.getbasetemp() / "any.csv"
    path.write_text(head + text, encoding="utf-8", newline="")
    assert _outcome(read_numeric_table, path) == _outcome(_python_path, path)


def test_read_numeric_table_falls_back_for_float_only_forms(tmp_path):
    # numpy refuses these; `float` takes them, so the values come back
    path = tmp_path / "t.csv"
    path.write_text("id,x\ns0,1_0\ns1,\u0661.5\n", encoding="utf-8")
    ids, values = read_numeric_table(path, _score_columns)
    assert ids == ["s0", "s1"] and values.tolist() == [[10.0], [1.5]]


def test_a_file_of_blank_lines_is_an_empty_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n\r\n")
    with pytest.raises(ParseError, match="empty CSV"):
        read_numeric_table(path, _score_columns)
