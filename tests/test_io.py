"""File-format round trips, parse errors, and code loading."""

import json
import random

import pytest

from qsticker.codes import exact_distance, hgp, repetition_check
from qsticker.gf2 import Gf2Matrix
from qsticker.io import (
    ParseError,
    desk_code,
    load_alist,
    load_check_matrix,
    load_code,
    load_dense_text,
    random_regular_ldpc,
    save_check_matrix,
)


def test_alist_round_trip_repetition(tmp_path):
    lam5 = repetition_check(5)
    path = str(tmp_path / "lam5.alist")
    save_check_matrix(lam5, path, "alist")
    assert load_check_matrix(path, "alist") == lam5


def test_alist_round_trip_hgp_hx(tmp_path):
    hx = hgp(repetition_check(3), repetition_check(3)).hx
    path = str(tmp_path / "hx.alist")
    save_check_matrix(hx, path, "alist")
    assert load_check_matrix(path, "alist") == hx


def test_dense_round_trip(tmp_path):
    m = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    path = str(tmp_path / "m.txt")
    save_check_matrix(m, path, "dense")
    assert load_check_matrix(path, "dense") == m


def test_dense_rejects_stray_characters(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("101\n1x1\n")
    with pytest.raises(ParseError) as exc:
        load_dense_text(str(path))
    assert ":2:2:" in str(exc.value)


def test_dense_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("101\n10\n")
    with pytest.raises(ParseError):
        load_dense_text(str(path))


def test_alist_rejects_inconsistent_degrees(tmp_path):
    path = tmp_path / "bad.alist"
    path.write_text("2 1\n1 2\n1 1\n1\n1 0\n2 0\n1 2\n")
    with pytest.raises(ParseError):
        load_alist(str(path))


def test_alist_rejects_row_degrees_that_disagree_with_the_columns(tmp_path):
    # the totals agree (1 + 3 = 2 + 2), so only the per-row check sees it
    path = tmp_path / "bad.alist"
    path.write_text("3 2\n2 2\n1 1 2\n1 3\n1\n2\n1 2\n1 3\n2 3\n")
    with pytest.raises(ParseError) as exc:
        load_alist(str(path))
    assert str(exc.value).endswith(":4:1: row 1 has 2 entries, degree says 1")


def test_alist_rejects_a_row_line_that_omits_a_column(tmp_path):
    path = tmp_path / "bad.alist"
    path.write_text("3 2\n2 2\n1 1 2\n2 2\n1\n2\n1 2\n1 0\n2 3\n")
    with pytest.raises(ParseError) as exc:
        load_alist(str(path))
    assert str(exc.value).endswith(
        ":8:1: row 1 lists columns [1], the column perspective has [1, 3]")
    path.write_text("3 2\n2 2\n1 1 2\n2 2\n1\n2\n1 2\n1 3 1\n2 3\n")
    with pytest.raises(ParseError) as exc:
        load_alist(str(path))
    assert str(exc.value).endswith(
        ":8:1: row 1 lists columns [1, 1, 3], the column perspective has [1, 3]")


def test_every_saved_alist_loads(tmp_path):
    # empty sides and all-zero matrices write blank lines, which used to
    # shift every later line
    rng = random.Random(5)
    mats = [Gf2Matrix.zeros(0, 0), Gf2Matrix.zeros(0, 5), Gf2Matrix.zeros(4, 0),
            Gf2Matrix.zeros(3, 4), Gf2Matrix([0b0101, 0b0001, 0b0100], 4)]
    mats += [Gf2Matrix([rng.getrandbits(cols) for _ in range(rows)], cols)
             for rows, cols in ((rng.randrange(8), rng.randrange(12))
                                for _ in range(60))]
    path = str(tmp_path / "m.alist")
    for m in mats:
        save_check_matrix(m, path, "alist")
        assert load_alist(path) == m


def test_regular_ldpc_is_regular_and_seeded():
    h1 = random_regular_ldpc(16, 3, 4, seed=5)
    h2 = random_regular_ldpc(16, 3, 4, seed=5)
    assert h1 == h2
    assert all(h1.col_weight(j) == 3 for j in range(16))
    assert all(h1.row_weight(i) == 4 for i in range(12))


def test_desk_code_shape():
    c = desk_code(7)
    assert c.n == 400
    assert 12 <= c.k <= 24


def test_load_code_builtins():
    c = load_code("hgp:3,3")
    assert (c.n, c.k, c.distance) == (13, 1, 3)
    d = load_code("desk:3")
    assert d.n == 400
    big = load_code("desk:7,28")
    assert (big.n, big.name) == (1225, "desk(seed=7,n1=28)")
    assert big.hx == desk_code(7, 28).hx


@pytest.mark.parametrize("spec", ["hgp:2,3", "hgp:3,2", "hgp:3,4",
                                  "hgp:4,3", "hgp:3,3"])
def test_load_code_hgp_distance_matches_exact_search(spec):
    c = load_code(spec)
    res = exact_distance(c)
    assert res.exact
    assert c.distance == res.value


def test_load_code_manifest(tmp_path):
    c = hgp(repetition_check(2), repetition_check(2))
    save_check_matrix(c.hx, str(tmp_path / "hx.alist"), "alist")
    save_check_matrix(c.hz, str(tmp_path / "hz.alist"), "alist")
    manifest = {"schema": 1, "name": "toy", "format": "alist",
                "hx_file": "hx.alist", "hz_file": "hz.alist", "distance": 2}
    mp = tmp_path / "code.json"
    mp.write_text(json.dumps(manifest))
    loaded = load_code(str(mp))
    assert loaded.hx == c.hx and loaded.hz == c.hz
    assert loaded.distance == 2 and loaded.name == "toy"


def test_load_code_inline_manifest(tmp_path):
    manifest = {"hx": ["1111"], "hz": []}
    mp = tmp_path / "inline.json"
    mp.write_text(json.dumps(manifest))
    loaded = load_code(str(mp))
    assert loaded.n == 4 and loaded.k == 3


def test_load_code_takes_an_empty_hx_width_from_hz(tmp_path):
    # an empty H_X reads its width off H_Z, whether inline or from a file
    save_check_matrix(Gf2Matrix.from_rows([[1, 1]]), str(tmp_path / "hz.alist"), "alist")
    for hz in ({"hz": ["11"]}, {"hz_file": "hz.alist"}):
        mp = tmp_path / "empty_hx.json"
        mp.write_text(json.dumps({"hx": [], **hz}))
        loaded = load_code(str(mp))
        assert (loaded.n, loaded.k, loaded.hx.rows, loaded.hz.rows) == (2, 1, 0, 1)


# (manifest, the end of the message that refuses it, naming the key)
_ROWS = "must be a list of 0/1 strings of one length"
MALFORMED_MANIFESTS = [
    ({"hx": 5, "hz": []}, f"manifest 'hx' {_ROWS}"),
    ({"hx": [5], "hz": []}, f"manifest 'hx' {_ROWS}"),
    ({"hx": ["12"], "hz": []}, f"manifest 'hx' {_ROWS}"),
    ({"hx": ["11", "1"], "hz": []}, f"manifest 'hx' {_ROWS}"),
    ({"hx": ["11"], "hz": "11"}, f"manifest 'hz' {_ROWS}"),
    ({"hx_file": 3, "hz": []}, "manifest 'hx_file' must be a path string"),
    ({"hx": ["11"], "hz_file": ["hz.alist"]},
     "manifest 'hz_file' must be a path string"),
    ({"hx": ["11"], "hz": [], "distance": "x"},
     "manifest 'distance' must be a positive integer or null, got 'x'"),
    ({"hx": ["11"], "hz": [], "distance": 2.5},
     "manifest 'distance' must be a positive integer or null, got 2.5"),
    ({"hx": ["11"], "hz": [], "distance": True},
     "manifest 'distance' must be a positive integer or null, got True"),
    ({"hx": ["11"], "hz": [], "distance": 0},
     "manifest 'distance' must be a positive integer or null, got 0"),
    ({"hx": ["11"], "hz": ["111"]}, "manifest hx has 2 columns but hz has 3"),
    (["11"], "is not a JSON object"),
    ({"hx": [], "hz": []},
     "manifest 'hx' and 'hz' are both empty, so neither gives the code's width"),
]


@pytest.mark.parametrize("manifest, message", MALFORMED_MANIFESTS)
def test_load_code_refuses_a_malformed_manifest(tmp_path, manifest, message):
    mp = tmp_path / "bad.json"
    mp.write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as exc:
        load_code(str(mp))
    assert str(exc.value).endswith(message)


def test_load_code_takes_a_null_distance(tmp_path):
    mp = tmp_path / "toy.json"
    mp.write_text(json.dumps({"hx": ["11"], "hz": [], "distance": None}))
    assert load_code(str(mp)).distance is None


def test_load_code_unknown_spec():
    with pytest.raises(ValueError):
        load_code("nonexistent-spec")


def test_alist_errors_name_the_files_own_line_numbers(tmp_path):
    # blank lines are skipped on read, but a message names the line as the
    # file numbers it: two blank lines first put the first row line at 10
    path = tmp_path / "m.alist"
    save_check_matrix(repetition_check(3), str(path), "alist")
    lines = ["", "", *path.read_text().splitlines()]
    assert lines[9] == "1 2"
    lines[9] = "1 x"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_alist(str(path))
    assert exc.value.line == 10
    assert str(exc.value).endswith(":10:3: expected integers, got 'x'")
    # a blank line inside the file shifts every later number too
    lines = path.read_text().splitlines()
    lines[9] = "1 2"
    lines.insert(5, "")
    lines[11] = "1 3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_alist(str(path))
    assert str(exc.value).endswith(
        ":12:1: row 2 lists columns [1, 3], the column perspective has [2, 3]")
