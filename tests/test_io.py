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


def test_load_code_unknown_spec():
    with pytest.raises(ValueError):
        load_code("nonexistent-spec")
