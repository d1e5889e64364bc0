import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domcount
from domcount import cli, engine, signatures
from domcount.analysis import gamma_closed_form
from domcount.engine import GraphSpec, domination_polynomial, run_sweep
from domcount.errors import VerificationError
from domcount.rings import Polynomial, Ring
from domcount.signatures import (all_covered, closed_form_count,
                                 count_signatures, enumerate_signatures,
                                 reflect)


def run(argv, capsys):
    """Exit code, stdout and stderr of one CLI call; argparse exits with
    SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text(capsys):
    code, out, _ = run(["poly", "--family", "grid", "-m", "2", "-n", "2"], capsys)
    assert code == 0
    assert out == "6z^2 + 4z^3 + z^4\n"


def test_poly_json(capsys):
    code, out, _ = run(["poly", "--family", "grid", "-m", "2", "-n", "2",
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"minDegree": 2, "coefficients": ["6", "4", "1"]}


def test_poly_csv(capsys):
    code, out, _ = run(["poly", "--family", "king", "-m", "2", "-n", "2",
                        "--format", "csv"], capsys)
    assert code == 0
    assert out == "degree,coefficient\n1,4\n2,6\n3,4\n4,1\n"


def test_poly_mod(capsys):
    code, out, _ = run(["poly", "--family", "grid", "-m", "3", "-n", "3",
                        "--mod", "7", "--format", "json"], capsys)
    assert code == 0
    exact = domination_polynomial(GraphSpec("grid", 3, 3))
    got = json.loads(out)
    assert got["minDegree"] == 3
    reduced = domination_polynomial(GraphSpec("grid", 3, 3), ring=Ring(7))
    assert [int(c) for c in got["coefficients"]] == \
        list(reduced.coefficients[reduced.min_degree():])
    assert int(got["coefficients"][0]) == exact.coefficient(3) % 7


# a row checkpoint is the state map after that row, and no unreduced value
# may reach one: after every row, the `--mod P` map is the exact map with
# each coefficient reduced mod P
@pytest.mark.parametrize("modulus", [7, 2147483647, 144115188075855859])
@pytest.mark.parametrize("family, m, n", [("grid", 3, 23), ("king", 4, 6)])
def test_mod_checkpoints_are_the_reduced_exact_checkpoints(family, m, n, modulus):
    ring = Ring(modulus)
    for rows in range(1, n + 1):
        spec = GraphSpec(family, m, rows)
        exact = run_sweep(spec, all_covered(m))
        reduced = {code: Polynomial.from_coefficients(poly.coefficients,
                                                      ring).trimmed()
                   for code, poly in exact.items()}
        assert run_sweep(spec, all_covered(m), ring=ring) == \
            {code: poly for code, poly in reduced.items()
             if any(poly.coefficients)}


def test_count(capsys):
    code, out, _ = run(["count", "--family", "grid", "-m", "3", "-n", "3"], capsys)
    assert code == 0
    assert out == "291\n"


def test_table_gamma_csv(cylinder_gamma, capsys):
    code, out, _ = run(["table", "gamma", "--family", "cylinder",
                        "--m-range", "1:3", "--n-range", "1:4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n/m,1,2,3"
    for row, n in zip(lines[1:], range(1, 5)):
        want = [str(n)] + [str(cylinder_gamma(m, n)) for m in (1, 2, 3)]
        assert row == ",".join(want)


def test_table_total_json(grid_totals, capsys):
    code, out, _ = run(["table", "total", "--family", "grid",
                        "--m-range", "1:2", "--n-range", "1:2",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "total"
    assert payload["m_values"] == [1, 2] and payload["n_values"] == [1, 2]
    assert payload["rows"][0][0] == "1"
    assert payload["rows"][1][1] == str(grid_totals[2])


def test_wide_short_tables_sweep_the_narrow_side(capsys):
    # width 18 would exceed the default state bound; width 1 is instant
    code, out, _ = run(["table", "gamma", "--family", "king",
                        "--m-range", "18", "--n-range", "1"], capsys)
    assert code == 0
    assert out == "n/m,18\n1,6\n"
    for kind in ("total", "ngamma"):
        code, wide, _ = run(["table", kind, "--family", "grid", "--m-range",
                             "1:6", "--n-range", "1:3", "--format", "json"], capsys)
        code2, tall, _ = run(["table", kind, "--family", "grid", "--m-range",
                              "1:3", "--n-range", "1:6", "--format", "json"], capsys)
        assert (code, code2) == (0, 0)
        wide, tall = json.loads(wide), json.loads(tall)
        assert (wide["m_values"], wide["n_values"]) == ([1, 2, 3, 4, 5, 6], [1, 2, 3])
        assert wide["rows"] == [list(col) for col in zip(*tall["rows"])]


def test_transposable_boards_check_the_narrow_side(capsys):
    # a transposable board is swept along its narrow side, so only that
    # side must be at most 40
    for family in ("grid", "king", "torus"):
        code, wide, _ = run(["count", "--family", family, "-m", "41", "-n",
                             "1"], capsys)
        code2, tall, _ = run(["count", "--family", family, "-m", "1", "-n",
                              "41"], capsys)
        assert (code, code2) == (0, 0) and wide == tall
    assert run(["count", "--family", "grid", "-m", "41", "-n", "1"],
               capsys)[1] == "56804250945\n"
    for family, m, n in (("grid", 41, 41), ("cylinder", 41, 3)):
        code, _, err = run(["count", "--family", family, "-m", str(m), "-n",
                            str(n)], capsys)
        assert code == 4 and "40" in err


def test_count_table_and_poly_load_neither_mpmath_nor_multiprocessing():
    # poly runs on the pool: the torus 6x6 at this budget is several blocks
    script = (
        "import sys\n"
        "from domcount import cli\n"
        "def loaded(names):\n"
        "    print('loaded', sorted(m for m in sys.modules if m in names\n"
        "                           or m.split('.')[0] in names))\n"
        "for argv in (['count', '--family', 'grid', '-m', '3', '-n', '3'],\n"
        "             ['table', 'ngamma', '--family', 'king', '--m-range', '1:3'],\n"
        "             ['poly', '--family', 'grid', '-m', '3', '-n', '3'],\n"
        "             ['poly', '--family', 'torus', '-m', '6', '-n', '6',\n"
        "              '--workers', '2', '--max-mem', '400000']):\n"
        "    assert cli.main(argv) == 0\n"
        "loaded(('mpmath', 'multiprocessing', 'concurrent', 'domcount.oracle',\n"
        "        'domcount.analysis'))\n"
        "assert cli.main(['growth', '--family', 'grid', '--m-range', '3:5',\n"
        "                 '--digits', '8', '--workers', '2']) == 0\n"
        "loaded(('mpmath', 'multiprocessing', 'concurrent'))\n")
    src = str(Path(domcount.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("loaded")] == ["loaded []", "loaded []"]
    assert "block 1/" in proc.stderr


def test_growth_json(capsys):
    code, out, _ = run(["growth", "--family", "grid", "--m-range", "3:5",
                        "--digits", "8", "--workers", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [s["m"] for s in payload["samples"]] == [3, 4, 5]
    assert 1.9 < float(payload["mu"]) < 2.0


def test_growth_text(capsys):
    code, out, _ = run(["growth", "--family", "grid", "--m-range", "3:5",
                        "--digits", "8", "--workers", "1",
                        "--format", "text"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("m=3 ")
    assert lines[-1].startswith("mu = ")


def test_growth_that_cannot_converge_exits_2(capsys):
    # on two workers the RuntimeError is raised in a pool worker and again,
    # with its type and message, in the parent
    for workers in ("1", "2"):
        code, _, err = run(["growth", "--family", "grid", "--m-range", "3:5",
                            "--digits", "13", "--n-cap", "4", "--workers",
                            workers], capsys)
        assert code == 2
        assert "aborted" in err and "did not stabilize" in err


def test_oeis_signature_counts(capsys):
    code, out, _ = run(["oeis", "A001333", "--limit", "5"], capsys)
    assert code == 0
    assert out == "1 3\n2 7\n3 17\n4 41\n5 99\n"
    code, out, _ = run(["oeis", "A078057", "--limit", "4"], capsys)
    assert code == 0
    assert out == "0 1\n1 3\n2 7\n3 17\n"


def test_oeis_grid_gamma_diagonal(appendix_poly, capsys):
    code, out, _ = run(["oeis", "A104519", "--limit", "5"], capsys)
    assert code == 0
    expected = []
    for n in range(1, 6):
        coeffs = appendix_poly("grid", n)
        expected.append(next(d for d, c in enumerate(coeffs) if c))
    assert out == "".join(f"{n} {v}\n" for n, v in enumerate(expected, start=1))


# the table cells each id lists, as its description names them: "n x n" is
# the diagonal, "antidiagonals" the cells (m, d - m) of d = 2, 3, ..., m
# ascending
_TABLE_SEQUENCES = {
    "A104519": ("gamma", "grid", "diagonal"),
    "A094087": ("gamma", "torus", "diagonal"),
    "A133515": ("total", "grid", "diagonal"),
    "A133791": ("total", "king", "diagonal"),
    "A303334": ("total", "torus", "diagonal"),
    "A286914": ("total", "cylinder", "diagonal"),
    "A218354": ("total", "grid", "antidiagonals"),
    "A218663": ("total", "king", "antidiagonals"),
    "A286514": ("total", "cylinder", "antidiagonals"),
    "A347632": ("ngamma", "grid", "diagonal"),
    "A347554": ("ngamma", "king", "diagonal"),
    "A347557": ("ngamma", "torus", "diagonal"),
    "A350820": ("ngamma", "grid", "antidiagonals"),
    "A350815": ("ngamma", "king", "antidiagonals"),
}


def _table_cells(kind, family, side, capsys):
    code, out, _ = run(["table", kind, "--family", family, "--m-range",
                        f"1:{side}", "--n-range", f"1:{side}", "--format",
                        "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    return lambda m, n: int(rows[n - 1][m - 1])


def _dihedral_classes(m):
    """Cyclic-valid rows of width m up to rotation and reflection, by brute
    force over all 3^m rows (0 uncovered, 1 covered, 2 occupied)."""
    classes = set()
    for row in itertools.product(range(3), repeat=m):
        if any({row[i], row[(i + 1) % m]} == {0, 2} for i in range(m)):
            continue
        turns = [row[k:] + row[:k] for k in range(m)]
        classes.add(min(turns + [t[::-1] for t in turns]))
    return len(classes)


def _oeis_terms(seq_id, limit, capsys):
    code, out, _ = run(["oeis", seq_id, "--limit", str(limit)], capsys)
    assert code == 0
    offset = cli.OEIS_REGISTRY[seq_id][0]
    lines = out.splitlines()
    assert [int(line.split()[0]) for line in lines] == \
        list(range(offset, offset + limit))
    return [int(line.split()[1]) for line in lines]


@pytest.mark.parametrize("seq_id", sorted(cli.OEIS_REGISTRY))
def test_oeis_terms_match_an_independent_reading(seq_id, capsys):
    description = cli.OEIS_REGISTRY[seq_id][2]
    if seq_id in _TABLE_SEQUENCES:
        kind, family, shape = _TABLE_SEQUENCES[seq_id]
        assert family in description
        assert ("antidiagonals" in description) == (shape == "antidiagonals")
        if shape == "diagonal":
            limit, cells = 6, [(n, n) for n in range(1, 7)]
        else:
            limit = 15  # the antidiagonals m + n = 2..6
            cells = [(m, d - m) for d in range(2, 7) for m in range(1, d)]
        side = max(max(cell) for cell in cells)
        value = _table_cells(kind, family, side, capsys)
        want = [value(m, n) for m, n in cells]
    elif seq_id == "A075561":
        assert "king" in description
        limit = 21  # the antidiagonals m + n = 2..7
        want = [gamma_closed_form("king", m, d - m)
                for d in range(2, 8) for m in range(1, d)]
    else:
        limit = 8
        widths = range(limit) if seq_id == "A078057" else range(1, limit + 1)
        want = {
            "A001333": lambda m: closed_form_count(m),
            "A078057": lambda m: closed_form_count(m),
            "A124696": lambda m: closed_form_count(m, "cyclic"),
            "A030270": lambda m: len({min(s.code, reflect(s).code)
                                      for s in enumerate_signatures(m)}),
            "A208716": _dihedral_classes,
        }[seq_id]
        want = [want(m) for m in widths]
        if seq_id in ("A001333", "A078057"):
            assert want == [count_signatures(m) for m in widths]
    assert _oeis_terms(seq_id, limit, capsys) == want


def test_dihedral_classes_are_counted_without_enumerating(monkeypatch,
                                                          capsys):
    # 45 terms, past the widest signature a code holds: the classes are
    # counted, never enumerated
    def refused(*args, **kwargs):
        raise AssertionError("signatures enumerated")

    monkeypatch.setattr(signatures, "signature_codes", refused)
    terms = _oeis_terms("A208716", 45, capsys)
    assert terms[:7] == [3, 5, 7, 12, 18, 34, 56]


def _record_widths(monkeypatch, widest):
    """Record the (family, width) of every engine sweep, refusing any
    wider than `widest`."""
    swept = []
    series = engine._series

    def recorded(family, m, *args, **kwargs):
        assert m <= widest, f"swept {family} at width {m}"
        swept.append((family, m))
        return series(family, m, *args, **kwargs)

    monkeypatch.setattr(engine, "_series", recorded)
    return swept


def test_antidiagonals_sweep_each_cell_along_its_narrow_side(monkeypatch,
                                                            capsys):
    # the cells m + n <= 10 are at most 5 wide along their narrow side
    swept = _record_widths(monkeypatch, 5)
    assert len(_oeis_terms("A218354", 45, capsys)) == 45
    assert max(m for _, m in swept) == 5
    # the cells m + n <= 20 end in the 19 x 1 grid, swept at width 1
    monkeypatch.undo()
    _record_widths(monkeypatch, 10)
    assert _oeis_terms("A218354", 190, capsys)[-1] == 85525


def test_oeis_unknown_id(capsys):
    code, _, err = run(["oeis", "A000001"], capsys)
    assert code == 4
    assert "unknown sequence" in err


def test_verify_small(capsys):
    code, out, _ = run(["verify", "--max-cells", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "ok oracle grid 1x1" in lines
    assert lines[-1].endswith("checks passed")
    assert not any(line.startswith("FAIL") for line in lines)


def test_verify_reports_an_oracle_mismatch(monkeypatch, capsys):
    # the oracle's grid 2x2, 6z^2 + 4z^3 + z^4, with z^3 changed to 5
    from domcount import oracle
    brute_force = oracle.brute_force_polynomial

    def changed(spec, cell_guard):
        poly = brute_force(spec, cell_guard=cell_guard)
        if (spec.family, spec.m, spec.n) == ("grid", 2, 2):
            poly = Polynomial.from_coefficients([0, 0, 6, 5, 1])
        return poly

    monkeypatch.setattr(oracle, "brute_force_polynomial", changed)
    code, out, err = run(["verify", "--max-cells", "4"], capsys)
    assert code == 3
    lines = out.splitlines()
    assert "FAIL oracle grid 2x2: got z^3 coefficient 4, want 5" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed"
    assert "oracle grid 2x2: got z^3 coefficient 4, want 5" in err


def test_verification_error_maps_to_exit_3(monkeypatch, capsys):
    def boom(args):
        raise VerificationError("forced mismatch")

    monkeypatch.setattr(cli, "cmd_verify", boom)
    code, _, err = run(["verify"], capsys)
    assert code == 3
    assert "mismatch" in err


def test_argument_errors_exit_4(capsys):
    for argv in (
        [],
        ["poly", "--family", "moebius", "-m", "2", "-n", "2"],
        ["poly", "--family", "grid", "-m", "2", "-n", "2", "--mod", "7", "--crt"],
        ["count", "--family", "grid", "-m", "3", "-n", "3", "--workers", "2"],
        ["table", "total", "--family", "grid", "--workers", "2"],
        ["poly", "--family", "grid", "-m", "2", "-n", "3", "--checkpoint-dir",
         "rows"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 4
        capsys.readouterr()


def test_bad_values_exit_4(capsys):
    # each message names the value at fault
    for argv, name in (
        (["poly", "--family", "grid", "-m", "0", "-n", "2"], "-m"),
        (["growth", "--family", "grid", "--m-range", "3:5", "--digits", "15",
          "--workers", "1"], "digits"),
        (["table", "ngamma", "--family", "grid", "--m-range", "two:3"],
         "--m-range"),
        (["table", "ngamma", "--family", "grid", "--m-range", "5:3"],
         "--m-range"),
        (["table", "total", "--family", "cylinder", "--m-range", "2",
          "--n-range", "0"], "--n-range"),
        (["table", "gamma", "--family", "grid", "--m-range", "0:5",
          "--n-range", "1:2"], "--m-range"),
        (["table", "gamma", "--family", "grid", "--m-range=-1:2"],
         "--m-range"),
        (["poly", "--family", "torus", "-m", "3", "-n", "3", "--workers",
          "-1"], "--workers"),
        (["growth", "--family", "grid", "--m-range", "3:5", "--digits", "8",
          "--workers", "-2"], "--workers"),
        (["poly", "--family", "grid", "-m", "3", "-n", "3", "--max-states",
          "-5"], "--max-states"),
        (["poly", "--family", "grid", "-m", "3", "-n", "3", "--max-mem", "0"],
         "--max-mem"),
        (["count", "--family", "grid", "-m", "3", "-n", "3", "--max-mem",
          "-1"], "--max-mem"),
        (["growth", "--family", "grid", "--m-range", "3:5", "--n-cap", "-1",
          "--workers", "1"], "--n-cap"),
        (["oeis", "A001333", "--limit", "-3"], "--limit"),
        (["oeis", "A001333", "--limit", "0"], "--limit"),
        (["verify", "--max-cells", "-3"], "--max-cells"),
        (["verify", "--max-cells", "25"], "--max-cells"),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (4, ""), argv
        assert "error" in err and name in err, (argv, err)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_memory_env_exits_4(monkeypatch, capsys, value):
    # every subcommand, those that sweep nothing under a guard included
    monkeypatch.setenv("DOMCOUNT_MAX_MEM", value)
    for argv in (["poly", "--family", "grid", "-m", "3", "-n", "3"],
                 ["count", "--family", "grid", "-m", "3", "-n", "3"],
                 ["table", "total", "--family", "grid", "--m-range", "1:2"],
                 ["growth", "--family", "grid", "--m-range", "3:5",
                  "--workers", "1"],
                 ["oeis", "A001333", "--limit", "3"],
                 ["verify", "--max-cells", "2"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (4, ""), argv
        assert "DOMCOUNT_MAX_MEM" in err


def test_guard_exits_2(capsys):
    code, _, err = run(["poly", "--family", "grid", "-m", "12", "-n", "12",
                        "--max-states", "10"], capsys)
    assert code == 2
    assert "guard" in err


def test_memory_env_override(monkeypatch, capsys):
    # growth and oeis have no --max-mem, but their sweeps honour the variable
    monkeypatch.setenv("DOMCOUNT_MAX_MEM", "1000")
    for argv in (["poly", "--family", "grid", "-m", "8", "-n", "8"],
                 ["growth", "--family", "grid", "--m-range", "3:5",
                  "--workers", "1"],
                 ["oeis", "A133515", "--limit", "6"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "guard" in err and "max_memory_bytes" in err, (argv, err)


def test_progress_goes_to_stderr(capsys):
    for family in ("grid", "torus"):
        code, out, err = run(["poly", "--family", family, "-m", "2", "-n",
                              "200", "--workers", "1"], capsys)
        assert code == 0
        assert err.splitlines()[-1] == "row 200/200"
        assert len(err.splitlines()) == 200
        assert "row" not in out


def test_split_sweeps_report_blocks_at_any_size(capsys):
    # 100 cells: too few for row progress, but a sweep in two lane blocks
    # reports each block
    argv = ["poly", "--family", "grid", "-m", "10", "-n", "10"]
    code, whole, err = run(argv, capsys)
    assert code == 0 and err == ""
    code, out, err = run(argv + ["--max-mem", "20000000", "--workers", "1"],
                         capsys)
    assert code == 0 and out == whole
    assert err.splitlines() == ["block 1/2", "block 2/2"]


def test_output_is_deterministic(capsys):
    argv = ["poly", "--family", "torus", "-m", "3", "-n", "4", "--format", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


@pytest.mark.parametrize("modulus", [2305843009213693951, 2**70])
def test_poly_rejects_moduli_past_the_admissible_range(modulus, capsys):
    code, out, err = run(["poly", "--family", "grid", "-m", "7", "-n", "10",
                          "--mod", str(modulus)], capsys)
    assert code == 4
    assert out == ""
    assert "admissible" in err
