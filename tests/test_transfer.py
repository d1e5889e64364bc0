"""The row transfer matrix, read from the production engine.

One row swept from a full-row start sigma, ``run_sweep(GraphSpec(family,
m, 1), sigma)``, is column sigma of the row transfer matrix: entry
(tau, sigma) is z^(occupied cells of tau) when row tau may lie directly
below row sigma, and absent otherwise.  The engine's columns are checked
against the definition of compatible rows below, and the definition against
the bundled tables; the engine's single-column step, ``_column_images``, is
checked on the kinked windows a row passes through.
"""

import itertools

import numpy as np
import pytest

from domcount.engine import GraphSpec, _column_images, _compiled, run_sweep
from domcount.rings import Polynomial
from domcount.signatures import (
    CellState,
    Signature,
    enumerate_signatures,
    is_valid,
    signature_codes,
)

_UNC = CellState.UNCOVERED
_COV = CellState.COVERED
_OCC = CellState.OCCUPIED


def compatible(sigma: Signature, tau: Signature, cyclic: bool = False,
               reach: int = 0) -> bool:
    """Can row tau be placed directly below row sigma?

    The cells below sigma_i are tau_(i-reach..i+reach): reach 0 for grid
    and cylinder, 1 for the king.  Three conditions, checked per column i:
    an uncovered sigma cell needs an occupied cell below it (nothing else
    can ever reach it); an occupied sigma cell forbids an uncovered cell
    below it; a covered tau cell needs a justifier, i.e. an occupied sigma
    cell within the reach or a horizontally adjacent occupied cell in tau.
    Horizontal indices wrap when cyclic; otherwise boundary neighbors are
    simply ignored.
    """
    if sigma.width != tau.width:
        raise ValueError(f"width mismatch: {sigma.width} vs {tau.width}")
    s = sigma.cells
    t = tau.cells
    m = sigma.width

    def around(i, d):  # the columns within d of column i
        return {j % m for j in range(i - d, i + d + 1) if cyclic or 0 <= j < m}

    for i in range(m):
        below = {t[j] for j in around(i, reach)}
        if s[i] is _UNC and _OCC not in below:
            return False
        if s[i] is _OCC and _UNC in below:
            return False
        if t[i] is _COV and not (
                any(s[j] is _OCC for j in around(i, reach))
                or any(t[j] is _OCC for j in around(i, 1) - {i})):
            return False
    return True


def sig(text):
    return Signature.from_text(text)


def column(family, sigma):
    """Column sigma of the transfer matrix as the engine computes it."""
    return run_sweep(GraphSpec(family, sigma.width, 1), sigma)


def reference_column(sigma, cyclic, reach=0):
    """Column sigma of the transfer matrix by the definition."""
    return {tau.code: Polynomial.monomial(tau.cells.count(_OCC))
            for tau in enumerate_signatures(sigma.width, cyclic)
            if compatible(sigma, tau, cyclic, reach)}


def images(kernel, m, c, window):
    """The unoccupied image (None when illegal) and the occupied image of
    one window, in text form, under the engine's step at column c: a row
    of width m at c = m."""
    valid, plain, occ = _column_images(kernel, m, c, np.array([sig(window).code]))
    width = m if c == m else len(window)
    return (Signature(width, int(plain[0])).to_text() if valid[0] else None,
            Signature(width, int(occ[0])).to_text())


def test_compatible_basics():
    assert compatible(sig("oo"), sig("xx"))
    assert not compatible(sig("oo"), sig("cc"))
    assert compatible(sig("xc"), sig("co"))
    # the king reaches the diagonals: an uncovered cell is dominated from
    # below diagonally, and an occupied one covers the cells diagonally below
    assert compatible(sig("oc"), sig("cx"), reach=1)
    assert not compatible(sig("oc"), sig("cx"))
    assert compatible(sig("xc"), sig("cc"), reach=1)
    assert not compatible(sig("xc"), sig("cc"))
    assert not compatible(sig("xc"), sig("co"), reach=1)


def test_compatible_width_mismatch():
    with pytest.raises(ValueError):
        compatible(sig("o"), sig("oo"))


def test_compatible_wrap_justification():
    # the leading covered cell of ccx is only justified across the wrap
    assert compatible(sig("ccc"), sig("ccx"), cyclic=True)
    assert not compatible(sig("ccc"), sig("ccx"))


def assert_columns_match(family, m):
    """One row of the engine from each valid start of width m is that
    start's column of the matrix the definition gives."""
    cyclic, reach = family == "cylinder", int(family == "king")
    for sigma in enumerate_signatures(m, cyclic):
        assert column(family, sigma) == reference_column(sigma, cyclic, reach), \
            (family, sigma.to_text())


@pytest.mark.parametrize("m,cyclic", [(m, cyclic) for cyclic in (False, True)
                                      for m in range(1, 6)])
def test_sweep_equals_matrix_on_basis_vectors(m, cyclic):
    assert_columns_match("cylinder" if cyclic else "grid", m)


@pytest.mark.parametrize("m", range(1, 6))
def test_king_sweep_equals_matrix_on_basis_vectors(m):
    assert_columns_match("king", m)


def test_sweep_row_from_fully_covered():
    start = sig("cc")
    out = column("grid", start)
    named = {Signature(2, code).to_text(): poly.trimmed().coefficients
             for code, poly in out.items()}
    assert named == {"oo": (1,), "xc": (0, 1), "cx": (0, 1), "xx": (0, 0, 1)}
    assert out == reference_column(start, cyclic=False)


def test_width_one_matrix():
    o, c, x = sig("o"), sig("c"), sig("x")
    for family in ("grid", "cylinder"):
        assert column(family, o) == {x.code: Polynomial.monomial(1)}
        assert column(family, c) == {o.code: Polynomial.monomial(0),
                                     x.code: Polynomial.monomial(1)}
        assert column(family, x) == {c.code: Polynomial.monomial(0),
                                     x.code: Polynomial.monomial(1)}


def test_known_matrices_reproduced(transfer_tables):
    # the engine's columns meet the same tables in test_acceptance
    for key, cyclic in (("grid_m2", False), ("cylinder_m3", True)):
        table = transfer_tables[key]
        named = [sig(text) for text in table["signatures"]]
        assert sorted(s.code for s in named) == \
            signature_codes(named[0].width, cyclic).tolist()
        for si, sigma in enumerate(named):
            assert reference_column(sigma, cyclic) == \
                {tau.code: Polynomial.monomial(row[si])
                 for tau, row in zip(named, table["exponents"])
                 if row[si] is not None}, (key, sigma.to_text())


def test_matrix_spot_entries():
    assert column("grid", sig("oc"))[sig("xc").code] == Polynomial.monomial(1)
    xxx = sig("xxx").code
    for sigma in enumerate_signatures(3, cyclic=True):
        assert column("cylinder", sigma)[xxx] == Polynomial.monomial(3)


@pytest.mark.parametrize("m,cyclic", [(1, False), (2, False), (3, False),
                                      (2, True), (3, True), (4, True)])
def test_row_exponent_equals_occupied_count(m, cyclic):
    family = "cylinder" if cyclic else "grid"
    reached = {}
    for sigma in enumerate_signatures(m, cyclic):
        for code, poly in column(family, sigma).items():
            reached.setdefault(code, set()).add(poly)
    # every row is reached, always with the one monomial of its occupied cells
    assert reached == {tau.code: {Polynomial.monomial(tau.cells.count(_OCC))}
                       for tau in enumerate_signatures(m, cyclic)}


def test_fresh_row_extend_moves():
    assert images("grid", 2, 1, "cc") == ("oc", "xc")


def test_unoccupied_cell_covered_from_above():
    assert images("grid", 2, 1, "xc")[0] == "cc"


def test_departing_uncovered_cell_blocks_unoccupied_placement():
    """A mid-row window where the cell leaving the frontier is still
    uncovered: the new vertex is its last chance, so not occupying is
    illegal and occupying covers it on the way out."""
    assert images("grid", 8, 5, "cocxocxc") == (None, "cocxxcxc")


def test_cylinder_wrap_placement():
    # the last cell of a cylinder row covers, or is covered by, the first
    assert images("cylinder", 3, 3, "occ") == ("oco", "ccx")


def test_first_cell_pending_flag():
    """A cylinder row's first cell left uncovered stays so until the wrap
    placement at the last column, unless its right neighbor covers it."""
    plain, occupied = images("cylinder", 3, 1, "ccc")
    assert plain[0] == "o" and occupied[0] == "x"
    plain, occupied = images("cylinder", 3, 2, "occ")
    assert plain[0] == "o" and occupied == "cxc"


def test_king_window_has_an_extra_cell():
    # the king's columns step windows: a row enters behind a virtual Covered
    # north-west slot, code 3 * row + 1, and completes as a full row
    for m in range(1, 5):
        rows = signature_codes(m)
        assert _compiled("king", m)[0].tolist() == rows.tolist()
        codes = 3 * rows + 1
        for c in range(1, m + 1):
            valid, plain, occ = _column_images("king", m, c, codes)
            codes = np.unique(np.concatenate([plain[valid], occ]))
        assert set(codes.tolist()) <= set(rows.tolist())
    assert images("king", 2, 2, "cxc") == ("cc", "cx")


def test_king_occupied_cell_covers_diagonal_neighbors():
    # occupying column 1 upgrades the uncovered cell above column 2
    assert images("king", 3, 1, "ccoc")[1] == "xccc"


def test_extend_keeps_windows_kink_valid():
    """Every image of a window kink-valid at column c is kink-valid at
    c + 1, or a valid row (cyclic-valid for the cylinder) at c = m."""
    for family, m in itertools.product(("grid", "cylinder"), range(1, 7)):
        cyclic = family == "cylinder"
        windows = [Signature(m, code) for code in range(3 ** m)]
        for c in range(1, m + 1):
            codes = np.array([w.code for w in windows
                              if is_valid(w, cyclic=cyclic and c == 1, kink=c)])
            valid, plain, occ = _column_images(family, m, c, codes)
            for code in np.concatenate([plain[valid], occ]).tolist():
                image = Signature(m, code)
                assert (is_valid(image, cyclic=cyclic) if c == m
                        else is_valid(image, kink=c + 1)), (family, m, c, image)
