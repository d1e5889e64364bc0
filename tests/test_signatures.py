import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from domcount.signatures import (
    CellState,
    Signature,
    all_covered,
    closed_form_count,
    count_signatures,
    decode,
    dihedral_orbits,
    encode,
    enumerate_signatures,
    is_valid,
    reflect,
    signature_codes,
)

cell_lists = st.lists(st.sampled_from(list(CellState)), min_size=1, max_size=12)


@given(cell_lists)
def test_encode_decode_round_trip(cells):
    assert decode(encode(cells), len(cells)) == tuple(cells)


def test_codes_are_little_endian_base_three():
    # leftmost cell is the least significant digit
    assert encode([CellState.OCCUPIED, CellState.UNCOVERED]) == 2
    assert encode([CellState.UNCOVERED, CellState.OCCUPIED]) == 6
    assert all_covered(4).code == (3**4 - 1) // 2


def test_text_round_trip():
    sig = Signature.from_text("xco")
    assert sig.cells == (CellState.OCCUPIED, CellState.COVERED, CellState.UNCOVERED)
    assert sig.to_text() == "xco"
    assert str(sig) == "xco"
    assert Signature.from_cells(sig.cells) == sig


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        Signature.from_text("xya")
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(41, 0)
    with pytest.raises(ValueError):
        Signature(2, 9)
    with pytest.raises(ValueError):
        decode(3, 1)


def test_adjacency_rule():
    assert not is_valid(Signature.from_text("ox"))
    assert not is_valid(Signature.from_text("xo"))
    assert is_valid(Signature.from_text("oc"))
    assert is_valid(Signature.from_text("xx"))
    assert is_valid(Signature.from_text("cxxco"))


def test_cyclic_validity_checks_the_wrap_pair():
    sig = Signature.from_text("xco")
    assert is_valid(sig)
    assert not is_valid(sig, cyclic=True)
    assert is_valid(Signature.from_text("xcc"), cyclic=True)
    # width 1 has no wrap pair
    assert is_valid(Signature.from_text("o"), cyclic=True)


def test_kink_suspends_one_adjacency():
    sig = Signature.from_text("ox")
    assert is_valid(sig, kink=2)
    assert not is_valid(sig, kink=1)
    with pytest.raises(ValueError):
        is_valid(sig, kink=3)


@pytest.mark.parametrize("m", range(1, 11))
def test_enumeration_matches_recurrences(m):
    assert len(enumerate_signatures(m)) == count_signatures(m)
    assert len(enumerate_signatures(m, cyclic=True)) == count_signatures(m, "cyclic")


def test_first_count_values():
    assert [count_signatures(m) for m in range(1, 6)] == [3, 7, 17, 41, 99]
    assert [count_signatures(m, "cyclic") for m in range(1, 6)] == [3, 7, 15, 35, 83]
    assert count_signatures(0) == 1


@pytest.mark.parametrize("m", range(1, 7))
def test_kinked_counts_match_enumeration(m):
    for c in range(1, m + 1):
        found = sum(
            is_valid(Signature(m, code), kink=c) for code in range(3**m)
        )
        assert found == count_signatures(m, "kinked", c=c)


def test_kinked_count_spot_value():
    assert count_signatures(3, "kinked", c=2) == 21


def test_kink_at_column_one_is_plain():
    for m in range(1, 9):
        assert count_signatures(m, "kinked", c=1) == count_signatures(m)


def test_kinked_requires_column():
    with pytest.raises(ValueError):
        count_signatures(4, "kinked")
    with pytest.raises(ValueError):
        count_signatures(4, "kinked", c=5)


@pytest.mark.parametrize("m", range(1, 9))
def test_reflection_reduced_counts_orbits(m):
    reps = {min(s.code, reflect(s).code) for s in enumerate_signatures(m)}
    assert len(reps) == count_signatures(m, "reflection_reduced")


def test_reflection_reduced_spot_value():
    assert count_signatures(3, "reflection_reduced") == 12


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        count_signatures(3, "bogus")
    with pytest.raises(ValueError):
        count_signatures(-1)


def test_closed_forms_match_recurrences():
    for m in range(0, 26):
        assert closed_form_count(m) == count_signatures(m)
        assert closed_form_count(m, "cyclic") == count_signatures(m, "cyclic")
    with pytest.raises(ValueError):
        closed_form_count(3, "kinked")


@pytest.mark.parametrize("cyclic", (False, True))
def test_signature_codes_sorted_and_valid(cyclic):
    for m in range(1, 9):
        codes = signature_codes(m, cyclic=cyclic)
        assert codes.dtype == np.int64
        assert np.all(np.diff(codes) > 0)
        assert all(is_valid(Signature(m, int(c)), cyclic=cyclic) for c in codes)


def test_all_covered():
    assert all_covered(4).to_text() == "cccc"


@given(st.integers(1, 8), st.data())
def test_reflect_preserves_validity(m, data):
    codes = [int(c) for c in signature_codes(m)]
    sig = Signature(m, data.draw(st.sampled_from(codes)))
    assert is_valid(reflect(sig))
    assert reflect(reflect(sig)) == sig


def test_dihedral_orbit_counts():
    assert [len(dihedral_orbits(m)) for m in range(1, 8)] == [3, 5, 7, 12, 18, 34, 56]


def test_dihedral_count_by_burnside_matches_the_orbits():
    for m in range(1, 13):
        assert count_signatures(m, "dihedral") == len(dihedral_orbits(m))
    with pytest.raises(ValueError):
        count_signatures(0, "dihedral")


@pytest.mark.parametrize("m", range(1, 9))
def test_dihedral_orbits_partition_the_cyclic_signatures(m):
    orbits = dihedral_orbits(m)
    assert sum(size for _, size in orbits) == count_signatures(m, "cyclic")
    reps = [rep for rep, _ in orbits]
    assert reps == sorted(reps)
    for rep, _ in orbits:
        assert is_valid(Signature(m, rep), cyclic=True)


@pytest.mark.parametrize("m", range(1, 10))
def test_dihedral_orbits_match_the_orbit_definition(m):
    def orbit(code):  # every rotation of the cells and of their mirror image
        cells = decode(code, m)
        turns = [cells[k:] + cells[:k] for k in range(m)]
        return {encode(c) for t in turns for c in (t, t[::-1])}

    want, seen = [], set()
    for code in signature_codes(m, cyclic=True).tolist():
        if code not in seen:
            members = orbit(code)
            seen |= members
            want.append((min(members), len(members)))
    assert dihedral_orbits(m) == sorted(want)
