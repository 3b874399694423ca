from __future__ import annotations

import random

import pytest

from posetpaths import build_young_poset, enumerate_numberings
from posetpaths.young import (
    GrowthPath,
    additions,
    check_partition,
    conjugate,
    row_insert,
    tableau_count,
)

from oracles import partitions_of, removals, tableau_count_recursive


def test_check_partition():
    assert check_partition((3, 2)) == (3, 2)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition((2, 3))
    with pytest.raises(ValueError):
        check_partition((1, 0))


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2, 1)) == (3, 2)
    assert conjugate(()) == ()


def test_known_tableau_counts():
    assert tableau_count(()) == 1
    assert tableau_count((1,)) == 1
    assert tableau_count((2, 1)) == 2
    assert tableau_count((3, 2)) == 5
    assert tableau_count((3, 3)) == 5
    assert tableau_count((2, 2, 1)) == 5
    assert tableau_count((4, 1)) == 4


def test_hook_route_matches_lattice_recursion():
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert tableau_count(lam) == tableau_count_recursive(lam), lam


def test_tableau_count_matches_full_numbering_enumeration():
    for lam in [(2, 1), (3, 1), (3, 2), (2, 2, 1), (4, 2, 1)]:
        w = build_young_poset(lam)
        assert tableau_count(lam) == len(enumerate_numberings(w, w.poset.n))


def test_tableau_count_invariant_under_conjugation():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert tableau_count(lam) == tableau_count(conjugate(lam))


def test_additions_and_removals_are_inverse():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for mu, cell in additions(lam):
                assert lam in removals(mu)
                r, c = cell
                assert mu[r - 1] == c


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_row_insert_bumping():
    rows = []
    positions = [row_insert(rows, x) for x in [2, 1, 1, 3, 2]]
    # 2 starts row 1; 1 bumps it; 1 appends; 3 appends; 2 bumps the 3
    assert positions == [(1, 1), (2, 1), (1, 2), (1, 3), (2, 2)]
    assert rows == [[1, 1, 2], [2, 3]]
    for row in rows:
        assert row == sorted(row)


def test_row_insert_rows_bounded_by_alphabet():
    rng = random.Random(11)
    rows = []
    for _ in range(400):
        row_insert(rows, rng.randrange(3))
    assert len(rows) <= 3
    for upper, lower in zip(rows, rows[1:]):
        assert len(upper) >= len(lower)


def test_growth_path_validation():
    good = GrowthPath(((1, 1), (2, 1), (1, 2)))
    good.validate()
    assert good.shape() == (2, 1)
    assert good.shapes() == [(1,), (1, 1), (2, 1)]
    with pytest.raises(ValueError):
        GrowthPath(((1, 2),)).validate()
    with pytest.raises(ValueError):
        GrowthPath(((1, 1), (3, 1))).validate()
    with pytest.raises(ValueError):
        GrowthPath(((1, 1), (2, 1), (2, 2))).validate()
