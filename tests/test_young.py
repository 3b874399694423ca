from __future__ import annotations

import itertools
import random

import pytest

from posetpaths import build_young_poset, enumerate_numberings
from posetpaths.measures import plancherel_transition
from posetpaths.young import (
    GrowthPath,
    additions,
    check_partition,
    conjugate,
    corner_probabilities,
    growth_step_arrays,
    row_insert,
    row_insert_counts,
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


def list_route(word):
    rows = []
    return [row_insert(rows, x) for x in word]


def test_row_insert_counts_matches_row_insert_on_every_short_word():
    for d in (1, 2, 3):
        for k in range(8):
            for word in itertools.product(range(d), repeat=k):
                assert row_insert_counts(word, d) == list_route(word), word


@pytest.mark.parametrize("d", [*range(1, 18), 64])
def test_row_insert_counts_matches_row_insert_on_random_words(d):
    # letters come from a random subset of the alphabet, so some never occur
    rng = random.Random(d)
    for n in (1, 40, 3000):
        used = rng.sample(range(d), rng.randint(1, d))
        word = [rng.choice(used) for _ in range(n)]
        assert row_insert_counts(word, d) == list_route(word), (d, n, used)


def test_corner_routes_match_the_exact_plancherel_step():
    assert corner_probabilities(*growth_step_arrays([], 0)[1:]) == [1.0]
    for n in range(11):
        for lam in partitions_of(n):
            # a trailing zero row beyond k must be ignored
            got = corner_probabilities(*growth_step_arrays([*lam, 0], len(lam))[1:])
            exact = [float(p) for _, p in plancherel_transition(lam)]
            assert len(got) == len(exact), lam
            assert all(abs(g - e) <= 1e-15 for g, e in zip(got, exact)), lam


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
