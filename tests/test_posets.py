from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from posetpaths import (
    CapExceeded,
    PosetFormatError,
    addable_elements,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
    enumerate_numberings,
    parse_poset,
    serialize_poset,
    validate_numbering,
)
from posetpaths import graded_graph, posets

from oracles import bitmask_extension_count, brute_numberings, ideal_levels, is_ideal, order_pairs


def incomparable_pairs(poset):
    """All pairs x < y of ids that the oracle's closure leaves unrelated."""
    closure = order_pairs(poset)
    return [
        (x, y)
        for x, y in itertools.combinations(range(poset.n), 2)
        if (x, y) not in closure and (y, x) not in closure
    ]


CORPUS = [
    build_young_poset([2, 1]),
    build_young_poset([3, 1]),
    build_young_poset([3, 2]),
    build_young_poset([2, 2, 1]),
    build_box_poset(2, (3, 3)),
    build_box_poset(3, (2, 2, 2)),
    build_chain_poset(6),
    build_antichain_poset(4),
]


def test_young_single_cell():
    w = build_young_poset([1])
    assert w.poset.n == 2
    assert w.poset.covers == ((0, 1),)


def test_young_2_1_structure():
    w = build_young_poset([2, 1])
    p = w.poset
    assert p.n == 4
    # ids are row-major: 1=(1,1), 2=(1,2), 3=(2,1)
    assert p.coords[1] == (1, 1) and p.coords[2] == (1, 2) and p.coords[3] == (2, 1)
    assert set(p.covers) == {(0, 1), (1, 2), (1, 3)}
    assert incomparable_pairs(p) == [(2, 3)]
    assert p.incomparable_count() == 1


def test_young_hook_incomparabilities_match_brute_force():
    # staircase-free hook shape: each first-row cell beyond (1,1) is
    # incomparable with (2,1), and with nothing else
    w = build_young_poset([4, 1])
    p = w.poset
    expected = set()
    for x, y in itertools.combinations(range(p.n), 2):
        cx, cy = p.coords[x], p.coords[y]
        if cx is None or cy is None:
            continue
        le = all(a <= b for a, b in zip(cx, cy))
        ge = all(a >= b for a, b in zip(cx, cy))
        if not le and not ge:
            expected.add((x, y))
    assert set(incomparable_pairs(p)) == expected
    assert p.incomparable_count() == len(expected) == 3  # cells (1,2),(1,3),(1,4) against (2,1)


def test_young_rejects_bad_partitions():
    with pytest.raises(ValueError):
        build_young_poset([])
    with pytest.raises(ValueError):
        build_young_poset([1, 2])
    with pytest.raises(ValueError):
        build_young_poset([2, 0])


def test_box_d1_is_chain():
    w = build_box_poset(1, (4,))
    assert w.poset.covers == ((0, 1), (1, 2), (2, 3))
    assert w.poset.n == 4
    assert build_chain_poset(4).poset.covers == w.poset.covers


def test_box_2x2():
    w = build_box_poset(2, (2, 2))
    assert w.poset.n == 4
    assert w.poset.incomparable_count() == 1


def test_box_rejects_zero_bound():
    with pytest.raises(ValueError):
        build_box_poset(2, (2, 0))
    with pytest.raises(ValueError):
        build_box_poset(0, ())


def test_box_222_has_48_full_numberings():
    w = build_box_poset(3, (2, 2, 2))
    got = enumerate_numberings(w, 8)
    assert len(got) == 48
    # frozen from the permutation-filter oracle
    assert len(brute_numberings(w.poset, 8)) == 48


# long narrow windows, whose ideals at the glue depth are mostly reached by
# more than one prefix, so one completion list serves several prefixes, and
# a wide one from short lengths, where nothing is glued (the prefixes run to
# the level below the top), to its full length
GLUED = [
    (build_young_poset([4, 3, 2, 1]), range(1, 12)),
    (build_young_poset([5, 3, 2, 1]), range(1, 13)),
    (build_box_poset(3, (2, 2, 3)), range(1, 13)),
    (build_antichain_poset(8), range(4, 10)),
]


def test_enumerations_match_oracles_everywhere():
    # a cap of N passes with the full list, caps of N - 1 and 1 raise, glued
    # or not (at length 1, the root alone, a cap of 0 raises)
    for w, lengths in [(w, range(1, w.poset.n + 1)) for w in CORPUS] + GLUED:
        for length in lengths:
            got = enumerate_numberings(w, length)
            assert got == brute_numberings(w.poset, length), (w.describe(), length)
            assert len(got) == bitmask_extension_count(w.poset, length)
            assert enumerate_numberings(w, length, limit=len(got)) == got
            for cap in [len(got) - 1] + ([1] if len(got) > 2 else []):
                with pytest.raises(CapExceeded) as info:
                    enumerate_numberings(w, length, limit=cap)
                assert str(info.value) == f"more than {cap} numberings", (w.describe(), length, cap)


def test_enumerations_of_random_graph_orders_are_every_numbering_once():
    # random graph orders, no products of chains: each pair i < j of 1..8 is
    # related with probability 0.3, and the root lies below all of them.
    # Strictly increasing, all valid and as many as the oracle counts: every
    # numbering of the length, each once, in order
    for seed in range(20):
        rng = random.Random(seed)
        pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9) if rng.random() < 0.3]
        text = "".join(f"el {x}\n" for x in range(9)) + "".join(
            f"cov {lo} {hi}\n" for lo, hi in [(0, x) for x in range(1, 9)] + pairs
        )
        w = parse_poset(text)
        for length in range(1, 10):
            got = enumerate_numberings(w, length)
            assert all(a < b for a, b in zip(got, got[1:])), (seed, length)
            assert all(validate_numbering(w.poset, p) == p for p in got), (seed, length)
            count = bitmask_extension_count(w.poset, length)
            assert len(got) == count, (seed, length)
            with pytest.raises(CapExceeded) as info:
                enumerate_numberings(w, length, limit=count - 1)
            assert str(info.value) == f"more than {count - 1} numberings", (seed, length)


def test_a_glued_block_is_checked_against_the_cap_before_it_is_appended():
    # in each window the last numbering's ideal at the glue depth was first
    # reached by an earlier prefix, so its completions are glued to more than
    # one prefix: the cap of N - 1 must fire off the last level's dims, before
    # any completion list is built or glued
    for w, length in [
        (build_young_poset([4, 3, 2, 1]), 11),
        (build_box_poset(3, (2, 2, 3)), 12),
        (build_antichain_poset(7), 8),
    ]:
        paths = enumerate_numberings(w, length)
        stop = length - 1 - graded_graph.KEPT_TAIL
        *rest, final = paths
        head = final[: stop + 1]
        assert any(set(p[: stop + 1]) == set(head) and p[: stop + 1] != head for p in rest)
        with pytest.raises(CapExceeded, match=f"more than {len(paths) - 1} numberings"):
            enumerate_numberings(w, length, limit=len(paths) - 1)


def test_enumeration_is_lexicographic_and_capped():
    w = build_antichain_poset(4)
    paths = enumerate_numberings(w, 5)
    assert len(paths) == 24
    assert paths == sorted(paths)
    with pytest.raises(CapExceeded):
        enumerate_numberings(w, 5, limit=10)


def test_chain_has_unique_numbering():
    w = build_chain_poset(4)
    assert len(enumerate_numberings(w, 4)) == 1


def test_young_3_2_has_five_full_numberings():
    w = build_young_poset([3, 2])
    assert len(enumerate_numberings(w, 6)) == 5


def test_order_axioms_on_generated_windows():
    for w in CORPUS:
        p = w.poset
        n = p.n
        for x in range(n):
            assert p.leq(x, x)
            assert p.leq(0, x)
        for x in range(n):
            for y in range(n):
                if x != y and p.leq(x, y):
                    assert not p.leq(y, x)
        for x, y, z in itertools.product(range(n), repeat=3):
            if p.leq(x, y) and p.leq(y, z):
                assert p.leq(x, z)


WINDOWS_64 = [
    build_box_poset(2, (8, 8)),       # 64 elements
    build_box_poset(3, (4, 4, 2)),    # 32 elements
    build_young_poset([8, 7, 6, 5, 4, 3, 2, 1]),
    build_chain_poset(64),
    build_antichain_poset(40),
]


def test_order_axioms_on_bitmask_rows_up_to_64_elements():
    for w in WINDOWS_64:
        p = w.poset
        # up[x] has bit y set iff x <= y
        up = [sum(1 << y for y in range(p.n) if p.leq(x, y)) for x in range(p.n)]
        assert all(up[x] >> x & 1 for x in range(p.n))  # reflexive
        for x in range(p.n):
            for y in range(p.n):
                if up[x] >> y & 1:
                    assert x == y or not up[y] >> x & 1  # antisymmetric
                    assert up[y] & ~up[x] == 0  # transitive: y <= z gives x <= z
        assert up[0] == (1 << p.n) - 1  # unique minimum below everything


def test_leq_and_incomparable_pairs_match_cover_closure():
    for w in CORPUS + WINDOWS_64:
        p = w.poset
        closure = order_pairs(p)
        got = {(x, y) for x in range(p.n) for y in range(p.n) if p.leq(x, y)}
        assert got == closure, w.describe()
        assert p.incomparable_count() == len(incomparable_pairs(p)), w.describe()


def test_incomparable_count_matches_the_pair_list():
    # ids need not follow the order: 0 < 3 < 2 and 0 < 4 < 1 here
    unordered = parse_poset("el 0\nel 1\nel 2\nel 3\nel 4\ncov 0 3\ncov 0 4\ncov 3 2\ncov 4 1").poset
    assert incomparable_pairs(unordered) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert unordered.incomparable_count() == 4


def test_missing_cover_agrees_with_the_ideal_oracle_on_random_subsets():
    rng = random.Random(13)
    for w in CORPUS + WINDOWS_64:
        p = w.poset
        leq = order_pairs(p)
        lower = {x: sorted(lo for lo, hi in p.covers if hi == x) for x in range(p.n)}
        for trial in range(60):
            ids = {x for x in range(p.n) if rng.random() < 0.5}
            if trial % 2:  # its down-set, an ideal
                ids = {y for x in ids for y in range(p.n) if (y, x) in leq}
            mask = p.mask_of(ids)
            expected = next(((x, lo) for x in sorted(ids) for lo in lower[x] if lo not in ids), None)
            assert p.missing_cover(mask) == expected, (w.describe(), ids)
            assert (expected is None) == is_ideal(p, ids)
            part = {x for x in ids if rng.random() < 0.5}  # `among` limits the search to these
            expected = next(((x, lo) for x in sorted(part) for lo in lower[x] if lo not in ids), None)
            assert p.missing_cover(mask, p.mask_of(part)) == expected, (w.describe(), ids, part)


def test_closure_errors_keep_their_texts():
    young = build_young_poset([2, 1]).poset  # 1 = (1,1) below 2 = (1,2) and 3 = (2,1)
    box = build_box_poset(2, (2, 2)).poset  # 3 = (2,2) covers 1 = (1,2) and 2 = (2,1)
    cases = [
        (addable_elements, young, {0, 2}, "input set is not downward closed"),
        (addable_elements, young, {2}, "input set is not downward closed"),
        (addable_elements, young, {0, 4}, "ids outside 0..3 in [0, 4]"),
        (validate_numbering, young, (), "numbering must contain at least the root"),
        (validate_numbering, young, (1, 0), "position 0 must be the root, got 1"),
        (validate_numbering, young, (0, 1, 1), "numbering must be injective"),
        (validate_numbering, young, (0, 9, 2), "id 9 outside poset"),
        (validate_numbering, young, (0, 2, 9), "prefix through position 1 is not an ideal: 2 needs [1] first"),
        (validate_numbering, box, (0, 1, 3, 2), "prefix through position 2 is not an ideal: 3 needs [2] first"),
        (validate_numbering, box, (0, 3, 1, 2), "prefix through position 1 is not an ideal: 3 needs [1, 2] first"),
    ]
    for check, poset, arg, text in cases:
        with pytest.raises(ValueError) as info:
            check(poset, arg)
        assert str(info.value) == text, (check.__name__, arg)


def test_enumeration_is_not_bounded_by_the_recursion_limit():
    assert enumerate_numberings(build_chain_poset(1500), 1500) == [tuple(range(1500))]
    with pytest.raises(CapExceeded, match="more than 3 numberings"):
        enumerate_numberings(build_antichain_poset(1100), 1101, limit=3)


def _capped_peak(window, length, limit):
    """tracemalloc's peak, in bytes, over an enumeration that must raise
    the cap of `limit` numberings."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"more than {limit} numberings"):
            enumerate_numberings(window, length, limit=limit)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_cap_fires_after_one_last_position_row():
    # antichain 2000 at length 3: the root's 2,000 up-edges already count
    # 2,000 numberings of length 2, so the cap fires before level 1 is built;
    # building level 2 first (1,999,000 ideals) would take hundreds of MB
    assert _capped_peak(build_antichain_poset(2000), 3, 10) < 10 * 2**20


def test_leq_on_file_poset_with_unordered_ids():
    # ids need not follow the order: 3 < 1 < 2 here
    w = parse_poset("el 0\nel 1\nel 2\nel 3\ncov 0 3\ncov 3 1\ncov 1 2\n")
    p = w.poset
    assert p.leq(3, 2) and p.leq(0, 2) and not p.leq(2, 3)
    assert incomparable_pairs(p) == [] and p.incomparable_count() == 0
    assert addable_elements(p, {0, 3}) == [1]
    assert enumerate_numberings(w, 4) == [(0, 3, 1, 2)]


def test_duplicate_covers_collapse():
    w = parse_poset("el 0\nel 1\ncov 0 1\ncov 0 1\n")
    assert w.poset.covers == ((0, 1),)


def test_file_coords_survive_round_trip():
    text = "el 0 1 1\nel 1 1 2\nel 2 2 1\ncov 0 1\ncov 0 2\n"
    w = parse_poset(text)
    assert w.poset.coords == ((1, 1), (1, 2), (2, 1))
    assert parse_poset(serialize_poset(w)).poset == w.poset


def test_duplicate_coords_rejected():
    with pytest.raises(PosetFormatError):
        parse_poset("el 0 1 1\nel 1 1 1\ncov 0 1\n")


def test_windows_are_downward_closed_in_ambient_family():
    for w in CORPUS:
        p = w.poset
        for x in range(p.n):
            for lo in p.lower_covers(x):
                assert 0 <= lo < p.n


def test_addable_elements_young():
    w = build_young_poset([2, 1])
    p = w.poset
    assert addable_elements(p, {0}) == [1]
    assert addable_elements(p, {0, 1}) == [2, 3]
    with pytest.raises(ValueError):
        addable_elements(p, {0, 2})  # (1,2) without (1,1)


def test_addable_elements_box():
    w = build_box_poset(2, (2, 2))
    p = w.poset
    ids = {p.coords[x]: x for x in range(p.n)}
    ideal = {0, ids[(1, 2)], ids[(2, 1)]}
    assert addable_elements(p, ideal) == [ids[(2, 2)]]


def test_addable_elements_rejects_sets_not_downward_closed():
    p = build_box_poset(2, (3, 3)).poset
    ids = {p.coords[x]: x for x in range(p.n)}
    for bad in (
        {ids[(1, 2)]},                      # root missing
        {0, ids[(2, 2)]},                   # (2,2) without (1,2) and (2,1)
        {0, ids[(1, 2)], ids[(2, 2)]},      # (2,2) without (2,1)
        {0, ids[(1, 2)], ids[(1, 3)], ids[(3, 3)]},
    ):
        assert not is_ideal(p, bad)
        with pytest.raises(ValueError):
            addable_elements(p, bad)
    with pytest.raises(ValueError):
        addable_elements(p, {0, p.n})  # id outside the poset


def test_addable_elements_match_level_oracle():
    for w in CORPUS:
        p = w.poset
        levels, edges, _ = ideal_levels(p, p.n - 1)
        for level, row_ideals in enumerate(levels):
            for ideal, row in zip(row_ideals, edges[level]):
                assert addable_elements(p, ideal) == [x for x, _ in row], (w.describe(), ideal)


def test_addable_chain_growth_stays_ideal():
    rng = random.Random(7)
    for w in CORPUS:
        p = w.poset
        ideal = {0}
        while True:
            frontier = addable_elements(p, ideal)
            if not frontier:
                break
            ideal.add(rng.choice(frontier))
            assert is_ideal(p, ideal)
        assert ideal == set(range(p.n))


def test_validate_numbering_rejects_non_ideal_prefix():
    w = build_young_poset([2, 1])
    with pytest.raises(ValueError):
        validate_numbering(w.poset, (0, 2, 1))
    with pytest.raises(ValueError):
        validate_numbering(w.poset, (1, 0))
    with pytest.raises(ValueError):
        validate_numbering(w.poset, (0, 1, 1))


def test_parse_two_chain():
    w = parse_poset("el 0\nel 1\ncov 0 1")
    assert w.poset.n == 2
    assert w.poset.covers == ((0, 1),)


def test_serialize_parse_round_trip():
    for w in CORPUS:
        text = serialize_poset(w)
        again = parse_poset(text)
        assert again.poset == w.poset
        assert serialize_poset(again) == text


def test_parse_rejects_cycle():
    with pytest.raises(PosetFormatError):
        parse_poset("el 0\nel 1\ncov 0 1\ncov 1 0")
    # a cycle above the root leaves the root the unique minimal element
    with pytest.raises(PosetFormatError, match=r"cycle detected among ids \[1, 2, 3\]"):
        parse_poset("el 0\nel 1\nel 2\nel 3\ncov 0 1\ncov 1 2\ncov 2 3\ncov 3 1")


def test_parse_rejects_multiple_minimals():
    with pytest.raises(PosetFormatError):
        parse_poset("el 0\nel 1\nel 2\ncov 0 2\ncov 1 2")


def test_parse_rejects_dangling_and_sparse_ids():
    with pytest.raises(PosetFormatError):
        parse_poset("el 0\ncov 0 1")
    with pytest.raises(PosetFormatError):
        parse_poset("el 0\nel 2\ncov 0 2")


def test_parse_comments_and_blanks():
    w = parse_poset("# a chain\nel 0  # root\n\nel 1\ncov 0 1\n")
    assert w.poset.n == 2


def test_capped_walk_builds_only_the_rows_it_reads():
    # antichain 600 at full length: the root's 600 up-edges count 600
    # numberings of length 2, so the cap fires before level 1 is built and
    # any numbering listed; level 2 alone holds 179,700 ideals, tens of MB
    assert _capped_peak(build_antichain_poset(600), 601, 10) < 10 * 2**20


def test_poset_rejects_a_cover_with_a_dangling_id():
    with pytest.raises(PosetFormatError, match=r"dangling id in cover \(0, 5\)"):
        posets.Poset(2, [(0, 5)])
