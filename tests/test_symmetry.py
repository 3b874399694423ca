from __future__ import annotations

import collections
import dataclasses
import itertools
import random

import pytest

from posetpaths import (
    CapExceeded,
    addable_elements,
    apply_sigma,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
    classify_local,
    enumerate_numberings,
    generate_group,
    group_order,
    local_indices,
    parse_poset,
    verify_relations,
)
from posetpaths import symmetry
from posetpaths.cli import main
from posetpaths.symmetry import ALLOWED_ORBIT_TAGS, GroupHandle, closure, compose

from oracles import (
    broken_handle,
    brute_fibers,
    brute_numberings,
    brute_orbit,
    brute_symmetry_group_order,
    generator_orbit,
    left_closure,
    local_class,
    pair_masks,
    perm_order,
    relation_violations,
    restricted_pairs,
    sigma_map,
)
from test_posets import GLUED

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


def _random_box_windows(seed, count):
    """Random downward-closed windows of a 3x3 box, relabelled as file
    posets: shapes beyond the fixed corpus."""
    rng = random.Random(seed)
    box = build_box_poset(2, (3, 3))
    for _ in range(count):
        ideal = {0}
        for _ in range(rng.randrange(2, 7)):
            frontier = addable_elements(box.poset, ideal)
            if not frontier:
                break
            ideal.add(rng.choice(frontier))
        ids = sorted(ideal)
        relabel = {x: k for k, x in enumerate(ids)}
        lines = [f"el {relabel[x]}" for x in ids]
        for lo, hi in box.poset.covers:
            if lo in ideal and hi in ideal:
                lines.append(f"cov {relabel[lo]} {relabel[hi]}")
        yield parse_poset("\n".join(lines))


def test_sigma_swaps_incomparable_pair():
    w = build_antichain_poset(2)
    phi = (0, 1, 2)
    assert apply_sigma(w.poset, 1, phi) == (0, 2, 1)


def test_sigma_fixes_comparable_pair():
    w = build_chain_poset(3)
    phi = (0, 1, 2)
    assert apply_sigma(w.poset, 1, phi) == phi


def test_sigma_leaves_other_positions_alone():
    w = build_antichain_poset(4)
    for phi in enumerate_numberings(w, 5):
        for i in range(1, 4):
            out = apply_sigma(w.poset, i, phi)
            for m in range(5):
                if m not in (i, i + 1):
                    assert out[m] == phi[m]


def test_sigma_index_out_of_range():
    w = build_chain_poset(4)
    phi = (0, 1, 2)
    with pytest.raises(ValueError):
        apply_sigma(w.poset, 0, phi)
    with pytest.raises(ValueError):
        apply_sigma(w.poset, 2, phi)


def test_sigma_is_involution_everywhere():
    for w in CORPUS:
        full = w.poset.n
        for phi in enumerate_numberings(w, full):
            for i in range(1, full - 1):
                once = apply_sigma(w.poset, i, phi)
                assert apply_sigma(w.poset, i, once) == phi


def test_sigma_matches_independent_rule():
    # every prefix length, so each swap output is also checked to be a
    # numbering; the group handle's generators are the same map on path
    # ids, including the comparable swaps that a missed lookup must fix
    for w in CORPUS + list(_random_box_windows(23, 12)):
        for length in range(1, w.poset.n + 1):
            valid = brute_numberings(w.poset, length)
            handle = generate_group(w, length)
            assert list(handle.paths) == valid
            assert list(handle.path_index.items()) == [(p, k) for k, p in enumerate(valid)]
            assert len(handle.generators) == len(range(1, length - 1))
            for i, gen in zip(range(1, len(handle.generators) + 1), handle.generators):
                assert gen == tuple(valid.index(sigma_map(w.poset, seq, i)) for seq in valid), (w.poset, length, i)
            for phi in handle.paths:
                for i in range(1, length - 1):
                    out = apply_sigma(w.poset, i, phi)
                    assert out == sigma_map(w.poset, phi, i)
                    assert out in valid, (w.describe(), phi, i)


def test_sigma_commutes_at_distance():
    for w in CORPUS:
        full = w.poset.n
        for phi in enumerate_numberings(w, full):
            for i, j in itertools.combinations(range(1, full - 1), 2):
                if abs(i - j) <= 1:
                    continue
                ij = apply_sigma(w.poset, i, apply_sigma(w.poset, j, phi))
                ji = apply_sigma(w.poset, j, apply_sigma(w.poset, i, phi))
                assert ij == ji


def test_generators_are_realized_on_first_read_as_apply_sigma_and_a_lookup():
    # every corpus window at every length, plus the long narrow windows of
    # the command corpus; positions are read last to first, so each
    # realization stands alone, and a second read returns the kept tuple;
    # slot b is sigma_{b+1}, slot -1 is sigma_{length-2}, and no slot
    # lies past either end
    windows = CORPUS + [build_young_poset([4, 3, 2, 1]), build_young_poset([5, 3, 2, 1]), build_box_poset(3, (2, 2, 3))]
    for w in windows:
        for length in range(1, w.poset.n + 1):
            handle = generate_group(w, length)
            assert len(handle.generators) == len(range(1, length - 1))
            got = {}
            for b in reversed(range(len(handle.generators))):
                i = b + 1
                got[b] = handle.generators[b]
                expected = tuple(handle.path_index[apply_sigma(w.poset, i, p)] for p in handle.paths)
                assert got[b] == expected, (w.describe(), length, i)
            assert all(handle.generators[b] is g for b, g in got.items())
            assert list(handle.generators) == [got[b] for b in range(len(got))]
            assert handle.generators == tuple(handle.generators)
            assert generate_group(w, length).generators[1::2] == tuple(handle.generators)[1::2]  # unread slots
            fresh = generate_group(w, length)
            if length >= 3:
                last = tuple(handle.path_index[apply_sigma(w.poset, length - 2, p)] for p in handle.paths)
                assert fresh.generators[-1] == last, (w.describe(), length)
                assert fresh.generators._perms[:-1] == [None] * (length - 3)  # only sigma_{length-2} is realized
            for h in (handle, fresh):
                for b in (len(h.generators), -len(h.generators) - 1):
                    with pytest.raises(IndexError):
                        h.generators[b]


def test_a_read_at_some_paths_looks_up_those_paths_and_keeps_nothing(monkeypatch):
    # slot b read at some path ids equals the realized slot at those ids,
    # negative slots included, through one lookup that fills no slot; a
    # realized slot is read off its tuple with no lookup, and an empty read
    # builds none
    real, swaps = symmetry.itemgetter, []

    def itemgetter(*items):
        swaps.append(items)
        return real(*items)

    monkeypatch.setattr(symmetry, "itemgetter", itemgetter)
    rng = random.Random(35)
    for w in CORPUS + [build_young_poset([4, 3, 2, 1])]:
        for length in range(3, w.poset.n + 1):
            handle, realized = generate_group(w, length), generate_group(w, length)
            n, slots = handle.n_paths, len(handle.generators)
            for b in [*range(slots), *range(-slots, 0)]:
                full = realized.generators[b]
                for ids in ([], [n - 1, 0, n - 1], rng.sample(range(n), min(n, 3)), list(range(n))):
                    swaps.clear()
                    assert handle.generators.at(b, ids) == tuple(full[k] for k in ids), (w.describe(), length, b)
                    assert len(swaps) == (1 if ids else 0) and handle.generators._perms[b] is None
                    swaps.clear()
                    assert realized.generators.at(b, ids) == tuple(full[k] for k in ids)
                    assert swaps == [] and realized.generators._perms[b] is full


def test_readers_of_every_generator_accept_any_sequence():
    # a replaced handle may hold a tuple or a list; the answers match the
    # handle whose generators are realized on first read
    handle = generate_group(build_young_poset([3, 2]), 5)
    expected = (group_order(handle), verify_relations(handle), classify_local(handle, 1))
    for gens in (tuple(handle.generators), list(handle.generators)):
        h = dataclasses.replace(handle, generators=gens)
        assert (group_order(h), verify_relations(h), classify_local(h, 1)) == expected
        assert closure(h) == closure(handle)


def test_generate_group_trivial_on_chain():
    handle = generate_group(build_chain_poset(4), 4)
    assert handle.n_paths == 1
    stats = group_order(handle)
    assert stats.order == 1 and not stats.capped


def test_generate_group_antichain3_is_order_6():
    w = build_antichain_poset(3)
    handle = generate_group(w, 4)
    assert handle.n_paths == 6
    assert group_order(handle).order == 6
    assert brute_symmetry_group_order(
        w.poset, list(handle.paths)
    ) == 6


def test_generators_are_involutions():
    for w in CORPUS:
        handle = generate_group(w, w.poset.n)
        ident = tuple(range(handle.n_paths))
        for g in handle.generators:
            assert compose(g, g) == ident


def test_group_orders_match_brute_force_oracle():
    # the box windows generate groups far past any sensible closure cap,
    # so the exact-order comparison runs on the small-group corpus
    small = [
        build_young_poset([2, 1]),
        build_young_poset([3, 1]),
        build_young_poset([3, 2]),
        build_young_poset([2, 2, 1]),
        build_chain_poset(6),
        build_antichain_poset(4),
    ]
    for w in small:
        handle = generate_group(w, w.poset.n)
        stats = group_order(handle)
        expected = brute_symmetry_group_order(
            w.poset, list(handle.paths)
        )
        assert stats.order == expected, w.describe()


SMALL = [
    build_young_poset([2, 1]),
    build_young_poset([3, 1]),
    build_young_poset([3, 2]),
    build_young_poset([2, 2, 1]),
    build_young_poset([4, 1]),
    build_chain_poset(6),
    build_antichain_poset(4),
]


def _random_involution(rng, n):
    points = rng.sample(range(n), n)
    pairs = list(zip(points[::2], points[1::2]))
    perm = list(range(n))
    for x, y in pairs[: rng.randint(0, len(pairs))]:
        perm[x], perm[y] = y, x
    return tuple(perm)


def _hand_built_generator_sets():
    """Hand-built and seeded random generator sets that break the relations
    the involutions satisfy, so a closure that assumed those relations
    rather than reading them off would miscount."""
    three_cycle, swap = (1, 2, 0, 3), (1, 0, 2, 3)
    far_apart = [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 3, 4)]  # gens 0 and 2 do not commute
    sets = [
        [three_cycle, swap],  # a non-involution beside a transposition
        [swap, three_cycle],
        far_apart,
        far_apart[::-1],
        [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 1, 2, 3, 4)],  # a 5-cycle and an identity
    ]
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 6)
        gens = []
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.7:
                gens.append(_random_involution(rng, n))
            else:
                perm = list(range(n))
                rng.shuffle(perm)
                gens.append(tuple(perm))
        sets.append(gens)
    return sets


def test_closure_matches_left_multiplication_oracle():
    # the descent-pruned closure against the plain oracle and the
    # brute-force order, uncapped on every length of the small corpus
    for w in SMALL:
        for length in range(3, w.poset.n + 1):
            handle = generate_group(w, length)
            elements, diameter = closure(handle)
            assert (len(elements), diameter) == left_closure(handle.generators), (w.describe(), length)
            assert len(elements) == brute_symmetry_group_order(
                w.poset, list(handle.paths)
            )
    # pruning reads involution and commutation off the generators
    for gens in _hand_built_generator_sets():
        elements, diameter = closure(_bare_handle(gens))
        assert (len(elements), diameter) == left_closure(gens), gens
        # the same pruning on the orbit of a point pair, against a plain search
        seen, frontier = {(0, 1)}, [(0, 1)]
        for t in frontier:
            for g in gens:
                u = (g[t[0]], g[t[1]])
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        assert set(symmetry._orbit(gens, (0, 1), None, _bare_handle(gens).pair_facts[0])[0]) == seen, gens


def test_group_order_cap_verdict_is_order_above_cap():
    # capped exactly when the group has more elements than the cap
    for w in SMALL:
        for length in range(3, w.poset.n + 1):
            handle = generate_group(w, length)
            order, diameter = left_closure(handle.generators)
            stats = group_order(handle, cap=order)
            assert (stats.order, stats.diameter, stats.capped) == (order, diameter, False)
            if order > 1:
                stats = group_order(handle, cap=order - 1)
                assert stats.capped and stats.order is None and stats.diameter is None


def test_closure_cap_matches_oracle():
    # the antichain-5 group is S_5 on 120 paths; the larger windows stop at the cap
    handle = generate_group(build_antichain_poset(5), 6)
    assert left_closure(handle.generators) == (120, 10)
    elements, diameter = closure(handle, cap=120)
    assert (len(elements), diameter) == (120, 10)
    for cap in (119, 7):
        with pytest.raises(CapExceeded):
            closure(handle, cap=cap)
        with pytest.raises(RuntimeError):
            left_closure(handle.generators, cap=cap)
    for w in (build_young_poset([4, 3, 2, 1]), build_box_poset(2, (3, 3))):
        handle = generate_group(w, w.poset.n)
        with pytest.raises(CapExceeded):
            closure(handle, cap=1000)
        with pytest.raises(RuntimeError):
            left_closure(handle.generators, cap=1000)


def test_group_order_caps_on_box_windows(monkeypatch):
    # the orbit bound decides these without listing a group element
    def no_closure(handle, cap=None):
        raise AssertionError("closure called")

    monkeypatch.setattr(symmetry, "closure", no_closure)
    for w, cap in (
        (build_box_poset(2, (3, 3)), 20_000),
        (build_box_poset(3, (2, 2, 2)), 20_000),
        (build_young_poset([4, 3, 2, 1]), 1000),
    ):
        handle = generate_group(w, w.poset.n)
        stats = group_order(handle, cap=cap)
        assert stats.capped and stats.order is None, w.describe()


def test_group_order_cap_flagging():
    w = build_antichain_poset(4)
    handle = generate_group(w, 5)
    stats = group_order(handle, cap=10)
    assert stats.capped and stats.order is None
    stats = group_order(handle, cap=10**6)
    assert stats.order == 24 and not stats.capped


def test_group_order_rejects_a_cap_below_one():
    # capped exactly when |G| > cap cannot hold for cap 0: even the trivial group exceeds it
    for handle in (generate_group(build_chain_poset(4), 4), generate_group(build_antichain_poset(3), 4)):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                group_order(handle, cap=cap)
        assert group_order(handle, cap=1).capped == (handle.n_paths > 1)


def _random_block_generators(rng):
    """Generators that act on disjoint blocks of points, each block by the
    identity, an involution or any permutation, with fixed points between:
    several orbits, and direct factors that a base must meet one by one."""
    n = rng.randint(3, 8)
    points = rng.sample(range(n), n)
    blocks, at = [], 0
    while at < n:
        size = rng.choice((1, 1, 2, 3, 4))
        blocks.append(points[at:at + size])
        at += size
    gens = []
    for _ in range(rng.randint(1, 4)):
        perm = list(range(n))
        for block in blocks:
            kind = rng.random()
            if kind < 0.3:
                continue
            image = list(block)
            if kind < 0.65:
                sub = _random_involution(rng, len(block))
                image = [block[x] for x in sub]
            else:
                rng.shuffle(image)
            for x, y in zip(block, image):
                perm[x] = y
        gens.append(tuple(perm))
    return gens


def _bare_handle(gens):
    return GroupHandle(window=None, length=0, paths=(), generators=tuple(gens))


def test_group_order_matches_oracle_on_random_generator_sets():
    # fixed points, several orbits and non-involutions: the base needs a
    # point of every orbit, and the certificate must see a stabilizer
    # that the first k points leave
    rng = random.Random(19)
    sets = [_random_block_generators(rng) for _ in range(150)] + _hand_built_generator_sets()
    sets.append(broken_handle(generate_group(build_antichain_poset(4), 5)).generators)
    for gens in sets:
        try:
            order, diameter = left_closure(gens, cap=10**4)
            caps = (1, 3, 10, 100, 10**6)
        except RuntimeError:  # the broken handle's group: every cap up to 10**4 is exceeded
            order, diameter, caps = None, None, (1, 3, 10, 100, 10**4)
        for cap in caps:
            stats = group_order(_bare_handle(gens), cap=cap)
            if order is None or order > cap:
                assert (stats.order, stats.diameter, stats.capped) == (None, None, True), (gens, cap)
            else:
                assert (stats.order, stats.diameter, stats.capped) == (order, diameter, False), (gens, cap)


def test_group_order_falls_back_to_closure_when_the_base_fails(monkeypatch):
    # young 5,2 at length 6: the short base has a nontrivial stabilizer
    calls = []
    listed = symmetry.closure

    def counted(handle, cap=None):
        calls.append(cap)
        return listed(handle, cap)

    monkeypatch.setattr(symmetry, "closure", counted)
    handle = generate_group(build_young_poset([5, 2]), 6)
    assert left_closure(handle.generators) == (2880, 24)
    stats = group_order(handle)
    assert (stats.order, stats.diameter, stats.capped) == (2880, 24, False)
    assert calls == [symmetry.GROUP_CAP]


@pytest.mark.parametrize(
    "window, length, listed",
    [
        (build_young_poset([3, 3]), 6, True),  # the base is the identity: closure runs directly
        (build_young_poset([5, 2]), 6, True),  # the certificate fails: closure is the fallback
        (build_antichain_poset(6), 7, False),  # the short base is certified
    ],
    ids=["young-3,3", "young-5,2-at-6", "antichain-6"],
)
def test_each_handle_builds_one_pair_table(monkeypatch, window, length, listed):
    # the relation check builds the table; the order's walks and closure read it
    built, closed = [], []
    real_facts, real_closure = symmetry._pair_facts, symmetry.closure
    monkeypatch.setattr(symmetry, "_pair_facts", lambda generators: built.append(1) or real_facts(generators))
    monkeypatch.setattr(symmetry, "closure", lambda handle, cap=None: closed.append(1) or real_closure(handle, cap=cap))
    handle = generate_group(window, length)
    assert verify_relations(handle).ok
    stats = group_order(handle)
    assert stats.order == left_closure(handle.generators)[0] and not stats.capped
    assert (len(built), bool(closed)) == (1, listed)


def test_group_order_certifies_antichain_groups_without_listing_them(monkeypatch):
    # S_n on the n! numberings acts regularly on the orbit of a short
    # tuple; the diameter is the number of inversions of the longest word
    def no_closure(handle, cap=None):
        raise AssertionError("closure called")

    expected = {5: left_closure(generate_group(build_antichain_poset(5), 6).generators),
                6: left_closure(generate_group(build_antichain_poset(6), 7).generators)}
    assert expected == {5: (120, 10), 6: (720, 15)}
    expected[7] = (5040, 21)
    monkeypatch.setattr(symmetry, "closure", no_closure)
    for a, (order, diameter) in expected.items():
        handle = generate_group(build_antichain_poset(a), a + 1)
        stats = group_order(handle)
        assert (stats.order, stats.diameter, stats.capped) == (order, diameter, False), a
        assert group_order(handle, cap=order - 1).capped


def test_path_cap_enforced():
    with pytest.raises(CapExceeded):
        generate_group(build_antichain_poset(4), 5, path_cap=10)


def test_hook_diagram_orders_factorial_fixtures():
    # one-row-plus-one-cell diagrams: n-1 full numberings carry the full
    # symmetric group on those paths; orders frozen from the raw closure
    expected = {(3, 1): (3, 6), (4, 1): (4, 24), (5, 1): (5, 120)}
    for lam, (n_paths, order) in expected.items():
        w = build_young_poset(lam)
        handle = generate_group(w, w.poset.n)
        assert handle.n_paths == n_paths
        assert group_order(handle).order == order
        assert brute_symmetry_group_order(
            w.poset, list(handle.paths)
        ) == order


def test_orbit_singleton_on_chain():
    handle = generate_group(build_chain_poset(5), 5)
    phi = handle.paths[0]
    assert generator_orbit(handle, phi) == {phi}


def test_orbit_young_21_swap():
    handle = generate_group(build_young_poset([2, 1]), 4)
    paths = handle.paths
    assert len(paths) == 2
    for phi in paths:
        assert generator_orbit(handle, phi) == set(paths)


def test_orbit_young_32_reaches_all_five():
    handle = generate_group(build_young_poset([3, 2]), 6)
    paths = handle.paths
    assert len(paths) == 5
    assert generator_orbit(handle, paths[0]) == set(paths)


def test_orbits_equal_endpoint_fibers():
    for w in CORPUS:
        full = w.poset.n
        for length in range(2, full + 1):
            handle = generate_group(w, length)
            for ids in handle.fiber_ids:
                fiber = {handle.paths[k] for k in ids}
                for phi in fiber:
                    got = generator_orbit(handle, phi)
                    assert got == fiber, (w.describe(), length, phi)
                    assert got == brute_orbit(w.poset, phi)


def test_sigma_preserves_endpoint():
    for w in CORPUS:
        full = w.poset.n
        for phi in enumerate_numberings(w, full):
            for i in range(1, full - 1):
                out = apply_sigma(w.poset, i, phi)
                assert frozenset(out) == frozenset(phi)
                assert out[i + 2 :] == phi[i + 2 :]


def test_relations_hold_on_corpus():
    for w in CORPUS:
        handle = generate_group(w, w.poset.n)
        report = verify_relations(handle)
        assert report.ok, (w.describe(), report)


def test_braid_order_divides_six_pointwise():
    for w in CORPUS:
        handle = generate_group(w, w.poset.n)
        gens = handle.generators
        for i in range(1, len(gens)):
            assert perm_order(compose(gens[i - 1], gens[i])) in (1, 2, 3, 6)


def test_classify_local_chain_trivial():
    handle = generate_group(build_chain_poset(6), 6)
    rep = classify_local(handle, 1)
    assert rep.product_order == 1
    assert rep.group_order == 1
    ident = tuple(range(handle.n_paths))
    assert handle.generators[0] == ident and handle.generators[1] == ident
    assert all(tag == "trivial" for _, tag in rep.orbit_types)


def test_classify_local_antichain3_s3():
    handle = generate_group(build_antichain_poset(3), 4)
    rep = classify_local(handle, 1)
    assert rep.product_order == 3
    assert rep.group_order == 6
    assert (6, "S3-class") in rep.orbit_types


def test_classify_local_young31():
    # depth-4 numberings of the (3,1) diagram: sigma_1 fixes everything,
    # sigma_2 swaps one incomparable pair
    handle = generate_group(build_young_poset([3, 1]), 4)
    rep = classify_local(handle, 1)
    assert rep.product_order == 2
    assert rep.group_order == 2
    ident = tuple(range(handle.n_paths))
    assert handle.generators[0] == ident and handle.generators[1] != ident
    assert sorted(tag for _, tag in rep.orbit_types) == ["Z2-swap", "trivial"]


def test_local_reports_on_corpus_within_allowed_structure():
    # the orbits of a pair are orderings of three elements: four kinds only
    assert ALLOWED_ORBIT_TAGS == ("trivial", "Z2-swap", "3-cycle-class", "S3-class")
    for w in CORPUS:
        handle = generate_group(w, w.poset.n)
        for i in local_indices(handle):
            rep = classify_local(handle, i)
            assert rep.product_order in (1, 2, 3, 6), (w.describe(), i)
            assert rep.group_order in (1, 2, 4, 6, 12), (w.describe(), i)
            for _, tag in rep.orbit_types:
                assert tag in ALLOWED_ORBIT_TAGS, (w.describe(), i, tag)


TAG_ORDER = {"trivial": 1, "Z2-swap": 2, "3-cycle-class": 6, "S3-class": 6, "order-6-dihedral-class": 12}


@pytest.mark.parametrize(
    "window",
    [
        build_young_poset([4, 3, 2, 1]),
        build_young_poset([3, 2, 1]),
        build_young_poset([3, 3]),
        build_young_poset([4, 2, 1]),
        build_box_poset(3, (2, 2, 3)),
        build_antichain_poset(3),
        build_antichain_poset(4),
        build_antichain_poset(5),
        build_antichain_poset(6),
        build_young_poset([4, 1]),  # a hook: sigma_1 is the identity, sigma_2 is not
        build_chain_poset(5),  # every generator is the identity
    ],
    ids=lambda w: w.describe(),
)
def test_local_orders_match_closure_oracle_per_pair_and_orbit(window):
    for length in (window.poset.n - 1, window.poset.n):
        handle = generate_group(window, length)
        for i in local_indices(handle):
            a, b = handle.generators[i - 1], handle.generators[i]
            rep = classify_local(handle, i)
            assert rep.group_order == left_closure([a, b])[0], i
            assert rep.product_order == left_closure([compose(a, b)])[0], i
            expected = sorted((len(ra), left_closure([ra, rb])[0]) for ra, rb in restricted_pairs(a, b))
            assert sorted((size, TAG_ORDER[tag]) for size, tag in rep.orbit_types) == expected, i
            assert (rep.product_order, rep.group_order, list(rep.orbit_types)) == local_class(i, a, b), i


def test_local_classes_match_the_oracle_on_every_window_and_length():
    # lattice counts against the orbits of the realized generators; the
    # orbits of each pair partition the paths
    windows = [(w, range(1, w.poset.n + 1)) for w in CORPUS + list(_random_box_windows(5, 10))] + GLUED
    for w, lengths in windows:
        for length in lengths:
            handle = generate_group(w, length)
            for i in local_indices(handle):
                rep = classify_local(handle, i)
                expected = local_class(i, handle.generators[i - 1], handle.generators[i])
                assert (rep.product_order, rep.group_order, list(rep.orbit_types)) == expected, (w.describe(), length, i)
                assert sum(size for size, _ in rep.orbit_types) == handle.n_paths, (w.describe(), length, i)
                assert sum(size * n for size, n in rep.orbit_counts.items()) == handle.n_paths


def _local_class_or_error(classify, *args):
    try:
        return classify(*args)
    except ValueError as exc:
        return str(exc)


def _cycles(n, *cycles):
    """The permutation of range(n) with the given cycles."""
    perm = list(range(n))
    for cycle in cycles:
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            perm[x] = y
    return tuple(perm)


def _fault(i, error):
    """The violated relation (name, i, j) behind `local_class`'s error for
    the pair (sigma_i, sigma_{i+1})."""
    if error.startswith("product of adjacent involutions"):
        return "(sigma_i sigma_{i+1})^6", i, i + 1
    k = int(error.removeprefix("sigma_").split()[0])
    return "sigma^2", k, k


def _faults(handle):
    """The involution and braid violations of the relation check, as (name, i, j)."""
    report = verify_relations(handle)
    return [(v.relation, v.i, v.j) for v in report.involution_violations + report.braid_violations]


def test_classify_local_on_broken_handles_matches_oracle():
    # a local class is set by the window and the length: a replaced handle
    # answers as its window does. Each broken pair still pins the oracle,
    # and each pair the oracle refuses fails the relation check there
    handle = generate_group(build_antichain_poset(4), 5)  # 24 paths, sigma_1..sigma_3
    window_classes = {i: classify_local(handle, i) for i in (1, 2)}
    assert [(r.product_order, r.group_order, list(r.orbit_types)) for r in window_classes.values()] == [
        local_class(i, handle.generators[i - 1], handle.generators[i]) for i in (1, 2)
    ] == [(3, 6, [(6, "S3-class")] * 4)] * 2

    def outcome(h, i):
        assert classify_local(h, i) == window_classes[i], i
        oracle = _local_class_or_error(local_class, i, h.generators[i - 1], h.generators[i])
        if isinstance(oracle, str):
            assert _fault(i, oracle) in _faults(h), (oracle, _faults(h))
        return oracle

    broken = broken_handle(handle)
    assert [outcome(broken, i) for i in (1, 2)] == [
        "product of adjacent involutions 1,2 has order 30",
        "product of adjacent involutions 2,3 has order 4",
    ]
    n, ident = handle.n_paths, tuple(range(handle.n_paths))
    pairs = {
        # a ring of four points: ab has order 2, <a, b> order 4 on it
        "ring 4": (_cycles(n, (0, 1), (2, 3)), _cycles(n, (0, 2), (1, 3))),
        # a path of four points and a ring of eight: ab has order 4
        "path 4": (_cycles(n, (0, 1), (2, 3)), _cycles(n, (1, 2))),
        "ring 8": (_cycles(n, (0, 1), (2, 3), (4, 5), (6, 7)), _cycles(n, (1, 2), (3, 4), (5, 6), (7, 0))),
        "path 5": (_cycles(n, (0, 1), (2, 3)), _cycles(n, (1, 2), (3, 4))),
        # ab of order 3 from a generator that is no involution
        "3-cycle": (_cycles(n, (0, 1, 2)), ident),
        "ring 12 and path 6": (
            _cycles(n, *[(k, k + 1) for k in range(0, 12, 2)], (12, 13), (14, 15), (16, 17)),
            _cycles(n, *[(k, (k + 1) % 12) for k in range(1, 12, 2)], (13, 14), (15, 16)),
        ),
    }
    expected = {
        "ring 4": (2, 4, [(1, "trivial")] * 20 + [(4, "unexpected(4,4)")]),
        "path 4": "product of adjacent involutions 1,2 has order 4",
        "ring 8": "product of adjacent involutions 1,2 has order 4",
        "path 5": "product of adjacent involutions 1,2 has order 5",
        "3-cycle": "sigma_1 is not an involution",
        "ring 12 and path 6": (6, 12, [(1, "trivial")] * 6 + [(6, "order-6-dihedral-class"), (12, "order-6-dihedral-class")]),
    }
    for name, (a, b) in pairs.items():
        h = dataclasses.replace(handle, generators=(a, b, handle.generators[2]))
        assert outcome(h, 1) == expected[name], name
        if not isinstance(expected[name], str):  # both rings keep every relation: only their orbits are wrong
            assert _faults(h) == [], name
    # randomly broken generators, as in the relation-report test
    rng = random.Random(47)
    for _ in range(60):
        gens = list(handle.generators)
        k = rng.randrange(3)
        perm = list(gens[k])
        x, y = rng.sample(range(n), 2)
        perm[x], perm[y] = perm[y], perm[x]
        if rng.random() < 0.5:
            rng.shuffle(perm)
        gens[k] = tuple(perm)
        h = dataclasses.replace(handle, generators=tuple(gens))
        for i in (1, 2):
            outcome(h, i)


def test_random_windows_keep_relations():
    for sub in _random_box_windows(5, 10):
        handle = generate_group(sub, sub.poset.n)
        assert verify_relations(handle).ok
        for i in local_indices(handle):
            rep = classify_local(handle, i)
            assert rep.product_order in (1, 2, 3, 6)
            assert rep.group_order in (1, 2, 4, 6, 12)


def test_truncated_lengths_keep_comparable_swaps_fixed():
    # young 2,2 at length 3: (0,1,2) and (0,1,3); 1 < 2 and 1 < 3, so
    # the swapped (0,2,1) and (0,3,1) are no numberings and sigma_1 fixes both
    handle = generate_group(build_young_poset([2, 2]), 3)
    assert handle.paths == ((0, 1, 2), (0, 1, 3))
    assert handle.generators == ((0, 1),)
    # box 2,2 at length 3: 1 and 2 are incomparable and swap
    assert generate_group(build_box_poset(2, (2, 2)), 3).generators == ((1, 0),)


def test_apply_sigma_rejects_a_sequence_that_is_no_numbering():
    # 2 lies above 1 on a chain, so (0, 2, 1) is no numbering; this must
    # raise as a ValueError, which `python -O` keeps
    w = build_chain_poset(3)
    with pytest.raises(ValueError, match="not a numbering"):
        apply_sigma(w.poset, 1, (0, 2, 1))
    y = build_young_poset([2, 1])  # 1 below both 2 and 3
    with pytest.raises(ValueError, match="not a numbering"):
        apply_sigma(y.poset, 1, (0, 2, 1, 3))


def test_compose_on_small_permutations():
    assert compose((), ()) == ()
    assert compose((0,), (0,)) == (0,)
    assert compose((1, 0), (1, 0)) == (0, 1)
    assert compose((0, 1), (1, 0)) == (1, 0)
    assert compose([1, 0], (0, 1)) == (1, 0)  # a list operand still gives a tuple
    assert compose(("a",), (0,)) == ("a",)
    for p in itertools.permutations(range(4)):
        for q in itertools.permutations(range(4)):
            assert compose(p, q) == tuple(p[x] for x in q)


def _violations(report):
    return tuple(
        [(v.i, v.j, v.witness_path) for v in found]
        for found in (report.involution_violations, report.commuting_violations, report.braid_violations)
    )


def test_relation_report_names_each_broken_relation():
    handle = generate_group(build_antichain_poset(4), 5)
    assert (handle.length, handle.n_paths) == (5, 24)
    report = verify_relations(broken_handle(handle))
    assert not report.ok
    assert [(v.relation, v.i, v.j, v.witness_path) for v in report.involution_violations] == [("sigma^2", 2, 2, 3)]
    assert [(v.relation, v.i, v.j, v.witness_path) for v in report.commuting_violations] == [
        ("(sigma_i sigma_j)^2", 1, 3, 0)
    ]
    assert [(v.relation, v.i, v.j, v.witness_path) for v in report.braid_violations] == [
        ("(sigma_i sigma_{i+1})^6", 1, 2, 5),
        ("(sigma_i sigma_{i+1})^6", 2, 3, 2),
    ]
    # exchanging two involutions breaks only the commuting relation of the
    # pair that becomes adjacent
    sigma_1, sigma_2, sigma_3 = handle.generators
    swapped = verify_relations(dataclasses.replace(handle, generators=(sigma_2, sigma_1, sigma_3)))
    assert _violations(swapped) == ([], [(1, 3, 0)], [])


def test_relation_report_on_broken_generators_matches_oracle():
    rng = random.Random(31)
    windows = [w for w in CORPUS if w.family != "chain"] + [build_antichain_poset(5)]
    filled = [0, 0, 0]
    for _ in range(80):
        w = rng.choice(windows)
        handle = generate_group(w, rng.randint(3, w.poset.n))
        gens = list(handle.generators)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(gens))
            kind = rng.randrange(3)
            if kind == 0:  # any permutation
                perm = list(range(handle.n_paths))
                rng.shuffle(perm)
            elif kind == 1:  # another generator
                perm = gens[rng.randrange(len(gens))]
            else:  # one transposition composed in
                perm = list(gens[k])
                a, b = rng.sample(range(handle.n_paths), 2)
                perm[a], perm[b] = perm[b], perm[a]
            gens[k] = tuple(perm)
        broken = dataclasses.replace(handle, generators=tuple(gens))
        report = verify_relations(broken)
        expected = relation_violations(range(1, len(gens) + 1), broken.generators)
        assert _violations(report) == expected, (w.describe(), handle.length)
        assert report.ok == (expected == ([], [], []))
        assert {v.relation for v in report.involution_violations} <= {"sigma^2"}
        assert {v.relation for v in report.commuting_violations} <= {"(sigma_i sigma_j)^2"}
        assert {v.relation for v in report.braid_violations} <= {"(sigma_i sigma_{i+1})^6"}
        filled = [f + bool(found) for f, found in zip(filled, expected)]
    assert min(filled) >= 5, filled  # every list is exercised


def test_relation_shortcuts_match_oracle():
    # chain windows: one numbering, and every generator is the identity
    for w in (build_chain_poset(6), build_chain_poset(40)):
        for length in range(1, w.poset.n + 1):
            handle = generate_group(w, length)
            report = verify_relations(handle)
            assert report.ok
            gens = handle.generators
            assert _violations(report) == relation_violations(range(1, len(gens) + 1), gens) == ([], [], [])
    handle = generate_group(build_antichain_poset(4), 5)  # 24 paths, sigma_1..sigma_3
    n, ident = handle.n_paths, tuple(range(handle.n_paths))
    cases = [
        # pairwise disjoint supports, all involutions: every relation holds
        ((_cycles(n, (0, 1), (2, 3)), _cycles(n, (4, 5)), _cycles(n, (6, 7), (8, 9))), ([], [], [])),
        # disjoint supports: a 3-cycle, a transposition and a 4-cycle; the
        # 3-cycle's sixth power and the transposition's are the identity
        ((_cycles(n, (0, 1, 2)), _cycles(n, (5, 6)), _cycles(n, (10, 11, 12, 13))),
         ([(1, 1, 0), (3, 3, 10)], [(1, 3, 0)], [(2, 3, 10)])),
        # identities beside generators that are no involution
        ((ident, _cycles(n, (3, 4, 5)), ident), ([(2, 2, 3)], [], [])),
        ((ident, _cycles(n, (7, 8, 9, 6)), ident), ([(2, 2, 6)], [], [(1, 2, 6), (2, 3, 6)])),
        ((_cycles(n, (9, 8)), ident, _cycles(n, (20, 21, 22, 23))), ([(3, 3, 20)], [(1, 3, 20)], [(2, 3, 20)])),
        # overlapping supports, composed in full: paths of four and of three points
        ((_cycles(n, (0, 1), (2, 3)), _cycles(n, (1, 2)), _cycles(n, (2, 4))), ([], [(1, 3, 2)], [(1, 2, 0)])),
    ]
    for gens, expected in cases:
        broken = dataclasses.replace(handle, generators=gens)
        assert _violations(verify_relations(broken)) == relation_violations(range(1, len(gens) + 1), gens) == expected


def test_relation_report_on_identity_and_disjoint_generators_matches_oracle():
    rng = random.Random(53)
    windows = [w for w in CORPUS if w.family != "chain"] + [build_antichain_poset(5)]
    filled = [0, 0, 0]
    for _ in range(120):
        w = rng.choice(windows)
        handle = generate_group(w, rng.randint(3, w.poset.n))
        n, gens = handle.n_paths, list(handle.generators)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(gens))
            kind = rng.randrange(4)
            if kind == 0:  # the identity
                perm = list(range(n))
            elif kind == 1:  # a random permutation of a few points no other generator moves
                free = [x for x in range(n) if all(g[x] == x for j, g in enumerate(gens) if j != k)]
                points = rng.sample(free, min(len(free), rng.randint(2, 4)))
                perm = list(range(n))
                for x, y in zip(points, rng.sample(points, len(points))):
                    perm[x] = y
            elif kind == 2:  # one transposition composed in
                perm = list(gens[k])
                a, b = rng.sample(range(n), 2)
                perm[a], perm[b] = perm[b], perm[a]
            else:  # any permutation
                perm = list(range(n))
                rng.shuffle(perm)
            gens[k] = tuple(perm)
        broken = dataclasses.replace(handle, generators=tuple(gens))
        expected = relation_violations(range(1, len(gens) + 1), broken.generators)
        assert _violations(verify_relations(broken)) == expected, (w.describe(), handle.length, gens)
        filled = [f + bool(found) for f, found in zip(filled, expected)]
    assert min(filled) >= 5, filled  # every list is exercised


def test_relations_on_a_deep_chain_compose_nothing(monkeypatch):
    # group --chain 1500: one numbering, 1498 identity generators and
    # 1,122,751 pairs, each decided without a composition
    handle = generate_group(build_chain_poset(1500), 1500)
    calls = []
    real = symmetry.compose
    monkeypatch.setattr(symmetry, "compose", lambda p, q: calls.append(len(q)) or real(p, q))
    assert verify_relations(handle).ok
    assert calls == []


def _table_handles():
    """Every corpus window at every length, the random block-generator sets
    and the hand-built sets as bare handles (non-involutions and identities
    among them), and the broken handle."""
    handles = [generate_group(w, length) for w in CORPUS for length in range(1, w.poset.n + 1)]
    rng = random.Random(19)
    sets = [_random_block_generators(rng) for _ in range(150)] + _hand_built_generator_sets()
    handles += [_bare_handle(gens) for gens in sets]
    handles.append(broken_handle(generate_group(build_antichain_poset(4), 5)))
    return handles


def test_pair_table_matches_direct_composition():
    # skip masks against g(h(x)) == h(g(x)) point by point, whether
    # verify_relations filled the table or not
    for handle in _table_handles():
        gens = handle.generators
        masks = pair_masks(gens) if gens else []
        for checked in (False, True):
            h = dataclasses.replace(handle)
            if checked:
                verify_relations(h)
            assert h.pair_facts[0] == masks, (gens, checked)
        # a replaced handle may hold a list
        assert dataclasses.replace(handle, generators=list(gens)).pair_facts[0] == masks, gens


def test_group_answers_match_oracles_with_and_without_the_relation_check():
    for handle in _table_handles():
        gens = handle.generators
        try:
            expected_order = left_closure(gens, cap=10**4) if gens else (1, 0)
        except RuntimeError:
            expected_order = None
        relations = relation_violations(range(1, len(gens) + 1), gens)
        # a pair the oracle refuses fails its relation; a window's local
        # classes are the oracle's on the generators it realizes
        for i in local_indices(handle):
            oracle = _local_class_or_error(local_class, i, gens[i - 1], gens[i])
            if isinstance(oracle, str):
                _, j, k = _fault(i, oracle)
                assert (j, k) in [v[:2] for v in relations[0 if j == k else 2]], (gens, oracle)
        if handle.window is not None:  # bare generator sets have no window
            fresh = generate_group(handle.window, handle.length)
            local = [local_class(i, fresh.generators[i - 1], fresh.generators[i]) for i in local_indices(fresh)]
        for checked in (True, False):
            h = dataclasses.replace(handle)
            if checked:
                assert _violations(verify_relations(h)) == relations, gens
            stats = group_order(h, cap=10**4)
            got = (stats.order, stats.diameter) if not stats.capped else None
            assert got == expected_order, (gens, checked)
            if handle.window is not None:
                reports = [classify_local(h, i) for i in local_indices(h)]
                assert [(r.product_order, r.group_order, list(r.orbit_types)) for r in reports] == local, (gens, checked)
            if not checked:
                assert _violations(verify_relations(h)) == relations, gens
        if gens and expected_order is not None:
            elements, diameter = closure(handle, cap=10**4)
            assert (len(elements), diameter) == expected_order, gens


def _count_generator_pairs(monkeypatch, gens):
    """Patch `compose` and `itemgetter` in symmetry to count the full-length
    compositions of two generators, by unordered pair of positions."""
    n = len(gens[0])
    position = {}
    for k, g in enumerate(gens):
        position.setdefault(tuple(g), k)
    pairs = []
    real = symmetry.itemgetter

    def record(p, q):
        if len(p) == len(q) == n and tuple(p) in position and tuple(q) in position:
            pairs.append(frozenset((position[tuple(p)], position[tuple(q)])))

    def compose(p, q):
        record(p, q)
        return tuple(p[x] for x in q)

    def itemgetter(*items):
        get = real(*items)

        def counted(p):
            record(p, items)
            return get(p)
        return counted

    monkeypatch.setattr(symmetry, "compose", compose)
    monkeypatch.setattr(symmetry, "itemgetter", itemgetter)
    return pairs


@pytest.mark.parametrize(
    "window, cap",
    [
        (build_young_poset([4, 3, 2, 1]), 1000),
        (build_box_poset(2, (3, 3)), 20_000),
        (build_box_poset(3, (2, 2, 2)), 20_000),
        (build_antichain_poset(5), symmetry.GROUP_CAP),
        (build_antichain_poset(6), symmetry.GROUP_CAP),
    ],
    ids=lambda v: v.describe() if hasattr(v, "describe") else str(v),
)
def test_the_relation_check_leaves_nothing_to_compose(monkeypatch, window, cap):
    # group orders decided without listing the group: after the relation
    # check, the order composes no generator pair; the local classes,
    # read off the lattice, realize no generator and compose none
    handle = generate_group(window, window.poset.n)
    monkeypatch.setattr(symmetry, "closure", lambda handle, cap=None: pytest.fail("closure called"))
    pairs = _count_generator_pairs(monkeypatch, handle.generators)
    fresh = generate_group(window, window.poset.n)
    for i in local_indices(fresh):
        classify_local(fresh, i)
    assert fresh.generators._perms == [None] * len(fresh.generators) and pairs == []
    verify_relations(handle)
    assert pairs and max(collections.Counter(pairs).values()) == 1
    pairs.clear()
    group_order(handle, cap=cap)
    for i in local_indices(handle):
        classify_local(handle, i)
    assert pairs == []


@pytest.mark.parametrize(
    "argv, window",
    [
        (["--young", "4,3,2,1", "--group-cap", "1000"], build_young_poset([4, 3, 2, 1])),
        (["--antichain", "6"], build_antichain_poset(6)),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v.describe(),
)
def test_group_command_composes_each_generator_pair_at_most_once(monkeypatch, capsys, argv, window):
    gens = generate_group(window, window.poset.n).generators
    pairs = _count_generator_pairs(monkeypatch, gens)
    assert main(["group", *argv, "--local", "all"]) == 0
    assert "relations: all hold" in capsys.readouterr().out
    assert pairs and max(collections.Counter(pairs).values()) == 1


def test_a_replaced_handle_reads_no_stale_table():
    handle = generate_group(build_antichain_poset(4), 5)
    verify_relations(handle)
    broken = broken_handle(handle)
    assert broken.pair_facts[0] == pair_masks(broken.generators) != pair_masks(handle.generators)
    assert handle.pair_facts[0] == pair_masks(handle.generators)
    with pytest.raises(dataclasses.FrozenInstanceError):  # no field can be rebound under a table
        handle.generators = broken.generators
    assert handle.pair_facts[0] == pair_masks(handle.generators)
    # the broken pair's fault shows in its relation check; its local classes
    # come from a table of its own, which follows the window
    fault = _local_class_or_error(local_class, 1, broken.generators[0], broken.generators[1])
    assert fault == "product of adjacent involutions 1,2 has order 30"
    assert _fault(1, fault) in _faults(broken) and _fault(1, fault) not in _faults(handle)
    classify_local(handle, 1)
    assert "local_classes" not in vars(dataclasses.replace(handle))
    assert classify_local(broken, 1) == classify_local(handle, 1) and broken.local_classes is not handle.local_classes


def test_fiber_ids_follow_endpoint_fibers_once_per_handle():
    for w in CORPUS:
        for length in range(1, w.poset.n + 1):
            handle = generate_group(w, length)
            ids = handle.fiber_ids
            assert [[handle.paths[k] for k in f] for f in ids] == brute_fibers(handle.paths)
            assert handle.fiber_ids is ids
    shorter = dataclasses.replace(handle, paths=handle.paths[:-1])
    assert shorter.fiber_ids == list(symmetry._endpoint_fiber_ids(shorter.paths).values())


def test_endpoint_fibers_in_lexicographic_order_of_sorted_endpoints():
    # two chains 0 < 3 < 2 and 0 < 4 < 1: the lexicographically first
    # numbering, (0, 3, 2, 4), ends in {0, 2, 3, 4}, which sorts after {0, 1, 3, 4}
    w = parse_poset("el 0\nel 1\nel 2\nel 3\nel 4\ncov 0 3\ncov 0 4\ncov 3 2\ncov 4 1")
    handle = generate_group(w, 4)
    assert handle.paths[0] == (0, 3, 2, 4)
    fibers = [[handle.paths[k] for k in ids] for ids in handle.fiber_ids]
    assert [set(map(frozenset, f)) for f in fibers] == [{frozenset({0, 1, 3, 4})}, {frozenset({0, 2, 3, 4})}]
    assert fibers[0] == [(0, 3, 4, 1), (0, 4, 1, 3), (0, 4, 3, 1)]
    for length in range(1, w.poset.n + 1):
        handle = generate_group(w, length)
        keys = [sorted(handle.paths[ids[0]]) for ids in handle.fiber_ids]
        assert keys == sorted(keys)


def test_closure_needs_a_generator():
    with pytest.raises(ValueError, match="need at least one generator"):
        closure(_bare_handle([]))
