from __future__ import annotations

import itertools
import random

import pytest

from posetpaths import (
    CapExceeded,
    apply_sigma,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
    classify_local,
    endpoint_fibers,
    enumerate_numberings,
    generate_group,
    group_order,
    local_indices,
    orbit,
    verify_relations,
)
from posetpaths import symmetry
from posetpaths.symmetry import ALLOWED_ORBIT_TAGS, closure, compose, perm_order

from oracles import brute_numberings, brute_orbit, brute_symmetry_group_order, left_closure, sigma_map

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
    # numbering; the group handle's generators are the same map on path ids
    for w in CORPUS:
        for length in range(1, w.poset.n + 1):
            valid = brute_numberings(w.poset, length)
            handle = generate_group(w, length)
            assert list(handle.paths) == valid
            assert handle.sigma_indices == tuple(range(1, length - 1))
            for i, gen in zip(handle.sigma_indices, handle.generators):
                assert gen == tuple(valid.index(sigma_map(w.poset, seq, i)) for seq in valid)
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
            elements, diameter = closure(handle.generators)
            assert (len(elements), diameter) == left_closure(handle.generators), (w.describe(), length)
            assert len(elements) == brute_symmetry_group_order(
                w.poset, list(handle.paths)
            )
    # pruning reads involution and commutation off the generators
    for gens in _hand_built_generator_sets():
        elements, diameter = closure(gens)
        assert (len(elements), diameter) == left_closure(gens), gens
        # the same pruning on the orbit of a point pair, against a plain search
        seen, frontier = {(0, 1)}, [(0, 1)]
        for t in frontier:
            for g in gens:
                u = (g[t[0]], g[t[1]])
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        assert set(symmetry._orbit(gens, (0, 1), None)[0]) == seen, gens


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
    elements, diameter = closure(handle.generators, cap=120)
    assert (len(elements), diameter) == (120, 10)
    for cap in (119, 7):
        with pytest.raises(CapExceeded):
            closure(handle.generators, cap=cap)
        with pytest.raises(RuntimeError):
            left_closure(handle.generators, cap=cap)
    for w in (build_young_poset([4, 3, 2, 1]), build_box_poset(2, (3, 3))):
        gens = generate_group(w, w.poset.n).generators
        with pytest.raises(CapExceeded):
            closure(gens, cap=1000)
        with pytest.raises(RuntimeError):
            left_closure(gens, cap=1000)


def test_group_order_caps_on_box_windows(monkeypatch):
    # the orbit bound decides these without listing a group element
    def no_closure(generators, cap=None):
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
    w = build_chain_poset(5)
    phi = enumerate_numberings(w, 5)[0]
    assert orbit(phi, w) == [phi]


def test_orbit_young_21_swap():
    w = build_young_poset([2, 1])
    paths = enumerate_numberings(w, 4)
    assert len(paths) == 2
    for phi in paths:
        assert set(orbit(phi, w)) == set(paths)


def test_orbit_young_32_reaches_all_five():
    w = build_young_poset([3, 2])
    paths = enumerate_numberings(w, 6)
    assert len(paths) == 5
    got = orbit(paths[0], w)
    assert set(got) == set(paths)


def test_orbits_equal_endpoint_fibers():
    for w in CORPUS:
        full = w.poset.n
        for length in range(2, full + 1):
            paths = enumerate_numberings(w, length)
            fibers = endpoint_fibers(paths)
            for phi in paths:
                got = set(orbit(phi, w))
                fiber = set(fibers[frozenset(phi)])
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
        gens = dict(zip(handle.sigma_indices, handle.generators))
        for i in handle.sigma_indices:
            if i + 1 in gens:
                assert perm_order(compose(gens[i], gens[i + 1])) in (1, 2, 3, 6)


def test_classify_local_chain_trivial():
    handle = generate_group(build_chain_poset(6), 6)
    rep = classify_local(handle, 1)
    assert rep.product_order == 1
    assert rep.group_order == 1
    assert rep.sigma_i_trivial and rep.sigma_next_trivial
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
    assert rep.sigma_i_trivial and not rep.sigma_next_trivial
    assert sorted(tag for _, tag in rep.orbit_types) == ["Z2-swap", "trivial"]


def test_local_reports_on_corpus_within_allowed_structure():
    for w in CORPUS:
        handle = generate_group(w, w.poset.n)
        for i in local_indices(handle):
            rep = classify_local(handle, i)
            assert rep.product_order in (1, 2, 3, 6), (w.describe(), i)
            assert rep.group_order in (1, 2, 4, 6, 12), (w.describe(), i)
            for _, tag in rep.orbit_types:
                assert tag in ALLOWED_ORBIT_TAGS, (w.describe(), i, tag)


TAG_ORDER = {"trivial": 1, "Z2-swap": 2, "3-cycle-class": 6, "S3-class": 6, "order-6-dihedral-class": 12}


def _restricted_pairs(a, b):
    """(a, b) relabelled onto each orbit of <a, b>, found by a search from each point."""
    seen = set()
    for s in range(len(a)):
        if s in seen:
            continue
        orb = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in (a[x], b[x]):
                if y not in orb:
                    orb.add(y)
                    stack.append(y)
        seen |= orb
        points = sorted(orb)
        pos = {x: k for k, x in enumerate(points)}
        yield tuple(pos[a[x]] for x in points), tuple(pos[b[x]] for x in points)


@pytest.mark.parametrize(
    "window",
    [
        build_young_poset([4, 3, 2, 1]),
        build_young_poset([3, 3]),
        build_young_poset([4, 2, 1]),
        build_box_poset(3, (2, 2, 3)),
        build_antichain_poset(5),
        build_young_poset([4, 1]),  # a hook: sigma_1 is the identity, sigma_2 is not
        build_chain_poset(5),  # every generator is the identity
    ],
    ids=lambda w: w.describe(),
)
def test_local_orders_match_closure_oracle_per_pair_and_orbit(window):
    handle = generate_group(window, window.poset.n)
    for i in local_indices(handle):
        a, b = handle.generator(i), handle.generator(i + 1)
        rep = classify_local(handle, i)
        assert rep.group_order == left_closure([a, b])[0], i
        assert rep.product_order == left_closure([compose(a, b)])[0], i
        expected = sorted((len(ra), left_closure([ra, rb])[0]) for ra, rb in _restricted_pairs(a, b))
        assert sorted((size, TAG_ORDER[tag]) for size, tag in rep.orbit_types) == expected, i


def test_random_windows_keep_relations():
    # random downward-closed windows of a 3x3 box exercise shapes beyond
    # the fixed corpus
    rng = random.Random(5)
    box = build_box_poset(2, (3, 3))
    from posetpaths import addable_elements, parse_poset

    for _ in range(10):
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
        sub = parse_poset("\n".join(lines))
        handle = generate_group(sub, sub.poset.n)
        assert verify_relations(handle).ok
        for i in local_indices(handle):
            rep = classify_local(handle, i)
            assert rep.product_order in (1, 2, 3, 6)
            assert rep.group_order in (1, 2, 4, 6, 12)
