from __future__ import annotations

import itertools

import pytest

from posetpaths import (
    AxisRaysIdeal,
    FullIdeal,
    HookIdeal,
    ROOT,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
    finite_set_ideal,
    ideal_mask,
    parse_ideal,
    parse_poset,
)
from posetpaths.ideals import member_coords


def ids_of(window, mask):
    """The ids of a poset bitmask, ascending."""
    return [x for x in range(window.poset.n) if mask & window.poset.bit(x)]


def test_hook_first_row():
    spec = HookIdeal(1, 0)
    assert member_coords(spec, (1, 5))
    assert not member_coords(spec, (2, 1))


def test_hook_first_row_or_column():
    spec = HookIdeal(1, 1)
    assert member_coords(spec, (2, 1))
    assert member_coords(spec, (1, 9))
    assert not member_coords(spec, (2, 2))


def test_full_contains_everything():
    spec = FullIdeal()
    for coords in [(1,), (2, 2), (9, 9, 9)]:
        assert member_coords(spec, coords)
    # the antichain's elements have no coordinates, and all of them are in
    window = build_antichain_poset(3)
    assert ids_of(window, ideal_mask(spec, window)) == [0, 1, 2, 3]


def test_root_belongs_to_every_spec():
    # young windows give the root no coordinates; the box root (1,1,1) lies
    # on no ray of rays:0,0,0
    young = build_young_poset([2, 1])
    box = build_box_poset(3, (2, 2, 2))
    cases = [
        (FullIdeal(), young),
        (HookIdeal(0, 0), young),
        (AxisRaysIdeal((0, 0, 0)), box),
        (AxisRaysIdeal((0, 0, 1)), box),
        (finite_set_ideal([1]), young),
    ]
    for spec, window in cases:
        assert ideal_mask(spec, window) & window.poset.bit(ROOT), spec.name()
    assert ideal_mask(AxisRaysIdeal((0, 0, 0)), box) == box.poset.bit(ROOT)


def test_axis_rays_generalizes_hook():
    hook = HookIdeal(2, 1)
    rays = AxisRaysIdeal((2, 1))
    for r in range(1, 5):
        for c in range(1, 5):
            assert member_coords(hook, (r, c)) == member_coords(rays, (r, c))
    window = build_box_poset(2, (4, 4))
    assert ideal_mask(hook, window) == ideal_mask(rays, window)


def test_axis_rays_d3():
    spec = AxisRaysIdeal((1, 0, 2))
    assert member_coords(spec, (1, 5, 5))
    assert member_coords(spec, (4, 4, 2))
    assert not member_coords(spec, (2, 2, 3))


def test_coordinate_free_element_rejected():
    w = build_antichain_poset(3)
    with pytest.raises(ValueError, match="^coordinate-free element id 1 queried against hook:1,0$"):
        ideal_mask(HookIdeal(1, 0), w)


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        member_coords(HookIdeal(1, 0), (1, 2, 3))
    with pytest.raises(ValueError):
        member_coords(AxisRaysIdeal((1, 1)), (1, 2, 3))
    # box 2,2,2 lists (1,1,2) first after the root
    with pytest.raises(ValueError, match=r"^hook ideal needs 2 coordinates, got \(1, 1, 2\)$"):
        ideal_mask(HookIdeal(1, 0), build_box_poset(3, (2, 2, 2)))
    with pytest.raises(ValueError, match=r"^rays ideal over 1 axes queried with \(1, 1\)$"):
        ideal_mask(AxisRaysIdeal((1,)), build_young_poset([2, 1]))
    # the chain's coordinates are single: a hook never fits, one ray does
    chain = build_chain_poset(4)
    with pytest.raises(ValueError, match="hook ideal needs 2 coordinates"):
        ideal_mask(HookIdeal(1, 1), chain)
    assert ids_of(chain, ideal_mask(AxisRaysIdeal((2,)), chain)) == [0, 1]


def test_finite_set_ideal_membership():
    young = build_young_poset([3, 2])  # row-major: 1 2 3 / 4 5
    assert ids_of(young, ideal_mask(finite_set_ideal([1, 2, 4]), young)) == [0, 1, 2, 4]
    assert ids_of(young, ideal_mask(finite_set_ideal([]), young)) == [0]
    with pytest.raises(ValueError, match="has no coordinate membership"):
        member_coords(finite_set_ideal([1]), (1, 1))


def test_ideal_mask_matches_coordinate_membership_on_windows():
    windows = [
        build_young_poset([4, 3, 1]),
        build_box_poset(2, (3, 4)),
        build_box_poset(3, (2, 3, 2)),
        build_chain_poset(5),
    ]
    for window in windows:
        poset = window.poset
        d = len(poset.coords[1])
        specs = [FullIdeal()]
        specs += [HookIdeal(k, l) for k in range(3) for l in range(3)] if d == 2 else []
        specs += [AxisRaysIdeal(rays) for rays in itertools.product(range(3), repeat=d)]
        for spec in specs:
            expected = [0] + [x for x in range(1, poset.n) if member_coords(spec, poset.coords[x])]
            assert ids_of(window, ideal_mask(spec, window)) == expected, (window.describe(), spec.name())


def test_parse_ideal_round_trips():
    for text, cls in [
        ("full", FullIdeal),
        ("set:1,5,9", type(finite_set_ideal([1]))),
        ("hook:1,0", HookIdeal),
        ("rays:2,0,1", AxisRaysIdeal),
    ]:
        spec = parse_ideal(text)
        assert isinstance(spec, cls)
        assert parse_ideal(spec.name()) == spec


def test_parse_ideal_rejects_garbage():
    for text in ["hok:1,0", "hook:1", "hook:-1,0", "rays:", "set:a,b", ""]:
        with pytest.raises(ValueError):
            parse_ideal(text)


def test_downward_closure_on_windows():
    young = build_young_poset([3, 2])
    box = build_box_poset(2, (3, 3))
    box3 = build_box_poset(3, (2, 2, 2))
    assert ids_of(young, ideal_mask(FullIdeal(), young)) == [0, 1, 2, 3, 4, 5]
    assert ids_of(young, ideal_mask(HookIdeal(1, 0), young)) == [0, 1, 2, 3]
    # box 3,3 ids follow (1,1), (1,2), (1,3), (2,1), ...: column 1 is 0, 3, 6
    assert ids_of(box, ideal_mask(HookIdeal(0, 1), box)) == [0, 3, 6]
    assert ids_of(box, ideal_mask(HookIdeal(2, 1), box)) == [0, 1, 2, 3, 4, 5, 6]
    assert ids_of(box3, ideal_mask(AxisRaysIdeal((1, 1, 0)), box3)) == [0, 1, 2, 3, 4, 5]
    # a finite set missing an interior element is not downward closed
    with pytest.raises(ValueError):
        ideal_mask(finite_set_ideal([2]), young)
    # nor is a set naming an id the window does not have (young 3,2 has ids 0..5)
    with pytest.raises(ValueError, match=r"set:1,6 names ids outside young\[3,2\] \(0..5\): 6"):
        ideal_mask(finite_set_ideal([1, 6]), young)


def test_downward_closure_of_hooks_everywhere_in_window():
    box = build_box_poset(2, (4, 4))
    for k in range(3):
        for l in range(3):
            ideal_mask(HookIdeal(k, l), box)


def test_downward_closure_errors_name_the_least_member_and_cover():
    young = build_young_poset([3, 2])  # row-major: 1 2 3 / 4 5
    # a coordinate ideal of a file window whose ids do not follow the order:
    # 2 at (1,2) lies in the first row, its lower cover 1 at (5,5) does not
    chain = parse_poset("el 0 1 1\nel 1 5 5\nel 2 1 2\ncov 0 1\ncov 1 2")
    cases = [
        (finite_set_ideal([2]), young, "set:2 is not downward closed on young[3,2]: 2 in, lower cover 1 out"),
        (finite_set_ideal([1, 3, 5]), young, "set:1,3,5 is not downward closed on young[3,2]: 3 in, lower cover 2 out"),
        (finite_set_ideal([1, 5]), young, "set:1,5 is not downward closed on young[3,2]: 5 in, lower cover 2 out"),
        (HookIdeal(1, 0), chain, "hook:1,0 is not downward closed on file: 2 in, lower cover 1 out"),
    ]
    for spec, window, text in cases:
        with pytest.raises(ValueError) as info:
            ideal_mask(spec, window)
        assert str(info.value) == text
