from __future__ import annotations

import pytest

from posetpaths import (
    AxisRaysIdeal,
    Element,
    FullIdeal,
    HookIdeal,
    build_antichain_poset,
    build_box_poset,
    build_young_poset,
    check_downward_closed,
    finite_set_ideal,
    ideal_member,
    parse_ideal,
    parse_poset,
)


def test_hook_first_row():
    spec = HookIdeal(1, 0)
    assert ideal_member(spec, Element(5, (1, 5)))
    assert not ideal_member(spec, Element(6, (2, 1)))


def test_hook_first_row_or_column():
    spec = HookIdeal(1, 1)
    assert ideal_member(spec, Element(3, (2, 1)))
    assert ideal_member(spec, Element(2, (1, 9)))
    assert not ideal_member(spec, Element(4, (2, 2)))


def test_full_contains_everything():
    spec = FullIdeal()
    for el in [Element(0), Element(3, (2, 2)), Element(9)]:
        assert ideal_member(spec, el)


def test_root_belongs_to_every_spec():
    for spec in [FullIdeal(), HookIdeal(1, 0), AxisRaysIdeal((0, 0, 1)), finite_set_ideal([4])]:
        assert ideal_member(spec, Element(0))


def test_axis_rays_generalizes_hook():
    hook = HookIdeal(2, 1)
    rays = AxisRaysIdeal((2, 1))
    for r in range(1, 5):
        for c in range(1, 5):
            el = Element(1, (r, c))
            assert ideal_member(hook, el) == ideal_member(rays, el)


def test_axis_rays_d3():
    spec = AxisRaysIdeal((1, 0, 2))
    assert ideal_member(spec, Element(1, (1, 5, 5)))
    assert ideal_member(spec, Element(2, (4, 4, 2)))
    assert not ideal_member(spec, Element(3, (2, 2, 3)))


def test_coordinate_free_element_rejected():
    w = build_antichain_poset(3)
    with pytest.raises(ValueError):
        ideal_member(HookIdeal(1, 0), w.poset.element(2))


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        ideal_member(HookIdeal(1, 0), Element(1, (1, 2, 3)))
    with pytest.raises(ValueError):
        ideal_member(AxisRaysIdeal((1, 1)), Element(1, (1, 2, 3)))


def test_finite_set_ideal_membership():
    spec = finite_set_ideal([1, 3])
    assert ideal_member(spec, Element(1))
    assert ideal_member(spec, Element(3))
    assert not ideal_member(spec, Element(2))


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
    check_downward_closed(FullIdeal(), young)
    check_downward_closed(HookIdeal(1, 0), young)
    check_downward_closed(HookIdeal(0, 1), box)
    check_downward_closed(HookIdeal(2, 1), box)
    check_downward_closed(AxisRaysIdeal((1, 1, 0)), box3)
    # a finite set missing an interior element is not downward closed
    with pytest.raises(ValueError):
        check_downward_closed(finite_set_ideal([2]), young)
    # nor is a set naming an id the window does not have (young 3,2 has ids 0..5)
    with pytest.raises(ValueError, match=r"set:1,6 names ids outside young\[3,2\] \(0..5\): 6"):
        check_downward_closed(finite_set_ideal([1, 6]), young)


def test_downward_closure_of_hooks_everywhere_in_window():
    box = build_box_poset(2, (4, 4))
    for k in range(3):
        for l in range(3):
            check_downward_closed(HookIdeal(k, l), box)


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
            check_downward_closed(spec, window)
        assert str(info.value) == text
