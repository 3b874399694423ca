"""Finitely parametrized ideals of the ambient poset families.

Hook and axis-ray specs describe one-dimensional ideals: unions of
finitely many full rows/columns (rays along coordinate axes), which have
boundedly many pairwise incomparable elements no matter how large the
window. `full` is the nonproper ideal, `set:` an explicit finite ideal
of one window.

Membership has one route per kind of point: `member_coords` for a point
of the ambient family (the growth samplers' cells), `ideal_mask` for the
elements of one window, which also checks that the spec is an ideal of
it. The root belongs to every ideal (it lies below everything), so
`ideal_mask` never rejects id 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .posets import PosetWindow, ROOT


@dataclass(frozen=True)
class FullIdeal:
    def name(self) -> str:
        return "full"


@dataclass(frozen=True)
class FiniteSetIdeal:
    ids: frozenset[int]

    def name(self) -> str:
        return "set:" + ",".join(str(i) for i in sorted(self.ids - {ROOT}))


@dataclass(frozen=True)
class HookIdeal:
    """First `rows` rows union first `cols` columns of Z+^2."""

    rows: int
    cols: int

    def name(self) -> str:
        return f"hook:{self.rows},{self.cols}"


@dataclass(frozen=True)
class AxisRaysIdeal:
    """Per-axis generalization of the hook: x is in the ideal when some
    coordinate x_k is at most rays[k]."""

    rays: tuple[int, ...]

    def name(self) -> str:
        return "rays:" + ",".join(str(r) for r in self.rays)


IdealSpec = FullIdeal | FiniteSetIdeal | HookIdeal | AxisRaysIdeal


def finite_set_ideal(ids) -> FiniteSetIdeal:
    return FiniteSetIdeal(frozenset(int(i) for i in ids) | {ROOT})


def parse_ideal(text: str) -> IdealSpec:
    """Parse the command syntax: full | set:1,5,9 | hook:k,l | rays:a1,...,ad."""
    t = text.strip()
    if t == "full":
        return FullIdeal()
    kind, _, args = t.partition(":")
    if kind == "set":
        try:
            return finite_set_ideal(int(x) for x in args.split(",") if x != "")
        except ValueError as exc:
            raise ValueError(f"bad set ideal {text!r}") from exc
    if kind == "hook":
        try:
            k, l = (int(x) for x in args.split(","))
        except ValueError as exc:
            raise ValueError(f"bad hook ideal {text!r}") from exc
        if k < 0 or l < 0:
            raise ValueError("hook parameters must be >= 0")
        return HookIdeal(k, l)
    if kind == "rays":
        try:
            rays = tuple(int(x) for x in args.split(","))
        except ValueError as exc:
            raise ValueError(f"bad rays ideal {text!r}") from exc
        if not rays or any(r < 0 for r in rays):
            raise ValueError("rays need one count >= 0 per axis")
        return AxisRaysIdeal(rays)
    raise ValueError(f"unknown ideal spec {text!r}")


def member_coords(spec: IdealSpec, coords: tuple[int, ...]) -> bool:
    """Membership for a coordinate point of the ambient family."""
    if isinstance(spec, FullIdeal):
        return True
    if isinstance(spec, HookIdeal):
        if len(coords) != 2:
            raise ValueError(f"hook ideal needs 2 coordinates, got {coords}")
        r, c = coords
        return r <= spec.rows or c <= spec.cols
    if isinstance(spec, AxisRaysIdeal):
        if len(coords) != len(spec.rays):
            raise ValueError(
                f"rays ideal over {len(spec.rays)} axes queried with {coords}"
            )
        return any(x <= a for x, a in zip(coords, spec.rays))
    raise ValueError(f"{spec.name()} has no coordinate membership")


def ideal_mask(spec: IdealSpec, window: PosetWindow) -> int:
    """The window's elements in the spec, root included, as a poset bitmask
    (see `Poset.bit`). Raises ValueError when the spec is no ideal of the
    window: a finite set naming an id outside it, a coordinate spec meeting
    an element without coordinates or with too few or too many, or some
    window element in the spec while a lower cover is not."""
    poset = window.poset
    if isinstance(spec, FiniteSetIdeal):
        outside = sorted(i for i in spec.ids if not 0 <= i < poset.n)
        if outside:
            raise ValueError(
                f"{spec.name()} names ids outside {window.describe()} "
                f"(0..{poset.n - 1}): {','.join(map(str, outside))}"
            )
        inside = poset.mask_of(spec.ids)
    elif isinstance(spec, FullIdeal):
        inside = poset.mask_of(range(poset.n))
    else:
        inside = poset.bit(ROOT)
        for x in range(1, poset.n):
            coords = poset.coords[x]
            if coords is None:
                raise ValueError(f"coordinate-free element id {x} queried against {spec.name()}")
            if member_coords(spec, coords):
                inside |= poset.bit(x)
    hit = poset.missing_cover(inside)
    if hit is not None:
        raise ValueError(
            f"{spec.name()} is not downward closed on {window.describe()}: "
            f"{hit[0]} in, lower cover {hit[1]} out"
        )
    return inside
