"""Weak preference orders over finite universes, and deterministic tie-breaking.

A `WeakOrder` is an ordered list of tie groups, best group first.  Two ids in
the same group are tied; an id in an earlier group is strictly preferred to
every id in a later group.  Ids may be strings (edges, arcs, students) or
integers (commodity indices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from .errors import InputError

Alt = Hashable


@dataclass(frozen=True)
class WeakOrder:
    """An ordered partition of a finite universe into preference tie groups."""

    tie_groups: tuple[tuple[Alt, ...], ...]

    def __post_init__(self):
        seen = set()
        for group in self.tie_groups:
            if not group:
                raise InputError("weak order contains an empty tie group")
            for alt in group:
                if alt in seen:
                    raise InputError(f"alternative {alt!r} appears twice in weak order")
                seen.add(alt)

    @property
    def universe(self) -> frozenset:
        return frozenset(a for group in self.tie_groups for a in group)

    @property
    def is_strict(self) -> bool:
        return all(len(group) == 1 for group in self.tie_groups)

    def ranks(self) -> dict[Alt, int]:
        """Map each alternative to its group index (0 = best)."""
        out = {}
        for i, group in enumerate(self.tie_groups):
            for alt in group:
                out[alt] = i
        return out


def strict_order(alts: Iterable[Alt]) -> WeakOrder:
    """Build a strict order from best to worst."""
    return WeakOrder(tuple((a,) for a in alts))


def break_ties(order: WeakOrder, fallback: Mapping[Alt, int]) -> WeakOrder:
    """Refine `order` into a strict order.

    Every strict preference of the input is preserved; ids tied in the input
    are ordered by ascending `fallback` value.  The refinement is
    deterministic, so whole pipelines that start with tie-breaking are
    reproducible.
    """
    groups: list[tuple[Alt, ...]] = []
    for group in order.tie_groups:
        for alt in sorted(group, key=lambda a: fallback[a]):
            groups.append((alt,))
    return WeakOrder(tuple(groups))
