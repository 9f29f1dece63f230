"""Finitely generated abelian groups in invariant-factor form.

A group is Z^r x Z_{m_1} x ... x Z_{m_s} with 2 <= m_1 | m_2 | ... ;
element coordinates list the free part first, then the torsion part.
These are the grading groups: everything here is exact integer
arithmetic, no field scalars are ever used as degrees.
"""

from __future__ import annotations

import itertools
import re

from .errors import GroupMismatch, InconsistentHomomorphism


class AbelianGroup:
    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        # exact types: int() would read True as 1 and 2.5 as 2
        if type(free_rank) is not int:
            raise ValueError(f"free rank {free_rank!r} is not an int")
        if free_rank < 0:
            raise ValueError("negative free rank")
        if not isinstance(torsion, (tuple, list)):  # tuple() raises TypeError on an int
            raise ValueError(f"torsion {torsion!r} is not a tuple of invariant factors")
        torsion = tuple(torsion)
        for m in torsion:
            if type(m) is not int:
                raise ValueError(f"invariant factor {m!r} is not an int")
            if m < 2:
                raise ValueError(f"invariant factor {m} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors {a}, {b} violate the divisibility chain")
        self.free_rank = free_rank
        self.torsion = torsion

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return f"AbelianGroup(free_rank={self.free_rank!r}, torsion={self.torsion!r})"

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    def _reduce(self, coords) -> tuple[int, ...]:
        coords = tuple(coords)
        for c in coords:  # exact types, as for ranks and factors
            if type(c) is not int:
                raise ValueError(f"coordinate {c!r} is not an int")
        if len(coords) != self.ngens:
            raise ValueError(f"expected {self.ngens} coordinates, got {len(coords)}")
        free = coords[: self.free_rank]
        tors = tuple(c % m for c, m in zip(coords[self.free_rank :], self.torsion))
        return free + tors

    def element(self, coords) -> "GroupElem":
        return GroupElem(self, self._reduce(coords))

    def zero(self) -> "GroupElem":
        return self.element((0,) * self.ngens)

    def elements(self, free_bound: int = 0):
        """Deterministic element enumeration.

        Free coordinates run over 0, 1, -1, 2, -2, ..., +-free_bound;
        torsion coordinates over their full range.  For finite groups
        this lists every element once.
        """
        spiral = [0]
        for k in range(1, free_bound + 1):
            spiral += [k, -k]
        axes = [spiral] * self.free_rank + [list(range(m)) for m in self.torsion]
        for coords in itertools.product(*axes):
            yield self.element(coords)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z{m}" for m in self.torsion]
        return " x ".join(parts) if parts else "trivial"

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}

    @staticmethod
    def parse(name: str) -> "AbelianGroup":
        """Parse CLI group names: 'trivial', 'Z', 'Z6', 'ZxZ3', 'ZxZxZ2', ...

        Factors must be given free-part-first and in invariant-factor order.
        """
        text = name.strip()
        if text.lower() in ("trivial", "1", "0"):
            return AbelianGroup()
        rank = 0
        torsion: list[int] = []
        for part in text.split("x"):
            part = part.strip()
            m = re.fullmatch(r"[Zz](_?(\d+))?", part)
            if not m:
                raise ValueError(f"cannot parse group factor {part!r}")
            if m.group(2) is None:
                if torsion:
                    raise ValueError("free factors must precede torsion factors")
                rank += 1
            else:
                torsion.append(int(m.group(2)))
        return AbelianGroup(rank, tuple(torsion))


class GroupElem:
    __slots__ = ("group", "coords")

    def __init__(self, group: AbelianGroup, coords: tuple[int, ...]):
        self.group = group
        self.coords = coords

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # as tuples, the groups are compared by identity first
        return (self.group, self.coords) == (other.group, other.coords)

    def __hash__(self):
        return hash((self.group, self.coords))

    def _check(self, other: "GroupElem") -> None:
        if not isinstance(other, GroupElem) or other.group != self.group:
            raise GroupMismatch("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return self.group.element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return self.group.element(tuple(-a for a in self.coords))

    def __sub__(self, other):
        self._check(other)
        return self.group.element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, k: int):
        return self.group.element(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        if self.group.ngens == 1:
            return str(self.coords[0])
        return "(" + ", ".join(map(str, self.coords)) + ")"


def validate_hom(source: AbelianGroup, target: AbelianGroup, images: list[GroupElem]) -> None:
    """Check that sending source generators to `images` is a homomorphism."""
    if len(images) != source.ngens:
        raise InconsistentHomomorphism(
            f"need {source.ngens} generator images, got {len(images)}"
        )
    for g in images:
        if g.group != target:
            raise GroupMismatch("image lies in the wrong group")
    for m, g in zip(source.torsion, images[source.free_rank :]):
        if not (m * g).is_zero():
            raise InconsistentHomomorphism(
                f"generator of order {m} mapped to element of incompatible order"
            )


def apply_hom(images: list[GroupElem], elem_coords, target: AbelianGroup) -> GroupElem:
    """Image of the element with the given source coordinates under
    generator i -> images[i], summed on raw ints and reduced once."""
    for g in images:
        if g.group != target:
            raise GroupMismatch("image lies in the wrong group")
    acc = [0] * target.ngens
    for c, g in zip(elem_coords, images):
        if c:
            for k, a in enumerate(g.coords):
                acc[k] += c * a
    return GroupElem(target, target._reduce(acc))


def all_homs(source: AbelianGroup, target: AbelianGroup, free_bound: int):
    """Every homomorphism source -> target, as image tuples.

    Images of free source generators range over target elements with
    free coordinates bounded by free_bound; images of torsion
    generators are filtered for order compatibility (forcing their
    free coordinates to zero, so the bound is immaterial there).
    """
    pool = list(target.elements(free_bound))
    axes = []
    for i in range(source.ngens):
        if i < source.free_rank:
            axes.append(pool)
        else:
            m = source.torsion[i - source.free_rank]
            axes.append([g for g in pool if (m * g).is_zero()])
    for images in itertools.product(*axes):
        yield list(images)
