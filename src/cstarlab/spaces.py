"""Finite discrete spaces and the maps between them.

At this scale every compact Hausdorff space is a finite set of labelled
points with the discrete topology, every subset is closed, and every map
is continuous.  The classes here are plain immutable values; a map's
target indices are also the character map of its pullback of functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidPointMap, InvalidSpace

__all__ = ["FiniteSpace", "ContinuousMap"]


@dataclass(frozen=True)
class FiniteSpace:
    """An ordered tuple of distinct point labels; order fixes coordinates."""

    points: tuple[str, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) == 0:
            raise InvalidSpace("a finite space needs at least one point")
        if any(not isinstance(p, str) for p in pts):
            raise InvalidSpace("point labels must be strings")
        # --zero-set splits on commas, and describe() joins labels with them
        if any("," in p for p in pts):
            raise InvalidSpace(f"point labels must not contain a comma: {pts!r}")
        if len(set(pts)) != len(pts):
            raise InvalidSpace(f"point labels must be distinct: {pts!r}")

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise InvalidSpace(f"label {label!r} is not a point of {self}") from None

    def __contains__(self, label: object) -> bool:
        return label in self.points

    def __repr__(self) -> str:
        return f"FiniteSpace({', '.join(self.points)})"


@dataclass(frozen=True)
class ContinuousMap:
    """A total map between finite spaces, stored as one image label per point.

    ``assignment[i]`` is the image of ``source.points[i]``, and ``images[i]``
    its index in the target.  Continuity is automatic for discrete spaces,
    so validation only checks totality and that every image is a point of
    the target.
    """

    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple[str, ...]
    images: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        assignment = tuple(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if len(assignment) != self.source.size:
            raise InvalidPointMap(
                f"assignment has {len(assignment)} entries for "
                f"{self.source.size} source points"
            )
        missing = [lab for lab in assignment if lab not in self.target]
        if missing:
            raise InvalidPointMap(f"image labels {missing!r} are not in the target")
        idx = tuple(self.target.index(lab) for lab in assignment)
        object.__setattr__(self, "images", idx)

    @classmethod
    def identity(cls, space: FiniteSpace) -> "ContinuousMap":
        return cls(space, space, space.points)

    def then(self, other: "ContinuousMap") -> "ContinuousMap":
        """Composite ``other . self`` (apply self first)."""
        if other.source != self.target:
            raise InvalidPointMap("composition needs matching middle space")
        return ContinuousMap(
            self.source,
            other.target,
            tuple(other.assignment[j] for j in self.images),
        )

    def is_bijection(self) -> bool:
        return (
            self.source.size == self.target.size
            and len(set(self.assignment)) == self.source.size
        )

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{p}->{q}" for p, q in zip(self.source.points, self.assignment)
        )
        return f"ContinuousMap({pairs})"
