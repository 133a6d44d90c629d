"""Exception hierarchy.

Three families matter to callers: bad input text (GraphFormatError), domain
preconditions the caller can violate (PreconditionError and friends), and
StructureViolation, which flags a state that is impossible for valid input
and therefore indicates a bug in this package, never in the caller's data.
"""

from __future__ import annotations


class CathedralError(Exception):
    """Base class for every error raised by this package."""


class GraphFormatError(CathedralError):
    """Malformed edge-list text or decomposition-tree JSON."""


class SearchBudgetExceeded(CathedralError):
    """An exhaustive alternating-path search ran out of its expansion budget."""


class PreconditionError(CathedralError):
    """The caller violated an operation's stated precondition."""


class NotFactorizableError(PreconditionError):
    """The operation needs a graph with a perfect matching."""


class NotSaturatedError(PreconditionError):
    """The operation needs a saturated graph."""


class ComponentLimitError(PreconditionError):
    """The component count exceeds the limit the caller set."""


class NoMinimumComponent(PreconditionError):
    """The component order has no minimum element."""


class ConstructionError(PreconditionError):
    """Invalid input to the joining construction."""


class FoundationNotSaturated(ConstructionError):
    pass


class FoundationNotElementary(ConstructionError):
    pass


class TowerNotSaturated(ConstructionError):
    pass


class ClassKeyMismatch(ConstructionError):
    pass


class VertexIdCollision(ConstructionError):
    pass


class StructureViolation(CathedralError):
    """A guarantee that holds for every valid input failed.

    These are never repaired or swallowed: each one falsifies a structural
    guarantee the package relies on, so surfacing it loudly is the point.
    """


class DeficiencyViolation(StructureViolation):
    """The deletion partition broke the Gallai-Edmonds deficiency identity."""


class EquivalenceViolation(StructureViolation):
    """The same-class relation failed to be an equivalence."""


class PartialOrderViolation(StructureViolation):
    """The component order failed reflexivity, antisymmetry, or transitivity."""


class ClassAssignmentViolation(StructureViolation):
    """An upper component's neighborhood in its base is not inside one class."""


class MinimumComponentMissing(StructureViolation):
    """A saturated graph's component order lacked a minimum element."""


class TowerAssignmentViolation(StructureViolation):
    """A tower's neighborhood did not select exactly one foundation class."""


class MultipleTowersPerClass(StructureViolation):
    """Two towers attached to the same foundation class."""


class JoinEdgeMissing(StructureViolation):
    """A class vertex and a tower vertex of a saturated graph are not adjacent."""


class ConstructionViolation(StructureViolation):
    """The joining construction's output broke one of its guarantees."""
