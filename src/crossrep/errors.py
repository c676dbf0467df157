"""Exception hierarchy shared by every module.

All library errors derive from :class:`CrossrepError` so callers (and the
CLI exit-code mapping) can distinguish library failures from bugs.
"""


class CrossrepError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CrossrepError):
    """Operands have incompatible shapes."""


class NotUnitary(CrossrepError):
    """A matrix expected to be unitary fails the tolerance check."""


class LabelMismatch(CrossrepError):
    """Two representations do not share generator labels."""


class NotIrreducible(CrossrepError):
    """An operation requiring an irreducible representation got a reducible one."""


class DecompositionFailed(CrossrepError):
    """No split was found: no eigenvalue gap above ``eig_sep`` along any
    fixed probe of the commutant, or a reducible leaf that no right
    translation splits."""


class ActionMismatch(CrossrepError):
    """Crossed elements over different actions were combined."""


class NotFactorable(CrossrepError):
    """A unitary expected to be a Kronecker product is not, within tolerance."""


class NotScalarPower(CrossrepError):
    """U^n deviates from a scalar multiple of the identity."""


class BlockStructureViolation(CrossrepError):
    """A conjugated operator has mass outside its guaranteed block pattern."""


class CanonicalFormViolation(CrossrepError):
    """A canonical-form invariant of the cyclic analysis failed."""


class InvariantViolation(CrossrepError):
    """A structural invariant of an input object does not hold."""


class SchemaError(CrossrepError):
    """Malformed JSON input."""
