"""Exception hierarchy with stable error codes for the CLI exit protocol."""


class LaxepiError(Exception):
    pass


class PreconditionError(LaxepiError):
    """A decider was called outside its hypotheses; exit code 2."""

    code = "E_PRECONDITION"


class InvalidInstance(PreconditionError):
    """A category, functor or module breaks the laws its structure must obey."""

    code = "E_INVALID_INSTANCE"


class NotSurjectiveOnObjects(PreconditionError):
    code = "E_NOT_SURJECTIVE_ON_OBJECTS"


class RepresentableNotClosed(PreconditionError):
    code = "E_REPRESENTABLE_NOT_CLOSED"


class IdealNotIdempotent(PreconditionError):
    code = "E_IDEAL_NOT_IDEMPOTENT"


class ParseError(LaxepiError):
    """Malformed instance file; exit code 3."""


class InternalInvariantError(LaxepiError):
    """A must-hold identity failed, indicating a bug; exit code 4."""
