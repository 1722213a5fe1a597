"""Exception types shared across the package."""


class FrontlabError(Exception):
    """Base class for all frontlab-specific errors."""


class ExprDomainError(FrontlabError):
    """A function was evaluated outside its domain (log, sqrt, ...).

    Carries the source text of the offending subexpression.
    """

    def __init__(self, message, source=None):
        self.source = source
        if source is not None:
            message = f"{message} in subexpression '{source}'"
        super().__init__(message)


class FrontContractError(FrontlabError):
    """A front violated one of its numerical contracts (unit normal,
    orthogonality, Legendrian rank, immersion input, not-singular...)."""


class TraceError(FrontlabError):
    """Singular-curve tracing could not proceed."""


class InapplicableError(FrontlabError):
    """The requested computation's hypotheses are violated
    (degenerate singularities, non-compact domain, non-generic point)."""
