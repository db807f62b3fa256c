"""The package's two exception types: a caller's fault, size caps included (CLI exit 2), and a bug (exit 3)."""


class ContractViolation(ValueError):
    """A precondition of a public operation was violated by the caller."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not caller error."""
