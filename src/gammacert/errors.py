"""Shared exception types.  The command layer maps GammaCertError and its
subclasses to CLI exit codes."""


class GammaCertError(Exception):
    """Base class for package errors."""


class InputError(GammaCertError):
    """Bad configuration, malformed file, hash mismatch. Exit code 3."""


class CertificateFailure(GammaCertError):
    """A certified inequality or identity failed. Exit code 1."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        self.detail = detail
        super().__init__(f"{clause}: {detail}" if detail else clause)


class UndecidedError(GammaCertError):
    """A comparison stayed undecided at the precision cap. Exit code 2."""

    def __init__(self, what: str, prec: int):
        self.what = what
        self.prec = prec
        super().__init__(f"undecided at {prec} bits: {what}")


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""
