"""Exception hierarchy.

Two families matter to callers (and to the CLI exit codes): validation errors
(bad files, bad arguments -> exit 2) and estimation errors (empty cells,
vacuous identification -> exit 3). Every error carries a stable machine
readable ``code`` plus a ``context`` dict for structured reporting.
"""

from __future__ import annotations


class DidBoundsError(Exception):
    code = "Error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "context": self.context}


class ValidationError(DidBoundsError):
    code = "ValidationError"


class EstimationError(DidBoundsError):
    code = "EstimationError"


# --- validation (load / argument) errors ---

class MalformedRow(ValidationError):
    code = "MalformedRow"


class MissingOutcome(ValidationError):
    code = "MissingOutcome"


class EmptyFile(ValidationError):
    code = "EmptyFile"


class DegenerateSampling(ValidationError):
    code = "DegenerateSampling"


class InconsistentGvar(ValidationError):
    code = "InconsistentGvar"


class MissingBaseline(ValidationError):
    code = "MissingBaseline"


class OutOfRange(ValidationError):
    code = "OutOfRange"


class QOutOfRange(ValidationError):
    code = "QOutOfRange"


class PZero(ValidationError):
    code = "PZero"


class InvalidAssumptions(ValidationError):
    code = "InvalidAssumptions"


# --- estimation errors ---

class EmptyCell(EstimationError):
    code = "EmptyCell"


class VacuousIdentification(EstimationError):
    code = "VacuousIdentification"


class EmptyTrimSet(EstimationError):
    code = "EmptyTrimSet"


class TooManyFailedReps(EstimationError):
    code = "TooManyFailedReps"


class EmptyGroup(EstimationError):
    code = "EmptyGroup"


class MissingPeriod(EstimationError):
    code = "MissingPeriod"


class RootNotBracketed(EstimationError):
    code = "RootNotBracketed"


class NonFiniteEstimate(EstimationError):
    code = "NonFiniteEstimate"


class WorkerDied(DidBoundsError):
    """A forked worker ended before it returned its task's result."""
    code = "WorkerDied"


class DataWarning(UserWarning):
    """Warning category used by the CSV loaders."""
