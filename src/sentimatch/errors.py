"""Exception hierarchy shared across the package."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class SentimatchError(Exception):
    """Base class for all domain errors raised by this package."""


class CorpusFormatError(SentimatchError):
    """A corpus file could not be parsed (message names the file and row/line)."""


class LabelMappingError(SentimatchError):
    """Raw labels were encountered that the active label mapping does not cover."""

    def __init__(self, message: str, unmapped: tuple[str, ...] = ()):
        super().__init__(message)
        self.unmapped = unmapped


class EmptyCorpusError(SentimatchError):
    """An operation that needs at least one document received an empty corpus."""


class SamplingError(SentimatchError):
    """Sampling preconditions were violated (unlabeled documents, n too large, ...)."""


class EvaluationError(SentimatchError):
    """Gold/prediction inputs are unusable (length mismatch, missing labels, ...)."""


class KnowledgeBaseError(SentimatchError):
    """The knowledge-base file failed to parse or is structurally incomplete."""


class IntegrityError(KnowledgeBaseError):
    """Knowledge-base contents violate an integrity check beyond the documented anomalies."""


class InputValueError(SentimatchError, ValueError):
    """An input value of the wrong type or not an allowed one; the message names its path."""


@contextmanager
def named(where: object, catch: type | tuple[type, ...], error: type | None = None) -> Iterator[None]:
    """Re-raise an exception of a type in ``catch`` raised in the block as ``error``
    (by default its own type), with the message ``"<where>: <exception>"``,
    chained from it. This is how an error names the input it came from."""
    try:
        yield
    except catch as exc:
        raise (error or type(exc))(f"{where}: {exc}") from exc
