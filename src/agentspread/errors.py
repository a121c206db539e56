"""Typed errors shared across the package."""

from __future__ import annotations

import math


class InvalidParameterError(ValueError):
    """A parameter is outside its documented range."""


def positive(name: str, value):
    """Return ``value`` if it is a finite positive real; otherwise raise
    InvalidParameterError naming the parameter (NaN and inf included)."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be finite and positive, got {value}")
    return value


def integral(name: str, value) -> int:
    """Return ``value`` as an int if it is a whole number (64.0 reads as
    64); otherwise raise InvalidParameterError naming the parameter (a
    fractional, infinite or NaN value, or a string, included)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return n


class InvalidFamilyError(ValueError):
    """An operation was applied to a graph of the wrong family."""


class SizeLimitError(ValueError):
    """Exact computation refused beyond its enumeration bound."""


class ConnectivityError(RuntimeError):
    """A node set expected to induce a connected subgraph does not."""

    def __init__(self, message: str, unreachable: int | None = None):
        super().__init__(message)
        self.unreachable = unreachable


class PartitionDegenerateError(RuntimeError):
    """A geometric partition hit an empty tile; carries the tile index.

    Nothing in the package raises it any more (an RGG tile may be empty;
    ``partition_rgg`` judges its chunks by connectivity). It stays while
    ``perfbench/workloads.py`` imports it.
    """

    def __init__(self, message: str, tile_index: tuple[int, int] | None = None):
        super().__init__(message)
        self.tile_index = tile_index


class PolicyContractError(RuntimeError):
    """A policy violated its declared rate envelope."""


class NonTerminationError(RuntimeError):
    """A run exhausted its event budget or ran out of pending events."""
