"""Run-wide numeric settings.

Everything that compares complex numbers goes through one of the two knobs
here: ``eps`` bounds entrywise error in dense checks, and the same value is
used as the rounding grid for structural weight equality (see
:func:`zhdd.sqmdd.weight_key`).  ``max_qubits`` caps any computation that
materializes a dense vector or matrix, and :data:`DENSE_WIRE_LIMIT` caps
it in turn (:func:`dense_cap`).  Both knobs are checked once, here: a
``Settings`` with an ``eps`` that is not finite and positive, or a negative
``max_qubits``, raises :class:`ValueError` when it is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    eps: float = 1e-9
    max_qubits: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.eps < math.inf:
            raise ValueError(f"tolerance must be finite and greater than 0, got {self.eps}")
        if self.max_qubits < 0:
            raise ValueError(f"max qubits must be at least 0, got {self.max_qubits}")


DEFAULT = Settings()


# numpy counts an array's bytes in a signed 64-bit integer, so 2**H complex
# entries (16 bytes each) fit only up to H = 58 wires: above it numpy
# refuses with a ValueError, which would read as malformed input
DENSE_WIRE_LIMIT = 58


def dense_cap(settings: Settings) -> int:
    """The most wires a dense vector, state or matrix may span: the
    settings' ``max_qubits``, never above :data:`DENSE_WIRE_LIMIT`."""
    return min(settings.max_qubits, DENSE_WIRE_LIMIT)
