"""Gate types and single-gate boolean semantics.

A :class:`Gate` is purely structural: a name, a type and the names of its
fan-in signals.  Boolean evaluation lives here as well, in both scalar
form (:func:`evaluate`) and 64-way bit-parallel word form
(:func:`evaluate_words`), so the logic simulator, the transient simulator
and the test suite all share one definition of each gate's function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from functools import reduce
from typing import Sequence

import numpy as np

from repro.errors import CircuitError


@unique
class GateType(Enum):
    """Supported gate types (the ISCAS'85 ``.bench`` vocabulary)."""

    INPUT = "input"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"

    @property
    def min_fanin(self) -> int:
        if self is GateType.INPUT:
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        return 2

    @property
    def max_fanin(self) -> int | None:
        """Maximum fan-in, or ``None`` if unbounded."""
        if self is GateType.INPUT:
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        return None


#: Gate types for which one input at the controlling value fixes the output.
CONTROLLING_VALUE: dict[GateType, bool] = {
    GateType.AND: False,
    GateType.NAND: False,
    GateType.OR: True,
    GateType.NOR: True,
}

#: The complement of the controlling value: the value the *other* inputs
#: must hold for a glitch on one input to pass through (sensitization).
NON_CONTROLLING_VALUE: dict[GateType, bool] = {
    gtype: not value for gtype, value in CONTROLLING_VALUE.items()
}


@dataclass(frozen=True)
class Gate:
    """One named gate instance: type plus fan-in signal names."""

    name: str
    gtype: GateType
    fanins: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise CircuitError("gate name must be a non-empty string")
        n = len(self.fanins)
        if n < self.gtype.min_fanin:
            raise CircuitError(
                f"gate {self.name!r} of type {self.gtype.value} needs at least "
                f"{self.gtype.min_fanin} fan-ins, got {n}"
            )
        maximum = self.gtype.max_fanin
        if maximum is not None and n > maximum:
            raise CircuitError(
                f"gate {self.name!r} of type {self.gtype.value} allows at most "
                f"{maximum} fan-ins, got {n}"
            )
        if len(set(self.fanins)) != n:
            raise CircuitError(f"gate {self.name!r} has duplicate fan-ins: {self.fanins}")

    @property
    def fanin_count(self) -> int:
        return len(self.fanins)

    @property
    def is_input(self) -> bool:
        return self.gtype is GateType.INPUT


def evaluate(gtype: GateType, values: Sequence[bool]) -> bool:
    """Evaluate one gate on scalar boolean input values."""
    if gtype is GateType.INPUT:
        raise CircuitError("primary inputs have no boolean function to evaluate")
    if gtype is GateType.BUF:
        return bool(values[0])
    if gtype is GateType.NOT:
        return not values[0]
    if gtype is GateType.AND:
        return all(values)
    if gtype is GateType.NAND:
        return not all(values)
    if gtype is GateType.OR:
        return any(values)
    if gtype is GateType.NOR:
        return not any(values)
    parity = reduce(lambda a, b: a ^ b, (bool(v) for v in values), False)
    if gtype is GateType.XOR:
        return parity
    return not parity  # XNOR


def evaluate_words(gtype: GateType, words: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate one gate on stacked uint64 words (64 vectors per bit-lane).

    Each entry of ``words`` is an equally-shaped ``uint64`` array carrying
    one fan-in's packed values; the result has the same shape.
    """
    if gtype is GateType.INPUT:
        raise CircuitError("primary inputs have no boolean function to evaluate")
    if gtype is GateType.BUF:
        return words[0].copy()
    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    if gtype is GateType.NOT:
        return words[0] ^ full
    if gtype in (GateType.AND, GateType.NAND):
        acc = reduce(np.bitwise_and, words)
        return acc if gtype is GateType.AND else acc ^ full
    if gtype in (GateType.OR, GateType.NOR):
        acc = reduce(np.bitwise_or, words)
        return acc if gtype is GateType.OR else acc ^ full
    acc = reduce(np.bitwise_xor, words)
    return acc if gtype is GateType.XOR else acc ^ full
