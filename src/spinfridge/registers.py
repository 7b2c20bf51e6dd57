"""Spin registers: which sites a state or operator lives on.

A register is an ordered tuple of unique integer site labels. Probes use
1..N; label 0 is reserved for a thermal qubit attached to the probe, and it
sorts in front, i.e. it occupies the most-significant bit of the joint
computational-basis index. Site 1 is the most significant bit of a plain
1..N register, and |0> sorts before |1> — this fixes the basis bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class SpinRegister:
    """Ordered collection of spin-1/2 site labels."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise DomainError("a register needs at least one site")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError(f"duplicate site labels: {self.labels}")
        if any(l < 0 for l in self.labels):
            raise DomainError(f"negative site labels: {self.labels}")
        if list(self.labels) != sorted(self.labels):
            raise DomainError(f"labels must be ordered: {self.labels}")

    @classmethod
    def of_size(cls, count: int) -> "SpinRegister":
        """The standard probe register 1..count."""
        if count < 1:
            raise DomainError(f"count must be >= 1, got {count}")
        return cls(tuple(range(1, count + 1)))

    @classmethod
    def with_qubit(cls, count: int) -> "SpinRegister":
        """Probe register 1..count with the thermal-qubit slot 0 in front."""
        if count < 1:
            raise DomainError(f"count must be >= 1, got {count}")
        return cls(tuple(range(0, count + 1)))

    @property
    def count(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 1 << len(self.labels)

    def bit_position(self, label: int) -> int:
        """Bit position (from the least significant bit) of a site label.

        The first label is the most significant bit.
        """
        try:
            i = self.labels.index(label)
        except ValueError:
            raise DomainError(f"site {label} not in register {self.labels}") from None
        return self.count - 1 - i

    def subset(self, keep) -> "SpinRegister":
        keep = tuple(sorted(keep))
        if not keep:
            raise DomainError("keep set is empty")
        missing = [l for l in keep if l not in self.labels]
        if missing:
            raise DomainError(f"sites {missing} not in register {self.labels}")
        return SpinRegister(keep)
