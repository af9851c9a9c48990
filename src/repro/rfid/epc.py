"""EPC-96 identifier handling.

EPC Class-1 Generation-2 tags carry a 96-bit Electronic Product Code.  The
library only needs identifiers that are unique, comparable and printable as
tag ids, so we implement the SGTIN-96-like framing rather than the full GS1
coding tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPC_BITS = 96
"""Width of an EPC-96 identifier in bits."""

SGTIN96_HEADER = 0x30
"""Header byte value identifying the SGTIN-96 scheme."""


@dataclass(frozen=True, slots=True, order=True)
class EPC:
    """A 96-bit EPC identifier."""

    value: int
    """The identifier as an unsigned 96-bit integer."""

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << EPC_BITS):
            raise ValueError(f"EPC value out of 96-bit range: {self.value:#x}")

    def __str__(self) -> str:
        return f"{self.value:024x}"

    @staticmethod
    def from_fields(company_prefix: int, item_reference: int, serial: int) -> "EPC":
        """Assemble an SGTIN-96-style EPC from its three payload fields."""
        if not 0 <= company_prefix < (1 << 24):
            raise ValueError("company prefix must fit in 24 bits")
        if not 0 <= item_reference < (1 << 20):
            raise ValueError("item reference must fit in 20 bits")
        if not 0 <= serial < (1 << 38):
            raise ValueError("serial must fit in 38 bits")
        value = SGTIN96_HEADER << (EPC_BITS - 8)
        # 3-bit filter + 3-bit partition left at zero for simplicity.
        value |= company_prefix << (20 + 38)
        value |= item_reference << 38
        value |= serial
        return EPC(value)


def generate_epcs(
    count: int,
    company_prefix: int = 0x1F2E3D,
    item_reference: int = 0x5,
    rng: np.random.Generator | None = None,
) -> list[EPC]:
    """Generate ``count`` unique EPCs sharing a company prefix.

    Serial numbers are drawn randomly (without replacement) so that the
    identification order of an ID-ordered protocol does not correlate with
    spatial placement — the property the paper points out makes identification order
    useless for relative localization (Section 2.1).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count >= (1 << 20):
        raise ValueError("too many EPCs requested for a single item reference")
    rng = rng if rng is not None else np.random.default_rng()
    serials: set[int] = set()
    while len(serials) < count:
        needed = count - len(serials)
        draws = rng.integers(0, 1 << 38, size=needed, dtype=np.int64)
        serials.update(int(d) for d in draws)
    return [
        EPC.from_fields(company_prefix, item_reference, serial)
        for serial in sorted(serials)[:count]
    ]
