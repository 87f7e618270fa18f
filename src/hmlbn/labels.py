"""MPLS label allocation.

Labels are 20-bit values; 0-15 are reserved by convention and never handed
out.  Allocators are monotonic and never recycle freed values, so a live
label can never be reissued on the same node.
"""

from .errors import LabelSpaceExhausted

LABEL_MIN = 16
LABEL_MAX = (1 << 20) - 1


class LabelAllocator:
    """Per-node monotonic label allocator over [16, 2^20 - 1]."""

    def __init__(self, start: int = LABEL_MIN):
        if not LABEL_MIN <= start <= LABEL_MAX + 1:
            raise ValueError(f"allocator start {start} outside label range")
        self._next = start

    def allocate(self) -> int:
        if self._next > LABEL_MAX:
            raise LabelSpaceExhausted(f"no labels left above {LABEL_MAX}")
        value = self._next
        self._next += 1
        return value
