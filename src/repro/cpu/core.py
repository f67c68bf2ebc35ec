"""Interval-based core timing model.

The paper evaluates with an in-house Pin-based simulator that follows the
interval simulation methodology (Genbrugge et al., HPCA 2010): the core is
assumed to retire instructions at its issue width except for *intervals*
introduced by long-latency events — here, LLC misses.  The length of the
stall interval depends on how many misses overlap (memory-level
parallelism).

The first-order model :func:`~repro.sim.simulator.simulate` applies:

* non-memory instructions advance time by ``instructions / issue_width``
  cycles;
* each LLC miss adds the LLC latency, then stalls the core by
  ``latency / overlap``, where ``overlap`` counts the in-flight misses:
  earlier misses fewer than ``rob_size`` instructions back, bounded by
  ``max_outstanding_misses``.

Everything in the model except the stall itself depends on the
instruction gaps alone, so :func:`miss_columns` computes it for a whole
trace up front and the driver keeps only each core's time.  The stepped
form, one core object with a live window of outstanding misses, is the
``IntervalCore`` of ``tests/engine_oracle.py``, which the engine tests
check the driver against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..params import CoreParams


def miss_columns(gaps: np.ndarray,
                 params: CoreParams) -> Tuple[np.ndarray, np.ndarray]:
    """The latency-independent part of the interval model for one core's
    misses, in order, with ``gaps[j]`` instructions (negative gaps count
    as 0) retired before miss ``j``.

    Returns ``(instructions, overlap)``: the core's instruction count
    right after miss ``j``, and the divisor applied to its latency (the
    live window's length, this miss included).  The window only ever
    drops its oldest entries, and a miss adds at most one to the count of
    earlier misses within ``rob_size`` instructions, so the window holds
    ``min(earlier, max_outstanding_misses - 1)`` entries before it: one
    ``searchsorted`` per core instead of a deque per miss.
    """
    n = len(gaps)
    instructions = np.cumsum(np.maximum(gaps, 0)) + np.arange(1, n + 1)
    earlier = np.arange(n) - np.searchsorted(
        instructions, instructions - params.rob_size)
    overlap = np.minimum(earlier, params.max_outstanding_misses - 1) + 1
    return instructions, overlap
