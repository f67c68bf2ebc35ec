"""The Tagless DRAM cache baseline (Lee et al., ISCA 2015).

The Tagless DRAM cache tracks cache contents through the OS page tables and
TLBs, so there is no tag array to look up at all; the price is a page-sized
(4 KB) cache line, fully associative allocation and heavy over-fetching for
workloads with poor spatial locality (the paper singles out ``omnetpp`` and
``deepsjeng``).  Following the paper's methodology, no operating-system
overheads are modelled, which is optimistic for this design.

Paper anchor: one of the two realistic DRAM-cache baselines of the
evaluation (Section 5, Figures 12-18); its NM service ratio tops
Figure 15 while its capacity cost motivates Hybrid2 (Section 1).
"""

from __future__ import annotations

from ..common import PAGE_SIZE
from ..params import SystemConfig
from .dram_cache import DramCacheSystem


class TaglessCache(DramCacheSystem):
    """Page-granularity, fully associative, tag-free DRAM cache."""

    name = "TAGLESS"

    def __init__(self, config: SystemConfig, *, line_size: int = PAGE_SIZE) -> None:
        super().__init__(config, line_size=line_size, fully_associative=True,
                         tag_in_dram_miss=False, tag_in_dram_hit_fraction=0.0,
                         tag_latency_ns=0.0)
