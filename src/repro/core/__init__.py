"""Hybrid2 core: the paper's primary contribution.

* :class:`~repro.core.xta.XTA` — the eXtended Tag Array (Figure 4/5).
* :class:`~repro.core.remap.RemapTable` / :class:`~repro.core.remap.FreeFMStack`
  — remapping metadata stored in NM (Figure 6).
* :class:`~repro.core.policy.MigrationPolicy` — the migration decision
  (Figure 10).
* :class:`~repro.core.nm_allocator.NMFramePool` — NM allocation (Figure 8).
* :class:`~repro.core.dcmc.DCMC` — the DRAM Cache Migration Controller that
  ties them together (Figures 7 and 9).
* :class:`~repro.core.hybrid2.Hybrid2System` — the memory-system adapter used
  by the simulator, with the Figure 14 ablations in
  :mod:`repro.core.variants`.
"""
