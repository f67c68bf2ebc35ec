"""Remapping metadata of Hybrid2 (Figure 6 of the paper).

Three structures live in reserved near memory:

* the **remap table**: processor-physical sector -> current location (an NM
  frame or an FM frame);
* the **inverted remap table**: NM frame -> processor-physical sector
  currently assigned to it (used when selecting swap victims);
* the **Free-FM-Stack**: FM frames whose sectors have been migrated to NM
  and that can therefore be overwritten; its top entries are cached on chip.

The structures here are functional models; the *cost* of touching them (NM
metadata accesses) is charged by the DCMC, which is also what the No-Remap
ablation of Figure 14 switches off.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

import numpy as np


class RemapTable:
    """Processor-physical sector -> physical frame, plus its inverse for NM.

    The initial mapping follows the paper's methodology: sectors are placed
    randomly across NM and FM proportionally to their capacities.

    The per-sector columns are typed arrays built in bulk from the
    permutation (1-17 bytes per sector); the migration baselines' steps
    index ``_in_near`` and ``_frame`` directly.
    """

    def __init__(self, num_sectors: int, nm_flat_frames: List[int],
                 fm_frames: int, seed: int = 17) -> None:
        if num_sectors != len(nm_flat_frames) + fm_frames:
            raise ValueError(
                "flat sector count must equal available NM + FM frames "
                f"({num_sectors} != {len(nm_flat_frames)} + {fm_frames})")
        self.num_sectors = num_sectors
        self.num_fm_frames = fm_frames

        rng = np.random.default_rng(seed)
        order = rng.permutation(num_sectors)
        nm_count = len(nm_flat_frames)
        near, far = order[:nm_count], order[nm_count:]
        in_near = np.zeros(num_sectors, dtype=np.uint8)
        in_near[near] = 1
        frame = np.empty(num_sectors, dtype=np.int64)
        frame[near] = nm_flat_frames
        frame[far] = np.arange(fm_frames)
        #: 1 where the sector's home is an NM frame; its frame in NM or FM
        self._in_near = bytearray(in_near.tobytes())
        self._frame = array("q", frame.tobytes())
        #: inverted remap table: NM frame -> sector (-1 when not a flat home)
        self._inverse_nm: dict[int, int] = dict(zip(nm_flat_frames,
                                                    near.tolist()))
        self._inverse_fm = array("q", far.tobytes())

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(self, sector: int) -> Tuple[int, int]:
        """Remap-table read: where does ``sector`` currently live?  Its
        ``(in_near, frame)``: ``in_near`` is 1 for an NM frame, 0 for an FM
        frame."""
        return self._in_near[sector], self._frame[sector]

    def sector_at_nm_frame(self, frame: int) -> int:
        """Inverted-remap-table read: which sector is assigned to NM ``frame``
        (-1 when the frame is not the flat home of any sector)."""
        return self._inverse_nm.get(frame, -1)

    def sector_at_fm_frame(self, frame: int) -> int:
        return self._inverse_fm[frame]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def assign_to_near(self, sector: int, nm_frame: int) -> None:
        """Record that ``sector`` now permanently lives in NM ``nm_frame``."""
        old_frame = self._frame[sector]
        if self._in_near[sector]:
            if old_frame != nm_frame:
                self._inverse_nm.pop(old_frame, None)
        elif self._inverse_fm[old_frame] == sector:
            self._inverse_fm[old_frame] = -1
        self._in_near[sector] = 1
        self._frame[sector] = nm_frame
        self._inverse_nm[nm_frame] = sector

    def assign_to_far(self, sector: int, fm_frame: int) -> None:
        """Record that ``sector`` now lives in FM ``fm_frame`` (swap-out)."""
        old_frame = self._frame[sector]
        if self._in_near[sector]:
            if self._inverse_nm.get(old_frame) == sector:
                del self._inverse_nm[old_frame]
        elif self._inverse_fm[old_frame] == sector:
            self._inverse_fm[old_frame] = -1
        self._in_near[sector] = 0
        self._frame[sector] = fm_frame
        self._inverse_fm[fm_frame] = sector

    def record_inverse_nm(self, nm_frame: int, sector: int) -> None:
        """Update only the inverted remap table.

        Section 3.4 (case 2b): when an FM sector is first fetched into the
        cache, the inverted remap table is updated with its processor address
        even though the sector has not been migrated yet, so that the NM
        allocator can always resolve frame -> sector.
        """
        self._inverse_nm[nm_frame] = sector

    # ------------------------------------------------------------------
    # invariants / reporting
    # ------------------------------------------------------------------
    def count_in_near(self) -> int:
        return self._in_near.count(1)

    def check_consistency(self) -> bool:
        """Every sector's frame maps back to it through the inverse tables.

        Only flat homes are checked; inverse-NM entries for cached-but-not-
        migrated sectors legitimately point at sectors whose remap entry is
        still in FM.
        """
        nm, fm = self._inverse_nm, self._inverse_fm
        return all((nm.get(frame) if in_near else fm[frame]) == sector
                   for sector, (in_near, frame)
                   in enumerate(zip(self._in_near, self._frame)))


class FreeFMStack:
    """Stack of FM frames that currently hold no valid data (Section 3.3).

    Frames are pushed when their sector migrates to NM and popped when an NM
    sector must be swapped out.  The stack pointer plus ``on_chip_entries``
    top entries are kept in the DCMC; deeper accesses spill to NM, which the
    DCMC charges as metadata traffic via the ``spill`` flag returned here.
    """

    def __init__(self, on_chip_entries: int = 16) -> None:
        self.on_chip_entries = on_chip_entries
        self._frames: List[int] = []
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._frames)

    def push(self, frame: int) -> bool:
        """Push ``frame``; returns True when the access spilled to NM."""
        self._frames.append(frame)
        self.max_depth = max(self.max_depth, len(self._frames))
        return len(self._frames) > self.on_chip_entries

    def pop(self) -> Tuple[int, bool]:
        """Pop a free FM frame; returns ``(frame, spilled_to_nm)``."""
        if not self._frames:
            raise IndexError("Free-FM-Stack is empty: no FM frame to swap into")
        spilled = len(self._frames) > self.on_chip_entries
        return self._frames.pop(), spilled
