"""Memory-system designs the paper compares against, plus the shared interface.

The evaluation of the paper (Section 5) compares Hybrid2 with three
migration schemes (MemPod, Chameleon, LGM), two DRAM caches (Tagless, DFC),
an idealised DRAM cache used in the motivation study, and a baseline system
without 3D-stacked DRAM.  :data:`DESIGN_FACTORIES` exposes them uniformly to
the simulation harness.
"""

from collections.abc import Mapping
from typing import TYPE_CHECKING, Callable, Dict, Iterator

from ..common import import_attr, lazy_exports
from ..params import SystemConfig

if TYPE_CHECKING:
    from .base import MemorySystem

__all__ = [*lazy_exports(__name__, globals(), {
    ".base": ("MemorySystem",),
    ".fm_only": ("FarMemoryOnly",),
    ".dram_cache": ("DramCacheSystem",),
    ".ideal_cache": ("IdealCache",),
    ".tagless": ("TaglessCache",),
    ".dfc": ("DecoupledFusedCache",),
    ".mempod": ("MemPod",),
    ".chameleon": ("ChameleonGroups",),
    ".lgm": ("LgmMigration",),
    ".migration_base": ("IntervalMigrationSystem", "MigrationSystem",
                        "RemapCache"),
}), "DESIGN_FACTORIES", "EVALUATED_DESIGNS", "make_design"]


class DesignRegistry(Mapping):
    """Read-only ``label -> design class`` mapping over import paths.

    A lookup imports the design; membership, iteration and ``len`` read
    the labels only, so checking or listing a label imports nothing.
    """

    def __init__(self, paths: Dict[str, str]) -> None:
        self._paths = paths

    def __getitem__(self, label: str) -> Callable[[SystemConfig],
                                                  "MemorySystem"]:
        return import_attr(self._paths[label])

    def __contains__(self, label: object) -> bool:
        # Mapping's default would look the design up, importing it.
        return label in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


#: The designs of the main evaluation figures, by their paper labels.
DESIGN_FACTORIES = DesignRegistry({
    "BASELINE": "repro.baselines.fm_only:FarMemoryOnly",
    "MPOD": "repro.baselines.mempod:MemPod",
    "CHA": "repro.baselines.chameleon:ChameleonGroups",
    "LGM": "repro.baselines.lgm:LgmMigration",
    "TAGLESS": "repro.baselines.tagless:TaglessCache",
    "DFC": "repro.baselines.dfc:DecoupledFusedCache",
    "HYBRID2": "repro.core.hybrid2:Hybrid2System",
})

#: Designs shown in Figures 12/13/15-18 (everything except the baseline).
EVALUATED_DESIGNS = ("MPOD", "CHA", "LGM", "TAGLESS", "DFC", "HYBRID2")


def make_design(name: str, config: SystemConfig) -> "MemorySystem":
    """Instantiate a design by its paper label."""
    try:
        factory = DESIGN_FACTORIES[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown design {name!r}; known: {sorted(DESIGN_FACTORIES)}")
    return factory(config)
