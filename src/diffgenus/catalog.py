"""Built-in catalog of nilpotent groups up to order 200: every cyclic group,
then every product of a small 2-group atom with an odd prime-power atom that
is not cyclic.

No two entries are isomorphic. A product is cyclic exactly when both atoms
are, and then it is the cyclic group listed first. A nilpotent group is the
direct product of its unique Sylow subgroups, so two products are isomorphic
only when their atoms are, and no two atoms in either list are.

Entries come from `build_group`, whose tables are groups by construction
and are not validated at run time; tests/test_groups.py proves every one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .groups import GroupTable, build_group, parse_group_descriptor

MAX_CATALOG_ORDER = 200

TWO_GROUP_ATOMS = [
    "Z2", "Z4", "Z8",
    "Z2 x Z2", "Z2 x Z2 x Z2",
    "Z4 x Z2", "Z4 x Z4", "Z4 x Z2 x Z2",
    "D8", "D16", "Q8", "Q16", "SD16",
    "D8 x Z2", "Q8 x Z2",
]

ODD_ATOMS = ["Z3", "Z9", "Z3 x Z3", "Z5", "Z7", "Z11", "Z13", "Z25"]


@dataclass
class CatalogEntry:
    name: str
    group: GroupTable

    @property
    def order(self) -> int:
        return self.group.order


def _names() -> list[tuple[str, int]]:
    """Every catalog entry's name and order, in catalog order."""
    names = [(f"Z{n}", n) for n in range(1, MAX_CATALOG_ORDER + 1)]
    for two in TWO_GROUP_ATOMS:
        for odd in ODD_ATOMS:
            name = f"{two} x {odd}"
            factors = parse_group_descriptor(name)
            order = math.prod(n for _, n in factors)
            if [family for family, _ in factors] != ["Z", "Z"] and order <= MAX_CATALOG_ORDER:
                names.append((name, order))
    return names


_NAMES = _names()


@lru_cache(maxsize=None)
def _entry(name: str) -> CatalogEntry:
    return CatalogEntry(name, build_group(name))


def builtin_catalog(max_order: int = MAX_CATALOG_ORDER) -> list[CatalogEntry]:
    """The entries of order at most `max_order`, each built on first use."""
    if max_order > MAX_CATALOG_ORDER:
        raise ValueError(f"catalog is built up to order {MAX_CATALOG_ORDER}")
    return [_entry(name) for name, order in _NAMES if order <= max_order]
