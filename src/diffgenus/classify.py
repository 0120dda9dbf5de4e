"""Predicts the genus and crosscap class (0, 1, 2, or >=3) of the difference
graph of a finite nilpotent group from its Sylow structure, without building
the graph. The >=3 classes carry a description of the bipartite subgraph
that forces the bound.

Both classes come from one reading of the Sylow orders and exponents. The
named groups of genus 1 and 2 are looked up by that key, with no
isomorphism search. The interesting boundary is products P x Z3 with P a
2-group of exponent 4: the intersection pattern of P's order-4 maximal
cyclic subgroups (conditions C1, C2, C3) decides between genus 1, genus 2,
and genus >= 3. P is normal and holds every 2-element, so that pattern is
read off the group itself, from how many order-4 elements square to each
involution.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .groups import GroupError, GroupTable, sylow_decomposition

GE3 = 3

# Reading adopted for "the intersection of any other pair is trivial": the
# pairs named by the condition itself (for C3, all three pairs inside the
# triple) are exempt; every remaining pair of maximal cyclic subgroups,
# order-2 ones included, must meet trivially.
OTHER_PAIR_READING = (
    "pairs named by the condition are exempt from the triviality requirement;"
    " all remaining maximal-cyclic pairs must intersect trivially"
)


@dataclass(frozen=True)
class GenusClass:
    """Predicted class of a surface invariant: 0, 1, 2, or >= 3."""

    value: int  # 0, 1, 2; 3 means "at least 3"
    basis: str
    witness: Optional[str] = None

    def __post_init__(self):
        if self.value >= GE3 and not self.witness:
            raise ValueError("a >=3 classification needs a witness description")

    @property
    def label(self) -> str:
        return "GE3" if self.value >= GE3 else str(self.value)

    def to_json_dict(self) -> dict:
        return {"class": self.label, "basis": self.basis, "witness": self.witness}


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    exponent: int
    note: str = OTHER_PAIR_READING


# (order-4 chain pairs meeting in order 2, chains in those pairs) -> condition
_CONDITIONS = {(1, 2): "C1", (2, 4): "C2", (3, 3): "C3"}


def _chain_pattern(g: GroupTable) -> tuple[int, int, int]:
    """(pairs meeting in order 2, chains in those pairs, most chains through
    one involution) over the cyclic subgroups of order 4.

    In a nilpotent group these are its Sylow 2-subgroup P's, and when P has
    exponent 4 they are P's order-4 maximal cyclic subgroups. Each holds
    one involution, the square of its two generators, so two meet in order
    2 exactly when they share it. No other pair of maximal cyclic
    subgroups can meet nontrivially, as a maximal one of order 2 lies in no
    other.
    """
    squares = Counter(g.mult(x, x) for x in range(g.order) if g.element_order(x) == 4)
    chains = [n // 2 for n in squares.values()]
    pairs = sum(n * (n - 1) // 2 for n in chains)
    return pairs, sum(n for n in chains if n > 1), max(chains, default=0)


def condition_reports(g: GroupTable) -> list[ConditionReport]:
    """Intersection-pattern conditions on the Sylow 2-subgroup P of the
    nilpotent group g of even order, read off g's own table: P's exponent
    is gcd(exp g, |P|), and g's order-4 elements and their squares are P's.

    C1: one pair of order-4 maximal cyclic subgroups of P meets in order 2.
    C2: two disjoint such pairs. C3: a triple meeting pairwise in order 2,
    which then share one involution. In every case all remaining pairs of
    maximal cyclic subgroups must meet trivially. At most one holds, and
    none unless P has exponent 4, the exponent each report carries.

    Raises GroupError when g's order is odd and NotNilpotentError when g
    is not nilpotent.
    """
    if g.order % 2:
        raise GroupError(f"conditions C1-C3 need a Sylow 2-subgroup; order is {g.order}")
    exp = math.gcd(g.exponent(), len(sylow_decomposition(g).components[0]))
    holding = _CONDITIONS.get(_chain_pattern(g)[:2]) if exp == 4 else None
    return [ConditionReport(c, c == holding, exp) for c in ("C1", "C2", "C3")]


# ---------------------------------------------------------------------------
# Classifier

# Named groups by (Sylow orders, Sylow exponents). Every Sylow subgroup here
# has order p or p^2, so its exponent fixes it, and a nilpotent group is the
# product of its Sylow subgroups: each key names one group up to isomorphism.
# Row: name, genus, crosscap, and the subgraph forcing a crosscap >= 3.
_NAMED = {
    ((2, 9), (2, 9)): ("Z18", 1, 2, None),
    ((4, 5), (4, 5)): ("Z20", 1, 1, None),
    ((4, 5), (2, 5)): ("Z2 x Z2 x Z5", 1, 1, None),
    ((4, 7), (4, 7)): ("Z28", 1, 2, None),
    ((4, 7), (2, 7)): ("Z2 x Z2 x Z7", 1, 2, None),
    ((5, 7), (5, 7)): ("Z35", 2, GE3, "K_{4,6} (crosscap 4)"),
    ((4, 9), (4, 3)): ("Z4 x Z3 x Z3", 2, GE3, "K_{3,8} (crosscap 3)"),
    ((4, 9), (2, 3)): ("Z2 x Z2 x Z3 x Z3", 2, GE3, "K_{3,8} (crosscap 3)"),
    ((4, 11), (2, 11)): ("Z2 x Z2 x Z11", 2, GE3, "K_{3,10} (crosscap 4)"),
    ((4, 11), (4, 11)): ("Z44", 2, GE3, "K_{3,10} (crosscap 4)"),
}
_GENUS_BASIS = {1: "toroidal group: {}", 2: "double-torus group: {}"}
_CROSSCAP_BASIS = {
    1: "projective-planar group: {}",
    2: "crosscap-2 group: {}",
    GE3: "double-torus group {} exceeds crosscap 2",
}

# (2-group of exponent 4) x Z3, by the condition its 2-part satisfies
_C1 = "condition C1 product: (2-group with one order-4 chain pair) x Z3"
_CHAIN_ROWS = {
    "C1": (GenusClass(1, _C1), GenusClass(2, _C1)),
    "C2": (
        GenusClass(2, "condition C2 product: (2-group with two disjoint chain pairs) x Z3"),
        GenusClass(GE3, "condition C2 product exceeds crosscap 2", "K_{4,4} plus chained order-4 vertices"),
    ),
    "C3": (
        GenusClass(2, "condition C3 product: (2-group with an order-4 chain triple) x Z3"),
        GenusClass(GE3, "condition C3 product exceeds crosscap 2", "K_{4,6} (crosscap 4)"),
    ),
}


@dataclass
class _Structure:
    primes: list[int]
    sizes: list[int]
    exponents: list[int]


def _structure(g: GroupTable) -> _Structure:
    """Sylow orders and exponents; a Sylow subgroup's exponent is the part
    of exp g its order holds."""
    dec = sylow_decomposition(g)
    sizes = [len(c) for c in dec.components]
    exp = g.exponent()
    return _Structure(dec.primes, sizes, [math.gcd(exp, size) for size in sizes])


def _planar_family(g: GroupTable, st: _Structure) -> Optional[str]:
    """Families whose difference graph is planar (nilpotent, two primes)."""
    if len(st.primes) != 2:
        return None
    p1, p2 = st.primes
    a1, a2 = st.sizes
    e1, e2 = st.exponents
    if (a1, a2) == (4, 3) and e1 == 4:
        return "Z12"
    if (p1, p2) == (2, 3) and a2 == 3 and e1 == 2:
        return "elementary abelian 2-group x Z3"
    # of the groups of order 8 only D8 has 5 involutions
    if (a1, a2) == (8, 3) and g.orders().count(2) == 5:
        return "D8 x Z3"
    if p1 == 2 and a1 == 2 and e2 == p2:
        return f"Z2 x (exponent-{p2} group)"
    if p1 == 3 and a1 == 3 and e2 == p2:
        return f"Z3 x (exponent-{p2} group)"
    return None


def classify_both(g: GroupTable) -> tuple[GenusClass, GenusClass]:
    """Genus and crosscap class of the difference graph, both read off one
    pass over the Sylow structure.

    Input must be nilpotent (NotNilpotentError otherwise); p-groups come
    back as class 0 with an empty difference graph.
    """
    st = _structure(g)
    if len(st.primes) <= 1:
        both = GenusClass(0, "p-group: empty difference graph")
        return both, both
    family = _planar_family(g, st)
    if family:
        both = GenusClass(0, f"planar family: {family}")
        return both, both
    named = _NAMED.get((tuple(st.sizes), tuple(st.exponents)))
    if named:
        name, genus, crosscap, witness = named
        return (
            GenusClass(genus, _GENUS_BASIS[genus].format(name)),
            GenusClass(crosscap, _CROSSCAP_BASIS[crosscap].format(name), witness),
        )
    if st.primes == [2, 3] and st.sizes[1] == 3 and st.exponents[0] == 4:
        condition = _CONDITIONS.get(_chain_pattern(g)[:2])
        if condition:
            return _CHAIN_ROWS[condition]
    both = GenusClass(GE3, *_ge3_reason(g, st))
    return both, both


def classify_genus(g: GroupTable) -> GenusClass:
    """Genus class of the difference graph: 0 (planar), 1, 2, or >= 3, as
    `classify_both` gives it."""
    return classify_both(g)[0]


def classify_crosscap(g: GroupTable) -> GenusClass:
    """Crosscap class of the difference graph: 0 (planar), 1, 2, or >= 3, as
    `classify_both` gives it."""
    return classify_both(g)[1]


def _ge3_reason(g: GroupTable, st: _Structure) -> tuple[str, str]:
    """Name the structural reason the difference graph needs genus >= 3,
    together with the complete bipartite subgraph driving the bound."""
    primes, sizes, exps = st.primes, st.sizes, st.exponents
    r = len(primes)
    if r >= 4:
        return ("four or more prime factors", "K_{7,6} inside the prime-part join")
    if r == 3:
        if primes == [2, 3, 5]:
            return ("three primes 2,3,5", "K_{4,8} on order-10 vs order-15 elements")
        return ("three primes, largest >= 7", "K_{5,6} across the prime parts")

    p1, p2 = primes
    a1, a2 = sizes
    e1, e2 = exps
    if p1 >= 7:
        return ("both primes >= 7", "K_{6,10} across the prime parts")
    if p1 == 5:
        if a1 == 5 and a2 == p2:
            return (f"Z5 x Z{p2} with p >= 11", f"K_{{4,{p2 - 1}}} (the whole graph)")
        return ("5-part or partner beyond prime order", "K_{4,20}-scale bipartite subgraph")
    if p1 == 3:
        if a1 == 3:
            return (
                f"Z3 partner of exponent {e2} >= {p2}^2",
                "K_{8,20}-scale subgraph on mixed-order vs high-order elements",
            )
        return ("3-part of order >= 9 with partner >= 5", "K_{8,4} across the prime parts")
    # p1 == 2
    if a1 == 2:
        if p2 == 3 and e2 == 9:
            return (
                "Z2 x (3-group with two order-9 chains meeting in order 3)",
                "K_{3,12} on involution-multiples vs order-9 elements",
            )
        if p2 == 3:
            return ("Z2 x (3-group of exponent >= 27)", "K_{6,18} inside a Z54 chain")
        return (f"Z2 x (exponent >= {p2}^2 group)", "K_{4,20}-scale subgraph inside a cyclic chain")
    if a1 == 4:
        if a2 == 9 and e1 == 4 and e2 == 9:
            return ("Z4 x Z9", "K_{5,6} on order-9 vs even-order elements")
        if a2 == 9 and e1 == 2 and e2 == 9:
            return ("Z2^2 x Z9", "K_{6,9} on order-9 vs order-{2,6} elements")
        if a2 == p2 and p2 >= 13:
            return (f"4-part x Z{p2} with p >= 13", f"K_{{3,{p2 - 1}}} (prime-part join)")
        if p2 == 3 and a2 >= 27:
            return ("4-part x (3-group of order >= 27)", "K_{3,26} across the prime parts")
        if e2 == p2:
            return (f"4-part x ({p2}-group of order >= {p2}^2, exponent {p2})", "K_{3,24} across the prime parts")
        return (f"4-part x (exponent >= {p2}^2 group)", "K_{4,20}-scale subgraph inside a cyclic chain")
    # |P1| >= 8
    if p2 == 3 and a2 >= 9:
        return ("2-part of order >= 8 with 3-part of order >= 9", "K_{7,8} across the prime parts")
    if a2 == 3:
        if e1 >= 8:
            return ("2-part of exponent >= 8 times Z3", "K_{4,8} inside a Z24 chain")
        # exponent-4 2-group whose chain pattern is none of C1/C2/C3
        pairs, involved, most = _chain_pattern(g)
        if most >= 4:
            pattern = "four order-4 chains sharing one involution"
        elif pairs >= 3 and involved == 2 * pairs:
            pattern = f"{pairs} disjoint intersecting chain pairs"
        else:
            pattern = f"{pairs} intersecting order-4 chain pairs"
        return (f"exponent-4 2-group x Z3 with {pattern}", "K_{4,4} plus further chained order-4 vertices")
    if a2 == p2:
        return (f"2-part of order >= 8 times Z{p2} (p >= 5)", "K_{4,7} across the prime parts")
    if e2 == p2:
        return ("2-part of order >= 8 with partner of prime exponent, order >= p^2", "K_{4,24}-scale join")
    return ("2-part of order >= 8 with partner of exponent >= p^2", "K_{4,20}-scale subgraph inside a cyclic chain")

