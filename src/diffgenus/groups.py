"""Finite groups as dense Cayley tables, plus the structural queries the rest
of the package needs: element orders, cyclic and maximal cyclic subgroups,
Sylow decomposition, and isomorphism testing.

Elements are indices 0..n-1 with the identity fixed at 0. A table from
outside the group layer (`GroupTable(...)`, `ingest_table`) is proven a
group when it is made; `build_group`'s tables are groups by construction
and are not checked again. Each derived fact is found once per table, by one
algorithm, and cached on it.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional, Sequence

_Rows = tuple[tuple[int, ...], ...]  # a Cayley table, row a holding the products a*b


class GroupError(ValueError):
    """Base class for invalid group input."""


class DescriptorError(GroupError):
    """Malformed group descriptor or parameter out of family range."""


class TableParseError(GroupError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LatinSquareError(GroupError):
    """A row or column of the table is not a permutation of 0..n-1."""


class AssociativityError(GroupError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        a, b, c = triple
        super().__init__(f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})")


class IdentityError(GroupError):
    """No two-sided identity element exists."""


class InverseError(GroupError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotNilpotentError(ValueError):
    def __init__(self, prime: int, witness: tuple[int, int]):
        self.prime = prime
        self.witness = witness
        x, y = witness
        super().__init__(
            f"{prime}-elements are not closed under multiplication "
            f"(witness product {x}*{y})"
        )


class IsomorphismCapError(ValueError):
    """Group order exceeds the isomorphism search cap."""


ISO_DEFAULT_CAP = 128


class GroupTable:
    """A finite group given by its full multiplication table.

    mult[a][b] is the index of the product a*b; index 0 is the identity.
    The constructor accepts integer entries only, range-checks them and
    proves the table a group (`_validate_table`); `build_group` and
    `ingest_table` store their tables through `_built`, which skips the copy
    and both checks: the first builds groups by construction, the second
    range-checks each entry as it parses it and proves the axioms itself
    (`_prove_group`). Instances are immutable after
    construction and keep the table as a tuple of tuple rows, the one form
    the group layer builds, checks and reads. Two cached properties hold
    what is derived from it:
    `_cyclic`, one span per cyclic subgroup, which gives the element orders
    and the cyclic and maximal cyclic subgroups; and `_sylow`, the Sylow
    decomposition or the witness that the group is not nilpotent. A
    subgroup is its member set, here and in every structural query, and
    nothing cached points back at the table, so a dropped table is freed
    without the cyclic garbage collector.
    """

    def __init__(
        self,
        mult: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
        source: str = "",
    ):
        rows = tuple(map(tuple, mult))
        n = len(rows)
        if n == 0:
            raise GroupError("empty table")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise LatinSquareError(f"row {i} has length {len(row)}, expected {n}")
        if set(map(type, chain.from_iterable(rows))) != {int}:  # other integer types, or not integers
            bad = next((
                (i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)
                if isinstance(x, bool) or not hasattr(x, "__index__")
            ), None)
            if bad is not None:
                i, j, x = bad
                what = f"entry {x} ({type(x).__name__})"
                raise GroupError(f"row {i}, column {j}: {what} is not an integer in 0..{n - 1}")
            rows = tuple(tuple(map(operator.index, row)) for row in rows)
        _validate_table(rows)
        self._adopt(rows, names, source)

    @classmethod
    def _built(cls, rows: _Rows, names: Optional[Sequence[str]], source: str) -> GroupTable:
        """The square table `rows` of ints, stored as it is, neither copied
        nor checked: a group by construction (`build_group`), or one that
        `ingest_table` has already range-checked and proven."""
        g = cls.__new__(cls)
        g._adopt(rows, names, source)
        return g

    def _adopt(self, rows: _Rows, names: Optional[Sequence[str]], source: str) -> None:
        if names is not None and len(names) != len(rows):
            raise GroupError(f"{len(names)} names for a group of order {len(rows)}")
        self._mult = rows
        self.order = len(rows)
        self.names = list(names) if names is not None else None
        self.source = source

    def mult(self, a: int, b: int) -> int:
        return self._mult[a][b]

    def rows(self) -> _Rows:
        return self._mult

    def element_order(self, g: int) -> int:
        if not 0 <= g < self.order:
            raise IndexError(f"element index {g} out of range 0..{self.order - 1}")
        return self._cyclic.orders[g]

    def orders(self) -> list[int]:
        return list(self._cyclic.orders)

    def exponent(self) -> int:
        return math.lcm(*self.orders()) if self.order else 1

    def order_spectrum(self) -> dict[int, int]:
        """Multiset of element orders, as {order: count}."""
        return dict(sorted(Counter(self.orders()).items()))

    def __repr__(self) -> str:
        src = f" {self.source!r}" if self.source else ""
        return f"<GroupTable order={self.order}{src}>"

    @cached_property
    def _cyclic(self) -> _CyclicSpans:
        """Spans each distinct cyclic subgroup, trivial included, once.

        Spanning x lists its powers x^j for 0 <= j < k = |x|. The power x^j
        has order k / gcd(j, k), so it generates <x> exactly when
        gcd(j, k) = 1. Those generators are marked and never spanned: every
        element generates exactly one cyclic subgroup, so an unmarked element
        generates one not yet seen. The other powers generate proper
        subgroups, so <x> is maximal iff no span reaches x as one of them."""
        mult = self._mult
        orders = [0] * self.order
        spanned = [False] * self.order
        inside = [False] * self.order
        subs = []
        for x in range(self.order):
            if spanned[x]:
                continue
            powers = [0]
            y = x
            while y != 0:
                if len(powers) == self.order:  # a group element's order divides the group's
                    raise GroupError(f"the powers of element {x} never reach the identity")
                powers.append(y)
                y = mult[y][x]
            k = len(powers)
            for j, y in enumerate(powers):
                d = math.gcd(j, k)
                orders[y] = k // d
                if d == 1:
                    spanned[y] = True
                else:
                    inside[y] = True
            subs.append((frozenset(powers), x))
        subs.sort(key=lambda s: (len(s[0]), sorted(s[0])))
        return _CyclicSpans(orders, [s for s, _ in subs], [s for s, x in subs if not inside[x]])

    @cached_property
    def _sylow(self) -> tuple[list[int], list[frozenset[int]]] | tuple[None, tuple[int, tuple[int, int]]]:
        """The p-elements are the union of the Sylow p-subgroups, so they
        number the p-part of the order exactly when that subgroup is unique
        (normal); the group is nilpotent iff this holds for every p. Where it
        fails, the p-elements are not closed (closed, they would form a
        p-subgroup holding every Sylow p-subgroup), and the first product
        leaving them is the witness: (None, (p, witness)) is cached, not an
        error, whose traceback would tie its frames back to the table."""
        n, orders, mult = self.order, self._cyclic.orders, self._mult
        primes = _prime_factors(n)
        components = []
        for p in primes:
            part = math.gcd(n, p ** n.bit_length())
            members = [x for x in range(n) if part % orders[x] == 0]
            if len(members) != part:
                return None, (p, next((a, b) for a in members for b in members if part % orders[mult[a][b]]))
            components.append(frozenset(members))
        return primes, components


@dataclass
class SylowDecomposition:
    """Sylow components of a nilpotent group, one per prime of its order:
    each the member set of the unique Sylow p-subgroup."""

    primes: list[int]
    components: list[frozenset[int]]


class _CyclicSpans(NamedTuple):
    orders: list[int]  # element orders, by element index
    subgroups: list[frozenset[int]]  # every cyclic subgroup's members, by order then members
    maximal: list[frozenset[int]]  # those in no larger cyclic subgroup, same order


# ---------------------------------------------------------------------------
# Table validation


def _validate_table(rows: _Rows) -> None:
    """Raise unless the nonempty square table `rows` of ints is a group with
    identity 0: its entries are range-checked here, as Python reads a
    negative index from the end of a row, and then `_prove_group` proves
    the axioms. `GroupTable(...)` and the atoms of `build_group` take both
    parts; `ingest_table` takes only the proof, as its parse has already
    range-checked every entry."""
    n = len(rows)
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise _latin_or(rows, LatinSquareError(f"an entry lies outside 0..{n - 1}"))
    _prove_group(rows)


def _prove_group(rows: _Rows) -> None:
    """Raise unless the nonempty square table `rows`, whose entries are known
    to lie in 0..n-1, is a group with identity 0.

    A group's table is a Latin square, so its rows and columns are scanned
    only once an axiom fails (`_latin_or`).

    Associativity is proven by Light's test (Clifford and Preston 1961,
    section 1.2): the elements g with (x*g)*y == x*(g*y) for all x, y are
    closed under the product, so it suffices to check the generators that
    `_generating_sequence` picks, in O(|gens| n^2).
    """
    n = len(rows)
    identity = tuple(range(n))
    if rows[0] != identity or tuple(row[0] for row in rows) != identity:
        raise _latin_or(rows, IdentityError("index 0 is not a two-sided identity"))
    for x, row in enumerate(rows):
        try:
            inverse = rows[row.index(0)][x] == 0
        except ValueError:  # no 0 in the row
            inverse = False
        if not inverse:
            raise _latin_or(rows, InverseError(x))
    for g in _generating_sequence(rows):
        # row x to the products x*(g*y); a tuple, as only n >= 2 has generators
        times_g = operator.itemgetter(*rows[g])
        for x, row in enumerate(rows):
            xg_row = rows[row[g]]  # the products (x*g)*y
            if xg_row != times_g(row):
                y = next(y for y, (p, q) in enumerate(zip(xg_row, times_g(row))) if p != q)
                raise _latin_or(rows, AssociativityError((x, g, y)))


def _latin_or(rows: _Rows, error: GroupError) -> GroupError:
    """A LatinSquareError naming the first row, else the first column, of
    `rows` that is not a permutation of 0..n-1; `error` when there is none."""
    target = list(range(len(rows)))
    for what, lines in (("row", rows), ("column", zip(*rows))):
        for i, line in enumerate(lines):
            if sorted(line) != target:
                return LatinSquareError(f"{what} {i} is not a permutation of 0..{len(rows) - 1}")
    return error


def _generating_sequence(rows: _Rows) -> list[int]:
    """Generators of the table's product, each the smallest element outside
    the span of the generators before it: what a breadth-first search from 0
    by right multiplication reaches, in a group the subgroup they generate.
    A new generator g extends the span by g from every element already in
    it, and by every generator from each element it adds."""
    seen = [True] + [False] * (len(rows) - 1)
    span = [0]
    gens: list[int] = []
    for g in range(len(rows)):
        if seen[g]:
            continue
        gens.append(g)
        old = len(span)
        for i, x in enumerate(span):  # grows as the search reaches new elements
            row = rows[x]
            for s in gens if i >= old else (g,):
                y = row[s]
                if not seen[y]:
                    seen[y] = True
                    span.append(y)
    return gens


# ---------------------------------------------------------------------------
# Descriptor parsing and family constructions


_ATOM_RE = re.compile(r"(SD|[ZDQ])(\d+)$", re.IGNORECASE)


def parse_group_descriptor(text: str) -> list[tuple[str, int]]:
    """Parse a descriptor like "Z4 x Z2 x Z3" into [(family, order), ...].

    Families: Z(n) cyclic, D(m) dihedral (m = 2^k >= 8), Q(m) generalized
    quaternion (m = 2^k >= 8), SD(m) semidihedral (m = 2^k >= 16); the
    parameter is always the group order. Separator "x", case-insensitive.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise DescriptorError("empty descriptor")
    atoms = []
    for part in re.split(r"[x×]", compact, flags=re.IGNORECASE):
        if not part:
            raise DescriptorError(f"empty factor in descriptor {text!r}")
        m = _ATOM_RE.match(part)
        if not m:
            raise DescriptorError(f"unrecognized factor {part!r} in {text!r}")
        family = m.group(1).upper()
        order = int(m.group(2))
        _check_atom(family, order, text)
        atoms.append((family, order))
    return atoms


def _check_atom(family: str, order: int, text: str) -> None:
    if family == "Z":
        if order < 1:
            raise DescriptorError(f"Z{order} in {text!r}: order must be >= 1")
        return
    if order < 8 or order & (order - 1):
        raise DescriptorError(
            f"{family}{order} in {text!r}: order must be a power of two >= 8"
        )
    if family == "SD" and order < 16:
        raise DescriptorError(f"SD{order} in {text!r}: smallest semidihedral is SD16")


def normalize_descriptor(text: str) -> str:
    return " x ".join(f"{f}{n}" for f, n in parse_group_descriptor(text))


def _cyclic_atom(n: int) -> tuple[_Rows, list[str]]:
    r = tuple(range(n)) * 2
    return tuple(r[i : i + n] for i in range(n)), [str(i) for i in range(n)]


def _two_generator_atom(family: str, order: int) -> tuple[_Rows, list[str]]:
    """Dihedral, quaternion, or semidihedral group of the given 2-power order.

    Elements are x^i*y^j encoded as i + half*j, with x of order `half`.
    The defining twist is y^-1 x y = x^r; quaternion additionally has
    y^2 = x^(half/2). A wrong twist gives no group, so the table is
    validated here, the one check `build_group` makes.
    """
    half = order // 2
    if family == "D":
        r, ysq = half - 1, 0
    elif family == "Q":
        r, ysq = half - 1, half // 2
    else:  # SD
        r, ysq = half // 2 - 1, 0
    # (x1 y^j1)(x2 y^j2) = x^(x1 + x2 r^j1 + ysq j1 j2) y^(j1 + j2)
    mult = tuple(
        tuple((x1 + x2 * twist + ysq * (j1 & j2)) % half + half * (j1 ^ j2) for j2 in (0, 1) for x2 in range(half))
        for j1, twist in ((0, 1), (1, r))
        for x1 in range(half)
    )
    names = [f"x{i}" if j == 0 else f"x{i}y" for j in (0, 1) for i in range(half)]
    _validate_table(mult)
    return mult, names


def _direct_product(tables: list[_Rows], names: list[list[str]]) -> tuple[_Rows, list[str]]:
    """Pair (a, b) is the element a*nb + b, nb the order of the right factor.

    Row (a, b) is, for each a' in turn, row b of the right factor shifted
    by (a*a')*nb; those shifted rows are made once and shared, and each row
    is one list extended by them and frozen once. The entries lie in
    0..n-1 by construction, so no range check runs on them either."""
    mult, nms = tables[0], names[0]
    for t, nm in zip(tables[1:], names[1:]):
        nb = len(t)
        blocks = [[tuple(map(k.__add__, row)) for k in range(0, len(mult) * nb, nb)] for row in t]
        rows = []
        for row_a in mult:
            for shifted in blocks:
                row: list[int] = []
                for a in row_a:
                    row += shifted[a]
                rows.append(tuple(row))
        mult = tuple(rows)
        nms = [f"({x},{y})" for x in nms for y in nm]
    return mult, nms


def build_group(descriptor: str) -> GroupTable:
    """Build the direct product of family groups named by the descriptor.

    The table is not validated again: Z_n is addition mod n, the other
    atoms are checked when built, and a direct product of groups is a
    group. tests/test_groups.py proves every table the catalog uses."""
    atoms = parse_group_descriptor(descriptor)
    tables, names = [], []
    for family, order in atoms:
        if family == "Z":
            t, nm = _cyclic_atom(order)
        else:
            t, nm = _two_generator_atom(family, order)
        tables.append(t)
        names.append(nm)
    mult, nms = _direct_product(tables, names)
    return GroupTable._built(mult, nms, normalize_descriptor(descriptor))


# ---------------------------------------------------------------------------
# Cayley-table file ingestion


def ingest_table(text: str, source: str = "<table>") -> GroupTable:
    """Parse and validate a Cayley table file.

    Format: first data line is n; the next n lines hold n space-separated
    0-based indices each (row i is the products i*j), and no data line may
    follow them; '#' starts a comment line. If the identity is found at an
    index other than 0 the table is relabeled so it lands at 0.

    Once a data row shows n entries, each entry is read by one lookup in
    {"0": 0, ..., str(n-1): n-1}, which both converts and range-checks it;
    the map is sized from that row, not the header, so a huge header
    allocates nothing. A row the lookup cannot read, or one with a wrong
    entry count, goes to `_parse_row`, which reads any spelling `int`
    accepts ("+1", "01") and raises the row's error with its line number.
    That parse is the table's one range check: the relabel keeps entries in
    0..n-1, so the table is then proven a group by `_prove_group` alone.
    """
    rows: list[tuple[int, ...]] = []
    n: Optional[int] = None
    lookup: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise TableParseError(f"expected group order, got {line!r}", lineno)
            if n < 1:
                raise TableParseError(f"order must be positive, got {n}", lineno)
            continue
        if len(rows) == n:
            raise TableParseError(f"unexpected data after the {n} table rows", lineno)
        entries = line.split()
        if not lookup and len(entries) == n:
            lookup = {str(i): i for i in range(n)}
        try:
            row = tuple(map(lookup.__getitem__, entries))
        except KeyError:
            row = ()  # n >= 1, so this takes the branch below
        if len(row) != n:
            row = _parse_row(line, entries, n, lineno)
        rows.append(row)
    if n is None:
        raise TableParseError("empty table file")
    if len(rows) != n:
        raise TableParseError(f"expected {n} rows, found {len(rows)}")
    table = tuple(_relabel_identity_to_zero(rows))
    _prove_group(table)
    return GroupTable._built(table, None, source)


def _parse_row(line: str, entries: list[str], n: int, lineno: int) -> tuple[int, ...]:
    """The data row `line`, split into `entries`, read with `int`; raises
    on a non-integer entry, then on a count other than n, then on an entry
    outside 0..n-1."""
    try:
        row = tuple(map(int, entries))
    except ValueError:
        raise TableParseError(f"non-integer entry in {line!r}", lineno)
    if len(row) != n:
        raise TableParseError(f"expected {n} entries, got {len(row)}", lineno)
    if min(row) < 0 or max(row) >= n:
        x = next(x for x in row if not 0 <= x < n)
        raise TableParseError(f"entry {x} out of range 0..{n - 1}", lineno)
    return row


def _relabel_identity_to_zero(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    identity = tuple(range(len(rows)))
    e = next((e for e in identity if rows[e] == identity and all(row[e] == i for i, row in enumerate(rows))), None)
    if e is None:
        raise IdentityError("no two-sided identity element in table")
    if e == 0:
        return rows
    perm = list(identity)
    perm[0], perm[e] = e, 0  # a transposition is its own inverse
    pick = operator.itemgetter(*perm)  # n >= 2 entries, so a tuple
    return [tuple(map(perm.__getitem__, pick(rows[p]))) for p in perm]


def table_to_text(g: GroupTable) -> str:
    lines = [f"# order {g.order}" + (f" ({g.source})" if g.source else ""), str(g.order)]
    for i in range(g.order):
        lines.append(" ".join(str(x) for x in g.rows()[i]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural queries


def cyclic_subgroups(g: GroupTable) -> list[frozenset[int]]:
    """The member sets of all distinct cyclic subgroups, trivial included,
    by order then members; each is spanned once (see `GroupTable._cyclic`)."""
    return list(g._cyclic.subgroups)


def cyclic_subgroup_counts(g: GroupTable) -> dict[int, int]:
    """Number of cyclic subgroups of each order."""
    return dict(sorted(Counter(map(len, g._cyclic.subgroups)).items()))


def maximal_cyclic_subgroups(g: GroupTable) -> list[frozenset[int]]:
    """The member sets of the cyclic subgroups not properly contained in
    another cyclic subgroup."""
    return list(g._cyclic.maximal)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def sylow_decomposition(g: GroupTable) -> SylowDecomposition:
    """Split a nilpotent group into its Sylow components, the direct factors.

    Raises NotNilpotentError when, for some prime p, the Sylow p-subgroup is
    not unique; its witness is two p-elements whose product is not one."""
    primes, found = g._sylow
    if primes is None:
        raise NotNilpotentError(*found)
    return SylowDecomposition(list(primes), list(found))


def is_p_group(g: GroupTable) -> bool:
    return len(_prime_factors(g.order)) <= 1


# ---------------------------------------------------------------------------
# Isomorphism testing


def group_isomorphic(
    a: GroupTable, b: GroupTable, cap: int = ISO_DEFAULT_CAP
) -> tuple[bool, Optional[list[int]]]:
    """Decide isomorphism by backtracking over generator images.

    Returns (found, mapping) where mapping[x] is the image of x when found.
    Order mismatch returns (False, None); orders above `cap` raise
    IsomorphismCapError. Deterministic: candidates are tried in index order.
    """
    if a.order != b.order:
        return False, None
    if a.order > cap:
        raise IsomorphismCapError(f"order {a.order} exceeds cap {cap}")
    if a.order == 1:
        return True, [0]
    if a.order_spectrum() != b.order_spectrum():
        return False, None
    if cyclic_subgroup_counts(a) != cyclic_subgroup_counts(b):
        return False, None
    ma, mb = a.rows(), b.rows()
    if (ma == tuple(zip(*ma))) != (mb == tuple(zip(*mb))):  # abelian or not
        return False, None

    gens = _generating_sequence(ma)
    by_order: dict[int, list[int]] = {}
    for y in range(b.order):
        by_order.setdefault(b.element_order(y), []).append(y)
    candidates = [by_order.get(a.element_order(g), []) for g in gens]

    phi = [0] + [-1] * (a.order - 1)
    mapping = _extend_isomorphism(ma, mb, gens, [], phi, candidates)
    if mapping is None:
        return False, None
    return True, mapping


def _extend_isomorphism(
    ma: _Rows,
    mb: _Rows,
    gens: list[int],
    images: list[int],
    phi: list[int],
    candidates: list[list[int]],
) -> Optional[list[int]]:
    """Try the candidate images of the next generator in order; `phi` is the
    homomorphism that sends the generators before it to `images`."""
    k = len(images)
    if k == len(gens):
        return phi
    used = set(phi)
    for h in candidates[k]:
        if h in used:
            continue
        extended = _try_extend(ma, mb, gens[: k + 1], images + [h])
        if extended is None:
            continue
        result = _extend_isomorphism(ma, mb, gens, images + [h], extended, candidates)
        if result is not None:
            return result
    return None


def _try_extend(ma: _Rows, mb: _Rows, gens: list[int], images: list[int]) -> Optional[list[int]]:
    """The injective homomorphism from the subgroup generated by `gens` that
    sends each generator to its image, with -1 outside that subgroup; None
    when there is none.

    A breadth-first search from the identity by right multiplication defines
    phi(x*s) = phi(x)*phi(s) for every generator s, and checks that equation
    at every x and s it meets. A map on a subgroup that respects right
    multiplication by its generators respects every product, since every
    element is a word in them.
    """
    phi = [0] + [-1] * (len(ma) - 1)
    reached = [0]
    pairs = list(zip(gens, images))
    for x in reached:  # grows as the search reaches new elements
        row_a, row_b = ma[x], mb[phi[x]]
        for s, t in pairs:
            y, z = row_a[s], row_b[t]
            if phi[y] < 0:
                phi[y] = z
                reached.append(y)
            elif phi[y] != z:
                return None
    if len({phi[x] for x in reached}) < len(reached):
        return None
    return phi
