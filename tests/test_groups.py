import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from diffgenus import groups as gr
from diffgenus.catalog import builtin_catalog
from diffgenus.classify import classify_crosscap, classify_genus, condition_reports
from diffgenus.groupgraphs import difference_graph


def test_trivial_group():
    g = gr.build_group("Z1")
    assert g.order == 1
    assert g.exponent() == 1


def test_q8_structure(q8):
    assert q8.order == 8
    assert q8.exponent() == 4
    assert q8.order_spectrum() == {1: 1, 2: 1, 4: 6}


def test_product_order_and_sylow():
    g = gr.build_group("Z4 x Z2 x Z3")
    assert g.order == 24
    dec = gr.sylow_decomposition(g)
    assert dec.primes == [2, 3]
    assert sorted(map(len, dec.components)) == [3, 8]


def test_descriptor_whitespace_and_case():
    a = gr.build_group("z4XZ2   x z3")
    b = gr.build_group("Z4 x Z2 x Z3")
    assert a.order == b.order == 24
    assert gr.normalize_descriptor("z4XZ2   x z3") == "Z4 x Z2 x Z3"


@pytest.mark.parametrize("bad", ["", "Z0", "Q4", "D4", "SD8", "Z4 y Z2", "W5", "Z4 x"])
def test_bad_descriptors(bad):
    with pytest.raises(gr.DescriptorError):
        gr.parse_group_descriptor(bad)


def test_element_orders_z12(z12):
    # additive orders in Z12: element k has order 12/gcd(k,12)
    assert z12.element_order(4) == 3
    assert z12.element_order(0) == 1
    assert z12.element_order(1) == 12
    with pytest.raises(IndexError):
        z12.element_order(12)


def test_q8_element_orders(q8):
    orders = sorted(q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


@pytest.mark.parametrize(
    "desc,expected",
    [("Z2 x Z2 x Z2", 2), ("Z4 x Z2", 4), ("Z12", 12)],
)
def test_exponent(desc, expected):
    assert gr.build_group(desc).exponent() == expected


def test_cyclic_subgroups_z12(z12):
    subs = gr.cyclic_subgroups(z12)
    assert len(subs) == 6  # one per divisor of 12
    assert sorted(map(len, subs)) == [1, 2, 3, 4, 6, 12]
    assert gr.cyclic_subgroup_counts(z12) == {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 12: 1}


def test_cyclic_subgroups_q8(q8):
    assert gr.cyclic_subgroup_counts(q8) == {1: 1, 2: 1, 4: 3}


def test_cyclic_subgroups_z2z2():
    g = gr.build_group("Z2 x Z2")
    assert gr.cyclic_subgroup_counts(g) == {1: 1, 2: 3}


def test_maximal_cyclic_z12_is_whole_group(z12):
    subs = gr.maximal_cyclic_subgroups(z12)
    assert len(subs) == 1
    assert len(subs[0]) == 12


def test_maximal_cyclic_q8(q8):
    subs = gr.maximal_cyclic_subgroups(q8)
    assert sorted(map(len, subs)) == [4, 4, 4]
    pattern = oracles.intersection_pattern(subs)
    off_diag = [pattern[i][j] for i in range(3) for j in range(3) if i != j]
    assert off_diag == [2] * 6


def test_maximal_cyclic_d8(d8):
    subs = gr.maximal_cyclic_subgroups(d8)
    assert sorted(map(len, subs)) == [2, 2, 2, 2, 4]


def test_intersection_pattern_z2z2():
    g = gr.build_group("Z2 x Z2")
    subs = gr.maximal_cyclic_subgroups(g)
    pattern = oracles.intersection_pattern(subs)
    for i in range(len(subs)):
        for j in range(len(subs)):
            assert pattern[i][j] == (2 if i == j else 1)


def test_intersection_pattern_z4z2():
    g = gr.build_group("Z4 x Z2")
    m4 = [s for s in gr.maximal_cyclic_subgroups(g) if len(s) == 4]
    assert len(m4) == 2
    assert oracles.intersection_pattern(m4)[0][1] == 2


def test_sylow_decomposition_z12(z12):
    dec = gr.sylow_decomposition(z12)
    assert sorted(map(len, dec.components)) == [3, 4]
    # projection must be a bijection realizing the direct product
    assert len(set(oracles.sylow_projection(z12).values())) == 12


def test_sylow_q8z3():
    g = gr.build_group("Q8 x Z3")
    dec = gr.sylow_decomposition(g)
    assert sorted(map(len, dec.components)) == [3, 8]
    two_part, _ = oracles.subgroup_table(g, dec.components[dec.primes.index(2)])
    found, _ = gr.group_isomorphic(two_part, gr.build_group("Q8"))
    assert found


def test_sylow_projection_is_isomorphism():
    g = gr.build_group("Z4 x Z2 x Z9")
    proj = oracles.sylow_projection(g)
    for x in range(g.order):
        for y in range(g.order):
            px, py = proj[x], proj[y]
            prod = tuple(g.mult(a, b) for a, b in zip(px, py))
            assert proj[g.mult(x, y)] == prod


def test_not_nilpotent(s3):
    with pytest.raises(gr.NotNilpotentError):
        gr.sylow_decomposition(s3)
    assert not oracles.is_nilpotent(s3)


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    """Nothing a table caches or a query returns points back at it: its
    subgroups are member sets, and where it is not nilpotent it keeps the
    witness, not a raised error, whose traceback would. So a table is
    freed as soon as it is dropped, with the cyclic garbage collector off,
    after the structural queries, the difference graph, both classifiers
    and the C1-C3 conditions have read it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        z12 = gr.build_group("Z12")
        gr.cyclic_subgroups(z12)
        gr.maximal_cyclic_subgroups(z12)
        gr.sylow_decomposition(z12)
        difference_graph(z12)
        classify_genus(z12)
        classify_crosscap(z12)
        condition_reports(z12)
        ref = weakref.ref(z12)
        del z12
        assert ref() is None
        s3 = _permutation_group([(1, 0, 2), (1, 2, 0)])
        for query in (gr.sylow_decomposition, classify_genus, classify_crosscap, condition_reports):
            try:
                query(s3)
            except gr.NotNilpotentError:
                pass
            else:
                pytest.fail(f"{query.__name__} read S3 as nilpotent")
        ref = weakref.ref(s3)
        del s3
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _permutation_group(gens):
    """The group the permutations `gens` generate, identity at index 0; the
    product p*q applies q first."""
    elems = [tuple(range(len(gens[0])))]
    seen = set(elems)
    for p in elems:
        for s in gens:
            q = tuple(p[i] for i in s)
            if q not in seen:
                seen.add(q)
                elems.append(q)
    index = {p: i for i, p in enumerate(elems)}
    mult = [[index[tuple(p[i] for i in q)] for q in elems] for p in elems]
    return gr.GroupTable(mult, source="permutation group")


def _p_elements(spans, p):
    """The elements whose span has p-power order."""
    return {x for x, span in enumerate(spans) if len(span) in {p**k for k in range(len(span))}}


def test_sylow_count_matches_the_closure_oracle_on_the_catalog():
    """On a fresh table of every catalog group up to order 200, the Sylow
    count agrees with the closure oracle: each component is the prime's
    p-elements, and the maximal cyclic subgroups are the spans in no larger
    span."""
    for e in builtin_catalog(200):
        g = gr.GroupTable(e.group.rows(), source=e.name)
        assert oracles.is_nilpotent(g), e.name
        spans = oracles._spans(g)
        dec = gr.sylow_decomposition(g)
        assert dec.primes == oracles._primes(g.order), e.name
        for p, comp in zip(dec.primes, dec.components):
            assert comp == _p_elements(spans, p), (e.name, p)
        distinct = set(spans)
        maximal = set(gr.maximal_cyclic_subgroups(g))
        assert maximal == {s for s in distinct if not any(s < t for t in distinct)}, e.name


@pytest.mark.parametrize(
    "gens, first_prime",
    [([(1, 0, 2), (1, 2, 0)], 2), ([(1, 0, 2, 3), (1, 2, 3, 0)], 2), ([(1, 2, 0, 3), (0, 2, 3, 1)], 3)],
    ids=["S3", "S4", "A4"],
)
def test_sylow_count_rejects_non_nilpotent_permutation_groups(gens, first_prime):
    """S3 and S4 fail at 2; A4's Sylow 2-subgroup is normal and its 3-part
    fails. The error names a prime whose p-elements the oracle finds
    unclosed, with two p-elements whose product is not one."""
    g = _permutation_group(gens)
    spans = oracles._spans(g)
    unclosed = set()
    for p in oracles._primes(g.order):
        members = _p_elements(spans, p)
        if any(g.mult(a, b) not in members for a in members for b in members):
            unclosed.add(p)
    assert not oracles.is_nilpotent(g)
    with pytest.raises(gr.NotNilpotentError) as exc_info:
        gr.sylow_decomposition(g)
    err = exc_info.value
    assert err.prime == first_prime and err.prime in unclosed
    a, b = err.witness
    members = _p_elements(spans, err.prime)
    assert a in members and b in members and g.mult(a, b) not in members
    assert str(err) == f"{err.prime}-elements are not closed under multiplication (witness product {a}*{b})"
    with pytest.raises(gr.NotNilpotentError) as again:
        gr.sylow_decomposition(g)
    assert (again.value.prime, again.value.witness) == (err.prime, err.witness)


def test_element_order_rejects_negative_indices(z12):
    with pytest.raises(IndexError):
        z12.element_order(-1)


def test_element_order_stops_on_a_table_whose_powers_never_reach_the_identity():
    """1, 1*1 = 2, 2*1 = 2, ...: a table that skipped validation must end in
    an error, not in a list of powers that grows without bound."""
    g = gr.GroupTable._built(((0, 1, 2), (1, 2, 2), (2, 2, 1)), ["e", "a", "b"], "bad")
    with pytest.raises(gr.GroupError, match="element 1"):
        g.element_order(1)


def test_lcm_witness(z12):
    z = oracles.lcm_witness(z12, 4, 6)
    assert z12.element_order(z) == 12
    g = gr.build_group("Z2 x Z2")
    assert g.element_order(oracles.lcm_witness(g, 2, 2)) == 2
    qz3 = gr.build_group("Q8 x Z3")
    assert qz3.element_order(oracles.lcm_witness(qz3, 4, 3)) == 12


def test_lcm_witness_errors(z12, s3):
    with pytest.raises(gr.GroupError):
        oracles.lcm_witness(z12, 5, 2)
    with pytest.raises(gr.NotNilpotentError):
        oracles.lcm_witness(s3, 2, 3)


def test_lcm_witness_all_realized_pairs():
    g = gr.build_group("Z4 x Z2 x Z9")
    orders = sorted(set(g.orders()))
    for s in orders:
        for t in orders:
            z = oracles.lcm_witness(g, s, t)
            assert g.element_order(z) == math.lcm(s, t)


# -- ingestion ---------------------------------------------------------------


def test_ingest_round_trip(q8):
    text = gr.table_to_text(q8)
    again = gr.ingest_table(text)
    assert again.rows() == q8.rows()
    assert again.exponent() == 4


def test_ingest_z2():
    g = gr.ingest_table("2\n0 1\n1 0\n")
    assert g.order == 2


def test_ingest_comments_and_blank_lines():
    g = gr.ingest_table("# cyclic of order 3\n\n3\n0 1 2\n1 2 0\n# middle\n2 0 1\n")
    assert g.order == 3


def test_ingest_rejects_data_after_the_table():
    with pytest.raises(gr.TableParseError) as exc_info:
        gr.ingest_table("2\n0 1\n1 0\n1 0\ngarbage here\n")
    assert exc_info.value.line == 4
    assert "line 4" in str(exc_info.value)


def test_ingest_accepts_trailing_comments_and_blank_lines():
    g = gr.ingest_table("2\n0 1\n1 0\n\n# end of table\n   \n")
    assert g.rows() == ((0, 1), (1, 0))


def test_ingest_latin_square_error():
    with pytest.raises(gr.LatinSquareError):
        gr.ingest_table("2\n0 1\n1 1\n")


def test_ingest_relabels_identity():
    # Z3 written with the identity at index 1; ingestion must relabel
    text = "3\n2 0 1\n0 1 2\n1 2 0\n"
    g = gr.ingest_table(text)
    assert g.order == 3
    assert all(g.mult(0, j) == j for j in range(3))
    assert gr.group_isomorphic(g, gr.build_group("Z3"))[0]


def test_ingest_no_identity():
    with pytest.raises(gr.IdentityError):
        gr.ingest_table("3\n1 0 2\n2 1 0\n0 2 1\n")


LOOP5 = "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"


def test_ingest_non_associative_reports_witness():
    # a Latin square with identity and inverses that is not a group
    with pytest.raises(gr.AssociativityError) as exc_info:
        gr.ingest_table(LOOP5)
    m = [[int(x) for x in line.split()] for line in LOOP5.splitlines()[1:]]
    a, b, c = exc_info.value.triple
    assert m[m[a][b]][c] != m[a][m[b][c]]


def test_ingest_parse_error_has_line_number():
    with pytest.raises(gr.TableParseError) as exc_info:
        gr.ingest_table("2\n0 x\n1 0\n")
    assert exc_info.value.line == 2


# The ten digits of three scripts that int() reads: Arabic-Indic, Devanagari
# and fullwidth.
NON_ASCII_DIGITS = [str.maketrans("0123456789", "".join(map(chr, range(z, z + 10)))) for z in (0x660, 0x966, 0xFF10)]
TABLE_FAULTS = ("non-integer", "short row", "long row", "-1", "n", "extra line", "missing row")


def _spell(x: int, rng: random.Random) -> str:
    """x in one of the spellings int() accepts."""
    way = rng.randrange(5)
    if way == 1:
        return f"+{x}"
    if way == 2:
        return "0" * rng.randint(1, 3) + str(x)
    if way == 3:
        return "_".join(f"0{x}")  # 0_x, or 0_1_2 for 12
    if way == 4:
        return str(x).translate(rng.choice(NON_ASCII_DIGITS))
    return str(x)


def _table_file(rows, rng: random.Random, faults) -> str:
    """`rows` as a table file with random spellings and separators and a
    comment or blank line now and then. The entry faults all fall on one
    row, so that two of them show which error is raised first."""
    n = len(rows)
    lines = [list(map(str, row)) if rng.random() < 0.5 else [_spell(x, rng) for x in row] for row in rows]
    row = lines[rng.randrange(n)]
    for fault in faults:
        j = rng.randrange(len(row) + 1)
        if fault == "non-integer":
            row[j : j + 1] = [rng.choice(["x", "1.0", "0x1", "--1", "1e0"])]
        elif fault == "short row":
            del row[j : j + 1]
        elif fault == "long row":
            row.insert(j, _spell(rng.randrange(n), rng))
        elif fault in ("-1", "n"):
            row[j : j + 1] = [str(-1 if fault == "-1" else n)]
    if "extra line" in faults:
        lines.append(list(rng.choice(lines)))
    if "missing row" in faults:
        del lines[rng.randrange(len(lines))]
    out = [rng.choice(["# a relabelled table", ""]), _spell(n, rng)]
    for tokens in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(["# between rows", "", " \t"]))
        sep = rng.choice([" ", " ", "  ", "\t", " \t "])
        out.append(rng.choice(["", " ", "\t"]) + sep.join(tokens) + rng.choice(["", " ", "\t"]))
    return "\n".join(out) + "\n"


SMALL_CATALOG = [entry.group for entry in builtin_catalog(40)]


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(0, len(SMALL_CATALOG) - 1),
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(st.sampled_from(TABLE_FAULTS), max_size=2),
)
def test_ingest_reads_any_spelling_as_the_int_parser_does(index, seed, faults):
    """A catalog table of order <= 40, relabelled by a seeded permutation and
    written with random spellings and up to two faults, ingests to the rows
    the former int() parser gives, or raises the error that parser or the
    public constructor raised, with its message and line."""
    rng = random.Random(seed)
    rows = SMALL_CATALOG[index].rows()
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)  # element x is written as perm[x]
    relabelled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[perm[a]][perm[b]] = perm[rows[a][b]]
    text = _table_file(relabelled, rng, faults)

    def outcome(ingest):
        try:
            return ingest(text).rows()
        except gr.GroupError as exc:
            return type(exc), str(exc), getattr(exc, "line", None)

    # the former path: parse with int(), then the public constructor's checks
    expected = outcome(lambda t: gr.GroupTable(oracles.parse_table_text(t)))
    assert outcome(gr.ingest_table) == expected
    if not faults:  # a relabelled group ingests
        assert expected == tuple(map(tuple, oracles.parse_table_text(text)))


TABLE_DAMAGE = ("swap in a row", "another entry", "identity row", "loop")


@pytest.mark.parametrize("damage", TABLE_DAMAGE)
def test_ingest_raises_the_constructors_error_on_in_range_damage(damage):
    """Seeded relabelled catalog tables of order <= 40, damaged with every
    entry left in 0..n-1: two entries of a row swapped, an entry replaced by
    another, the identity's row broken, or the order-5 loop relabelled.
    The parse is the one range check on the ingest path, which then proves
    only the axioms; it must raise the error, message and line that the
    int() parser and the public constructor's full check raise. The
    constructor still rejects an entry of -1 or n in the undamaged table,
    whose identity is at 0, where only the range check can catch it."""
    loop = [[int(x) for x in line.split()] for line in LOOP5.splitlines()[1:]]
    for seed in range(60):
        rng = random.Random(seed)
        rows = loop if damage == "loop" else rng.choice(SMALL_CATALOG[1:]).rows()
        n = len(rows)
        perm = list(range(n))
        rng.shuffle(perm)  # element x is written as perm[x]
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[rows[a][b]]
        r, c, c2 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if damage == "identity row":
            r = perm[0]
        if damage in ("swap in a row", "identity row"):
            table[r][c], table[r][c2] = table[r][c2], table[r][c]
        elif damage == "another entry":
            table[r][c] = (table[r][c] + rng.randrange(1, n)) % n
        text = f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)

        def outcome(ingest):
            try:
                return ingest(text).rows()
            except gr.GroupError as exc:
                return type(exc), str(exc), getattr(exc, "line", None)

        assert outcome(gr.ingest_table) == outcome(lambda t: gr.GroupTable(oracles.parse_table_text(t))), seed
        for entry in (-1, n):
            bad = [list(row) for row in rows]
            bad[r][c] = entry
            with pytest.raises(gr.LatinSquareError, match=f"row {r} is not a permutation"):
                gr.GroupTable(bad)


@pytest.mark.parametrize(
    "text, message",
    [("1000000000\n", "expected 1000000000 rows, found 0"),
     ("1000000000\n0 1\n", "line 2: expected 1000000000 entries, got 2")],
    ids=["no-rows", "short-row"],
)
def test_ingest_a_huge_header_fails_at_once_in_little_memory(text, message):
    """The entry lookup is sized from the data, not from the header."""
    tracemalloc.start()
    try:
        with pytest.raises(gr.TableParseError) as exc_info:
            gr.ingest_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc_info.value) == message
    assert peak < 1 << 20


# -- validation ---------------------------------------------------------------


def test_ragged_row_is_not_a_latin_square():
    with pytest.raises(gr.LatinSquareError, match="row 1 has length 1"):
        gr.GroupTable([[0, 1], [1]])


def test_out_of_range_entry_is_not_a_latin_square():
    with pytest.raises(gr.LatinSquareError, match="row 1"):
        gr.GroupTable([[0, 1], [1, 2]])


def test_permutation_rows_with_a_repeated_column():
    # every row is a permutation of 0..2, column 0 repeats 1
    with pytest.raises(gr.LatinSquareError, match="column 0"):
        gr.GroupTable([[0, 1, 2], [1, 2, 0], [1, 0, 2]])


def test_identity_must_sit_at_index_zero():
    # Z3 with its identity at index 1
    with pytest.raises(gr.IdentityError):
        gr.GroupTable([[2, 0, 1], [0, 1, 2], [1, 2, 0]])


def test_right_inverse_that_is_not_a_left_inverse():
    # a loop of order 5: 1*2 = 0 but 2*1 = 4, so element 1 is the first
    # without a two-sided inverse
    table = [
        [0, 1, 2, 3, 4],
        [1, 3, 0, 4, 2],
        [2, 4, 3, 1, 0],
        [3, 0, 4, 2, 1],
        [4, 2, 1, 0, 3],
    ]
    with pytest.raises(gr.InverseError) as exc_info:
        gr.GroupTable(table)
    assert exc_info.value.element == 1


@pytest.mark.parametrize("entry", [-1, 3])
def test_out_of_range_entries_of_z3_are_not_a_latin_square(entry):
    """Python reads index -1 as the last row; neither -1 nor 3 may pass in
    any cell of Z3."""
    for i in range(3):
        for j in range(3):
            table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
            table[i][j] = entry
            with pytest.raises(gr.LatinSquareError, match=f"row {i}"):
                gr.GroupTable(table)


@pytest.mark.parametrize("names", [["e"], ["e", "a", "b"]])
def test_names_must_number_the_elements(names):
    with pytest.raises(gr.GroupError, match=f"{len(names)} names for a group of order 2"):
        gr.GroupTable([[0, 1], [1, 0]], names=names)
    assert gr.GroupTable([[0, 1], [1, 0]], names=["e", "a"]).names == ["e", "a"]


def test_the_package_never_imports_numpy():
    """numpy is a test dependency only: importing every module, building
    the order-200 catalog and verifying one group leave it unloaded."""
    code = "\n".join([
        "import importlib, pkgutil, sys",
        "import diffgenus",
        "for m in pkgutil.iter_modules(diffgenus.__path__):",
        "    importlib.import_module(f'diffgenus.{m.name}')",
        "from diffgenus import catalog, harness",
        "entry = next(e for e in catalog.builtin_catalog(200) if e.name == 'Q8 x Z3')",
        "print(harness.verify_group(entry.group, name=entry.name).status)",
        "print('numpy' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gr.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["consistent", "False"]


def test_empty_table():
    with pytest.raises(gr.GroupError, match="empty"):
        gr.GroupTable([])


@pytest.mark.parametrize("table, where", [
    ([[0, 1], [1, 0.7]], r"row 1, column 1: entry 0\.7 \(float\)"),
    ([[0.0, 1.9], [1.2, 0.3]], r"row 0, column 0: entry 0\.0 \(float\)"),
    ([[0, 1], [1.0, 0]], r"row 1, column 0: entry 1\.0 \(float\)"),
    ([["0", "1"], ["1", "0"]], r"row 0, column 0: entry 0 \(str\)"),
    ([[0, 1], [1, "0"]], r"row 1, column 1: entry 0 \(str\)"),
    ([[True, False], [False, True]], r"row 0, column 0: entry True \(bool\)"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), r"row 0, column 0: entry 0\.0 \(float64\)"),
])
def test_non_integer_entries_are_rejected(table, where):
    """numpy would cast each of these to Z2 without complaint."""
    with pytest.raises(gr.GroupError, match=where):
        gr.GroupTable(table)


@pytest.mark.parametrize("table", [
    ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int64),
    np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.uint8),
    [[0, 1, 2], [1, 2, 0], [2, 0, np.int32(1)]],
])
def test_integer_tables_are_accepted(table):
    assert gr.GroupTable(table).rows() == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _program_descriptors() -> list[str]:
    """The catalog's groups, Z_n up to 256, and D, Q and SD at every power
    of two they allow up to 256."""
    descriptors = [e.name for e in builtin_catalog()]
    descriptors += [f"Z{n}" for n in range(1, 257)]
    descriptors += [f"{family}{2 ** k}" for family in ("D", "Q", "SD") for k in range(3, 9)
                    if not (family == "SD" and k == 3)]
    return descriptors


def test_every_table_build_group_makes_is_a_group():
    """`build_group` does not validate its tables; this proves every one the
    program uses (`_program_descriptors`)."""
    for descriptor in _program_descriptors():
        g = gr.build_group(descriptor)
        gr._validate_table(g.rows())


def test_generating_sequence_matches_the_numpy_closure():
    """The breadth-first span by right multiplication picks the same
    generators as the numpy product closure on every table the program
    uses, so Light's test checks the same elements."""
    for descriptor in _program_descriptors():
        rows = gr.build_group(descriptor).rows()
        assert gr._generating_sequence(rows) == oracles.numpy_generating_sequence(np.array(rows)), descriptor


MUTATIONS = ("swap", "-1", "n", "True", "intercalate")


def _intercalates(table: list[list[int]], r1: int, c1: int) -> list[tuple[int, int]]:
    """The (r2, c2) with table[r1][c1] == table[r2][c2] and table[r1][c2] ==
    table[r2][c1], c2 != c1; in a group, c2 = c1*u for an involution u."""
    n = len(table)
    out = []
    for c2 in range(n):
        r2 = next(r for r in range(n) if table[r][c1] == table[r1][c2])
        if c2 != c1 and table[r2][c2] == table[r1][c1]:
            out.append((r2, c2))
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validator_matches_the_numpy_oracle_on_mutated_catalog_tables(data):
    """One mutation of a catalog table: two entries swapped, one entry set
    to -1, n or True, or an intercalate swapped (a Latin square again, on
    even orders). Both validators must accept it or raise the same class;
    Latin-square, identity and inverse errors must name the same row,
    column or element, and an associativity triple must fail."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    entries = [e for e in builtin_catalog() if kind != "intercalate" or e.order % 2 == 0]
    table = [list(row) for row in data.draw(st.sampled_from(entries)).group.rows()]
    n = len(table)
    r1, c1 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if kind == "swap":
        r2, c2 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[r1][c1], table[r2][c2] = table[r2][c2], table[r1][c1]
    elif kind == "intercalate":
        r2, c2 = data.draw(st.sampled_from(_intercalates(table, r1, c1)))
        for r in (r1, r2):
            table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
    else:
        table[r1][c1] = {"-1": -1, "n": n, "True": True}[kind]

    def outcome(validate, t):
        try:
            validate(t)
        except gr.GroupError as exc:
            return exc
        return None

    new = outcome(gr._validate_table, tuple(map(tuple, table)))
    old = outcome(oracles.numpy_validate_table, np.array(table))
    assert type(new) is type(old), (kind, new, old)
    if isinstance(new, gr.AssociativityError):
        a, b, c = new.triple
        assert table[table[a][b]][c] != table[a][table[b][c]]
    elif new is not None:
        assert str(new) == str(old)


def _small_tables(s3) -> list[tuple[tuple[int, ...], ...]]:
    groups = [gr.build_group(d) for d in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z2 x Z2", "D8", "Q8", "D16")]
    return [g.rows() for g in groups + [s3]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direct_product_is_a_group_with_homomorphic_projections(s3, data):
    """Pair (a, b) sits at a*nb + b; its projections x // nb and x % nb
    must respect every product, for abelian and non-abelian factors."""
    tables = _small_tables(s3)
    a, b = (data.draw(st.sampled_from(tables)) for _ in range(2))
    mult, names = gr._direct_product([a, b], [[str(x) for x in range(len(t))] for t in (a, b)])
    gr._validate_table(mult)
    nb = len(b)
    mult, a, b = map(np.array, (mult, a, b))
    x = np.arange(len(mult))
    assert np.array_equal(mult // nb, a[np.ix_(x // nb, x // nb)])
    assert np.array_equal(mult % nb, b[np.ix_(x % nb, x % nb)])
    assert names == [f"({i},{j})" for i in range(len(a)) for j in range(len(b))]


# The two parts the `tables` benchmark draws its groups from (bench/workloads.py):
# a 2-group of order 16 times an odd part of order 5, 9 or 15.
TABLE_TWO_PARTS = (
    "Z16", "Z8 x Z2", "Z4 x Z4", "Z4 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2",
    "D16", "Q16", "SD16", "D8 x Z2", "Q8 x Z2",
)
TABLE_ODD_PARTS = (("Z5",), ("Z9", "Z3 x Z3"), ("Z15", "Z3 x Z5"))


@pytest.mark.parametrize("seed", range(4))
def test_product_tables_match_the_definition(seed):
    """`build_group` on "2-part x odd part" descriptors of order 80-240,
    drawn as the `tables` benchmark draws them: the entry of (a, b)*(a', b')
    is (a*a')*nb + (b*b'), read from the atoms' tables factor by factor."""
    rng = random.Random(seed)
    for odd_parts in TABLE_ODD_PARTS:
        for _ in range(3):
            descriptor = f"{rng.choice(TABLE_TWO_PARTS)} x {rng.choice(odd_parts)}"
            atoms = [np.array(gr.build_group(atom).rows()) for atom in descriptor.split(" x ")]
            want = atoms[0]
            for right in atoms[1:]:
                nb = len(right)
                x = np.arange(len(want) * nb)
                want = want[np.ix_(x // nb, x // nb)] * nb + right[np.ix_(x % nb, x % nb)]
            assert np.array_equal(np.array(gr.build_group(descriptor).rows()), want), descriptor


def test_associativity_is_exact_above_order_256():
    """Z_258 with one intercalate swapped (rows 1 and 130, columns 1 and
    130) is a Latin square with identity 0 and the inverses of Z_258; only
    a few thousand of its 258^3 triples fail associativity."""
    n = 258
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    half = n // 2
    for r in (1, 1 + half):
        table[r][1], table[r][1 + half] = table[r][1 + half], table[r][1]
    with pytest.raises(gr.AssociativityError) as exc_info:
        gr.GroupTable(table)
    a, b, c = exc_info.value.triple
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_associativity_checks_every_generator():
    """The order-5 loop times Z3, pair (a, b) at index 3a + b. Its first
    generator, 1 = (0, 1), lies in the Z3 factor and associates with every
    pair; only the second, 3 = (1, 0), exposes the loop."""
    loop = [[int(x) for x in line.split()] for line in LOOP5.splitlines()[1:]]
    table = [
        [loop[a1][a2] * 3 + (b1 + b2) % 3 for a2 in range(5) for b2 in range(3)]
        for a1 in range(5)
        for b1 in range(3)
    ]
    with pytest.raises(gr.AssociativityError) as exc_info:
        gr.GroupTable(table)
    a, b, c = exc_info.value.triple
    assert b == 3
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_associativity_witness_fails_in_its_own_order(s3):
    """S3 with the intercalate at rows 2, 4 and columns 3, 4 swapped: a
    noncommutative loop whose witness (a*b)*c != a*(b*c) does not survive
    reordering, so the triple must come back in the order that fails."""
    table = [list(row) for row in s3.rows()]
    for r in (2, 4):
        table[r][3], table[r][4] = table[r][4], table[r][3]
    with pytest.raises(gr.AssociativityError) as exc_info:
        gr.GroupTable(table)
    a, b, c = exc_info.value.triple
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_large_product_validates():
    g = gr.build_group("Q16 x Z3 x Z25")
    assert g.order == 1200
    assert g.exponent() == 8 * 3 * 25
    gr._validate_table(g.rows())


# -- isomorphism -------------------------------------------------------------


def test_iso_chinese_remainder():
    found, mapping = gr.group_isomorphic(gr.build_group("Z6"), gr.build_group("Z2 x Z3"))
    assert found
    assert sorted(mapping) == list(range(6))


def test_iso_rejects_different_exponent():
    found, mapping = gr.group_isomorphic(gr.build_group("Z4"), gr.build_group("Z2 x Z2"))
    assert not found and mapping is None


def test_iso_d8_vs_q8(d8, q8):
    found, _ = gr.group_isomorphic(d8, q8)
    assert not found


def test_iso_order_mismatch_is_false_not_error(q8, z12):
    assert gr.group_isomorphic(q8, z12) == (False, None)


def test_iso_cap(z12):
    big = gr.build_group("Z140")
    with pytest.raises(gr.IsomorphismCapError):
        gr.group_isomorphic(big, big, cap=128)


def test_iso_same_invariants_not_isomorphic():
    """Z4 x| Z4 (y^-1 x y = x^-1) and Q8 x Z2 are nonabelian with three
    involutions, twelve elements of order 4 and six cyclic subgroups of
    order 4, so only the search can tell them apart."""
    # x^a y^b at index a + 4b
    semidirect = [
        [(a + (c if b % 2 == 0 else -c)) % 4 + 4 * ((b + d) % 4) for d in range(4) for c in range(4)]
        for b in range(4)
        for a in range(4)
    ]
    g, h = gr.GroupTable(semidirect), gr.build_group("Q8 x Z2")
    assert g.order_spectrum() == h.order_spectrum()
    assert gr.cyclic_subgroup_counts(g) == gr.cyclic_subgroup_counts(h)
    assert gr.group_isomorphic(g, h) == (False, None)
    assert gr.group_isomorphic(h, g) == (False, None)


def test_iso_witness_is_homomorphism(q8):
    shuffled = _shuffle_nonidentity(q8, seed=7)
    found, phi = gr.group_isomorphic(q8, shuffled)
    assert found
    for a in range(8):
        for b in range(8):
            assert phi[q8.mult(a, b)] == shuffled.mult(phi[a], phi[b])


def test_iso_zm_zn_coprime():
    for m, n in [(3, 4), (4, 9), (5, 8)]:
        a = gr.build_group(f"Z{m} x Z{n}")
        b = gr.build_group(f"Z{m * n}")
        assert gr.group_isomorphic(a, b)[0]


def test_isomorphism_results_are_pinned():
    """group_isomorphic on every same-order pair of catalog groups up to
    order 128, and between each of those groups and a seeded relabelled
    copy; each returned mapping must be an isomorphism. The digest was
    taken before the group layer used numpy; the search tries candidates
    in a fixed order, so every mapping must be the same."""
    cat = builtin_catalog(128)
    results = []
    for i, a in enumerate(cat):
        for b in cat[i + 1 :]:
            if a.order == b.order:
                results.append((a.name, b.name, gr.group_isomorphic(a.group, b.group)))
    rng = random.Random(11)
    for e in cat:
        copy = _shuffle_nonidentity(e.group, seed=rng.randrange(2**32))
        found, phi = gr.group_isomorphic(e.group, copy)
        assert found, e.name
        a, b, p = np.array(e.group.rows()), np.array(copy.rows()), np.array(phi)
        assert (p[a] == b[np.ix_(p, p)]).all(), e.name
        results.append((e.name, phi))
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "ded98f33a95908fcbee51a41a1cf9389772b803420a52595a7c2d994e13981ec"


def _shuffle_nonidentity(g, seed):
    rng = random.Random(seed)
    perm = list(range(1, g.order))
    rng.shuffle(perm)
    perm = [0] + perm
    inv = [0] * g.order
    for i, p in enumerate(perm):
        inv[p] = i
    mult = [[inv[g.mult(perm[i], perm[j])] for j in range(g.order)] for i in range(g.order)]
    return gr.GroupTable(mult, source="shuffled")


# -- structural facts used downstream ---------------------------------------


def test_coprime_elements_commute():
    for desc in ("Z4 x Z2 x Z3", "Q8 x Z3", "D8 x Z2 x Z3", "Z2 x Z2 x Z5"):
        g = gr.build_group(desc)
        for x in range(g.order):
            for y in range(g.order):
                if math.gcd(g.element_order(x), g.element_order(y)) == 1:
                    assert g.mult(x, y) == g.mult(y, x)


def test_exponent_p_squared_dichotomy():
    """A p-group of exponent p^2 has exactly one cyclic subgroup of order p^2
    or two meeting in order p."""
    for desc in ("Z4", "D8", "Q8", "Z4 x Z2", "Z4 x Z4", "Z4 x Z2 x Z2", "Z9", "Z3 x Z9"):
        g = gr.build_group(desc)
        exp = g.exponent()
        p = 2 if exp % 2 == 0 else 3
        if exp != p * p:
            continue
        chains = [s for s in gr.cyclic_subgroups(g) if len(s) == p * p]
        if len(chains) == 1:
            continue
        assert any(
            len(a & b) == p
            for i, a in enumerate(chains)
            for b in chains[i + 1 :]
        )


def test_cyclic_count_congruences():
    """Non-cyclic p-groups away from the dihedral/quaternion/semidihedral
    families: the number of order-p cyclic subgroups is 1+p mod p^2 and
    higher counts are divisible by p."""
    for desc, p in [("Z2 x Z2", 2), ("Z2 x Z2 x Z2", 2), ("Z4 x Z2", 2),
                    ("Z4 x Z4", 2), ("Z4 x Z2 x Z2", 2), ("D8 x Z2", 2),
                    ("Q8 x Z2", 2), ("Z3 x Z3", 3)]:
        g = gr.build_group(desc)
        counts = gr.cyclic_subgroup_counts(g)
        assert counts[p] % (p * p) == 1 + p, desc
        q = p * p
        while q <= g.exponent():
            assert counts.get(q, 0) % p == 0, (desc, q)
            q *= p


def test_unique_chain_counts_match_families():
    """Groups with some cyclic-subgroup count equal to one at a 2-power:
    exactly the cyclic, dihedral, quaternion, and semidihedral tables."""
    expected = {
        "Z8": {1: 1, 2: 1, 4: 1, 8: 1},
        "D16": {1: 1, 2: 9, 4: 1, 8: 1},
        "Q16": {1: 1, 2: 1, 4: 5, 8: 1},
        "SD16": {1: 1, 2: 5, 4: 3, 8: 1},
    }
    for desc, counts in expected.items():
        assert gr.cyclic_subgroup_counts(gr.build_group(desc)) == counts, desc
