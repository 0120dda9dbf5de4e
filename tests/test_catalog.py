import hashlib
import math

import pytest

import oracles
from diffgenus import catalog
from diffgenus import groups as gr
from diffgenus.catalog import MAX_CATALOG_ORDER, builtin_catalog


def test_catalog_orders_and_names():
    cat = builtin_catalog()
    assert all(e.order <= MAX_CATALOG_ORDER for e in cat)
    names = [e.name for e in cat]
    assert len(names) == len(set(names))
    assert "Z12" in names and "Q8 x Z3" in names
    # cyclic listings win the dedup, so redundant product spellings are gone
    assert "Z4 x Z3" not in names and "Z2 x Z5" not in names


def test_catalog_tables_are_pinned():
    """Name, Cayley table, element names and source of every catalog group.
    The digest was taken before the group layer used numpy; the tables must
    not change."""
    h = hashlib.sha256()
    for e in builtin_catalog():
        g = e.group
        h.update(repr((e.name, g.rows(), g.names, g.source)).encode())
    assert h.hexdigest() == "a5d406830b3a68f6e87aa3d5e29fa7670b02c2c195ad0d6cd098ef4bd42c939c"


def test_catalog_max_order_filter(monkeypatch):
    # only the entries asked for are built
    built = []
    monkeypatch.setattr(catalog, "build_group", lambda name: built.append(name) or gr.build_group(name))
    catalog._entry.cache_clear()
    entries = builtin_catalog(30)
    assert all(e.order <= 30 for e in entries)
    assert sorted(built) == sorted(e.name for e in entries)
    with pytest.raises(ValueError):
        builtin_catalog(500)


def test_catalog_every_entry_nilpotent():
    for e in builtin_catalog():
        assert oracles.is_nilpotent(e.group), e.name


def test_catalog_dedup_no_isomorphic_pairs():
    by_order: dict[int, list] = {}
    for e in builtin_catalog(60):
        by_order.setdefault(e.order, []).append(e)
    for order, entries in by_order.items():
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                found, _ = gr.group_isomorphic(a.group, b.group, cap=order + 1)
                assert not found, (a.name, b.name)


def test_catalog_coprime_orders_commute():
    for e in builtin_catalog(60):
        g = e.group
        orders = g.orders()
        for x in range(g.order):
            for y in range(x + 1, g.order):
                if math.gcd(orders[x], orders[y]) == 1:
                    assert g.mult(x, y) == g.mult(y, x), e.name


def test_catalog_sylow_projection_full_check_small():
    """Full multiplicativity check of the Sylow projection for orders <= 64."""
    for e in builtin_catalog(64):
        g = e.group
        proj = oracles.sylow_projection(g)
        for x in range(g.order):
            for y in range(g.order):
                want = tuple(g.mult(a, b) for a, b in zip(proj[x], proj[y]))
                assert proj[g.mult(x, y)] == want, e.name


def test_catalog_exponent_p_squared_dichotomy():
    """Catalog p-groups of exponent p^2 have one order-p^2 cyclic subgroup or
    two meeting in order p."""
    for e in builtin_catalog():
        g = e.group
        if not gr.is_p_group(g) or g.order == 1:
            continue
        p = gr._prime_factors(g.order)[0]
        if g.exponent() != p * p:
            continue
        chains = [s for s in gr.cyclic_subgroups(g) if len(s) == p * p]
        if len(chains) > 1:
            assert any(
                len(a & b) == p
                for i, a in enumerate(chains)
                for b in chains[i + 1 :]
            ), e.name
