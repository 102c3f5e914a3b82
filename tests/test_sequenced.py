import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypermap_census import SequencedCensus, degree_list, sub_multisets
from bruteforce import map_census_by_pairs, hypermap_census_by_pairs, ordered_selections


def test_base_case(seq):
    assert seq.hypermap(0, 0, 1, 0, 0) == 1
    assert seq.hypermap(0, 0, 1, 0, 0, (1,)) == 0
    assert seq.hypermap(0, 0, 2, 0, 0) == 0
    assert seq.hypermap(1, 0, 1, 0, 0) == 0


def test_one_and_two_darts(seq):
    # one dart forces root-vertex degree 1
    assert seq.hypermap(0, 1, 1, 1, 0) == 0
    assert seq.hypermap(0, 1, 1, 1, 1) == 1
    assert sum(seq.hypermap(0, 2, 2, 1, n) for n in (1, 2)) == 1


def test_crossed_argument_order_against_printed_values(seq):
    """Keys with f != e; these pins would break if the (e, f) swap in the
    reduction terms were transcribed as (f, e)."""
    assert seq.rooted(0, 3, 1, 2) == 3
    assert seq.rooted(0, 4, 3, 1) == 6
    assert seq.rooted(1, 4, 2, 1) == 5
    assert seq.rooted(2, 7, 2, 1) == 1183


def test_rooted_aggregation_matches_main_engine(seq, census14):
    for g in range(0, 2):
        for t in range(1, 7):
            for f in range(1, t + 2):
                for e in range(1, t + 2):
                    v = t + 2 * (1 - g) - e - f
                    if v < 1:
                        continue
                    assert seq.rooted(g, t, f, e) == census14.count(g, t, v, e, f)


def test_face_hyperedge_duality(seq):
    for g in range(0, 2):
        for t in range(1, 7):
            for f in range(1, t + 2):
                for e in range(f, t + 2):
                    a = sum(seq.hypermap(g, t, f, e, n) for n in range(1, t + 1))
                    b = sum(seq.hypermap(g, t, e, f, n) for n in range(1, t + 1))
                    assert a == b


def test_sequenced_against_dart_level_enumeration(seq):
    """Definition-level check including nonempty degree lists (t <= 4)."""
    for t in range(1, 5):
        pairs = hypermap_census_by_pairs(t)
        for g in range(0, 2):
            for f in range(1, t + 2):
                for e in range(1, t + 2):
                    for n in range(1, t + 1):
                        for D in ((), (1,), (2,), (1, 1)):
                            want = 0
                            for (gg, vv, ee, ff, nn, others), cnt in pairs.items():
                                if (gg, ee, ff, nn) == (g, e, f, n):
                                    want += cnt * ordered_selections(others, D)
                            assert seq.hypermap(g, t, f, e, n, D) == want, \
                                (g, t, f, e, n, D)


def test_degree_list_canonicalizes():
    assert degree_list([3, 1, 2]) == (1, 2, 3)
    assert degree_list(()) == ()
    with pytest.raises(ValueError):
        degree_list([0])


def test_counts_ignore_degree_list_order(seq):
    assert seq.hypermap(1, 8, 2, 2, 2, (2, 1)) == \
        seq.hypermap(1, 8, 2, 2, 2, (1, 2)) > 0
    assert seq.hypermap(0, 7, 2, 2, 1, (2, 1, 1)) == \
        seq.hypermap(0, 7, 2, 2, 1, (1, 2, 1)) > 0
    assert seq.multirooted_direct(1, 8, 2, 2, 2, (2, 1)) == \
        seq.multirooted_direct(1, 8, 2, 2, 2, (1, 2)) > 0


def test_sub_multisets_multiplicities():
    # for [1,1,2]: eight sublists in total, [1] and [1,2] realized twice
    out = {(sub, co): m for sub, co, m in sub_multisets((1, 1, 2))}
    assert out == {
        ((), (1, 1, 2)): 1,
        ((1,), (1, 2)): 2,
        ((1, 1), (2,)): 1,
        ((2,), (1, 1)): 1,
        ((1, 2), (1,)): 2,
        ((1, 1, 2), ()): 1,
    }
    assert sum(out.values()) == 8


# -- multirooted ------------------------------------------------------------

def test_multirooted_base_and_empty_product(seq):
    assert seq.multirooted_direct(0, 0, 1, 0, 0) == 1
    for t in range(1, 6):
        for n in range(1, t + 1):
            assert seq.multirooted(0, t, 1, t, n) == seq.hypermap(0, t, 1, t, n)


def test_multirooted_doubles_with_a_degree_two_vertex(seq):
    for t in range(2, 7):
        for f in range(1, t + 1):
            for e in range(1, t + 1):
                for n in range(1, t - 1):
                    h = seq.hypermap(0, t, f, e, n, (2,))
                    assert seq.multirooted(0, t, f, e, n, (2,)) == 2 * h
                    assert seq.multirooted_direct(0, t, f, e, n, (2,)) == 2 * h


def test_multirooted_direct_equals_product_form(seq):
    degree_lists = ((), (1,), (2,), (3,), (1, 1), (1, 2), (2, 2))
    for g in range(0, 3):
        for t in range(1, 7):
            for f in range(1, t + 2):
                for e in range(1, t + 2):
                    for n in range(1, t + 1):
                        for D in degree_lists:
                            if n + sum(D) > t:
                                continue
                            assert seq.multirooted_direct(g, t, f, e, n, D) == \
                                seq.multirooted(g, t, f, e, n, D)


# -- sequenced ordinary maps --------------------------------------------------

def test_map_base_and_one_edge(seq):
    assert seq.map_count(0, 0, 1, 0) == 1
    assert seq.map_count(0, 1, 2, 2) == 1   # the loop
    assert seq.map_count(0, 1, 1, 1) == 1   # the link
    total = sum(seq.map_count(0, 1, f, n) for f in (1, 2) for n in range(0, 3))
    assert total == 2


def test_two_edge_planar_maps(seq):
    total = sum(seq.map_count(0, 2, f, n)
                for f in range(1, 4) for n in range(0, 5))
    assert total == 9


def test_maps_against_dart_level_enumeration(seq):
    for edges in range(1, 4):
        pairs = map_census_by_pairs(edges)
        genus_totals = {}
        for (g, v, f, n, others), cnt in pairs.items():
            genus_totals[g] = genus_totals.get(g, 0) + cnt
        for g in range(0, edges // 2 + 1):
            for f in range(1, edges + 3):
                if 2 - 2 * g + edges - f < 1:
                    continue
                for n in range(1, 2 * edges + 1):
                    for D in ((), (1,), (2,), (3,), (1, 1), (1, 2)):
                        want = 0
                        for (gg, vv, ff, nn, others), cnt in pairs.items():
                            if (gg, ff, nn) == (g, f, n):
                                want += cnt * ordered_selections(others, D)
                        assert seq.map_count(g, edges, f, n, D) == want, \
                            (g, edges, f, n, D)
        if edges == 3:
            assert genus_totals == {0: 54, 1: 20}


def test_fresh_census_is_deterministic():
    a = SequencedCensus()
    b = SequencedCensus()
    assert a.rooted(1, 5, 2, 2) == b.rooted(1, 5, 2, 2)
    assert a.hypermap(1, 5, 2, 2, 3, (1,)) == b.hypermap(1, 5, 2, 2, 3, (1,))


def test_import_leaves_recursion_limit_alone():
    code = ("import sys; before = sys.getrecursionlimit(); "
            "import hypermap_census, hypermap_census.cli; "
            "print(before, sys.getrecursionlimit())")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == out[1]
