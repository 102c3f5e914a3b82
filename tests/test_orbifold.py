import itertools
import math

import pytest

from hypermap_census import (
    InexactDivisionError,
    NotFilledError,
    OrbifoldSignature,
    RootedCensus,
    admissible_signatures,
    epi0,
    faces_from_key,
    sensed_table,
)
from hypermap_census.orbifold import _arithmetic, _branch_distributions, _epi0, _signatures
from bruteforce import epi_count_by_convolution, epi_count_by_tuples, signatures_by_search


def as_pairs(sigs):
    return {(s.quotient_genus, s.orbit_lengths) for s in sigs}


def lengths(branch):
    """The sorted orbit lengths of (orbit length, count) pairs."""
    return tuple(l for l, q in branch for _ in range(q))


def test_signature_examples():
    assert as_pairs(admissible_signatures(1, 1)) == {(1, ())}
    assert as_pairs(admissible_signatures(1, 2)) == {(1, ()), (0, (1, 1, 1, 1))}
    assert as_pairs(admissible_signatures(0, 3)) == {(0, (1, 1))}


def check_signatures_by_search(max_genus, max_period):
    """The enumeration at its never-binding cap 2(G + L) finds every
    signature an unstructured search finds, and no other; returns how many."""
    found = 0
    for G in range(max_genus + 1):
        for L in range(1, max_period + 1):
            sigs = admissible_signatures(G, L)
            assert as_pairs(sigs) == signatures_by_search(G, L), (G, L)
            found += len(sigs)
    return found


def test_signatures_match_unstructured_search():
    # every signature library-sweep's count covers
    assert check_signatures_by_search(10, 30) == 844


@pytest.mark.deep
def test_signatures_match_unstructured_search_at_the_deep_caps():
    assert check_signatures_by_search(24, 50) == 5426


def test_signature_validation_and_derived_fields():
    sig = OrbifoldSignature(4, 0, (1, 1, 2))
    assert sig.branch_indices == (2, 4, 4)
    assert sig.covered_genus() == 1    # quarter turns of the torus
    assert OrbifoldSignature(3, 0, (1, 1)).covered_genus() == 0
    with pytest.raises(ValueError):
        OrbifoldSignature(4, 0, (3,))    # 3 does not divide 4
    with pytest.raises(ValueError):
        OrbifoldSignature(4, 0, (4,))    # orbit length must be proper


@pytest.mark.parametrize("orbit_lengths", [(0,), (-2,), (-1, -1), (2.0,), (True,)])
def test_signature_rejects_orbit_lengths_that_cannot_exist(orbit_lengths):
    with pytest.raises(ValueError):
        OrbifoldSignature(4, 0, orbit_lengths)


@pytest.mark.parametrize("period,quotient_genus", [(0, 0), (-1, 1), (2, -1),
                                                  (2, 0.5), (True, 0)])
def test_signature_rejects_bad_period_or_quotient_genus(period, quotient_genus):
    with pytest.raises(ValueError):
        OrbifoldSignature(period, quotient_genus, ())


@pytest.mark.parametrize("G,L", [(1, 0), (1, -1), (-1, 1), (-1, 2)])
def test_admissible_signatures_rejects_bad_bounds(G, L):
    with pytest.raises(ValueError):
        admissible_signatures(G, L)


@pytest.mark.parametrize("call", [
    lambda: admissible_signatures(1.5, 2),
    lambda: admissible_signatures(1, 2.0),
    lambda: admissible_signatures(True, 2),
    lambda: sensed_table(1.0, 4, RootedCensus(1, 4)),
    lambda: sensed_table(1, 4.0, RootedCensus(1, 4)),
    lambda: sensed_table(True, 4, RootedCensus(1, 4)),
    lambda: sensed_table(1, True, RootedCensus(1, 4)),
], ids=["G-float", "L-float", "G-bool",
        "sensed-G-float", "sensed-darts-float", "sensed-G-bool", "sensed-darts-bool"])
def test_bounds_must_be_ints(call):
    with pytest.raises(ValueError):
        call()


def test_signature_orbit_lengths_are_stored_sorted():
    sig = OrbifoldSignature(4, 0, [2, 1, 1])
    assert sig.orbit_lengths == (1, 1, 2)
    assert OrbifoldSignature(4, 0, (2, 1, 1)) == OrbifoldSignature(4, 0, (1, 1, 2))
    assert hash(sig) == hash(OrbifoldSignature(4, 0, (1, 1, 2)))
    assert epi0(sig) == epi0(OrbifoldSignature(4, 0, (1, 1, 2)))


def test_every_admissible_signature_covers_its_genus():
    for G in range(11):
        for L in range(1, 31):
            for sig in admissible_signatures(G, L):
                assert sig.covered_genus() == G


def test_epi0_examples():
    assert epi0(OrbifoldSignature(1, 3, ())) == 1
    assert epi0(OrbifoldSignature(2, 0, (1, 1, 1, 1))) == 1
    assert epi0(OrbifoldSignature(4, 0, (1, 1, 2))) == 2


def test_epi0_against_tuple_enumeration():
    checked = 0
    for G in range(0, 4):
        for L in range(1, 13):
            for sig in admissible_signatures(G, L):
                assert epi0(sig) == epi_count_by_tuples(
                    sig.period, sig.quotient_genus, sig.orbit_lengths), sig
                checked += 1
    assert checked > 40


def test_epi0_checks_its_division_by_the_subgroup_order():
    # phi(4) misread as 3 leaves the character sum 18 over Z_4
    arith = _arithmetic(4)
    bad = arith._replace(totient=arith.totient[:4] + [3])
    with pytest.raises(InexactDivisionError):
        _epi0(4, 0, ((1, 2), (2, 1)), bad)    # OrbifoldSignature(4, 0, (1, 1, 2))


@pytest.mark.deep
def test_epi0_against_divisor_lattice_convolution():
    """The character sum equals the convolution over each subgroup's elements
    on every signature sensed_table enumerates at the --deep caps."""
    checked = 0
    for G in range(25):
        for L in range(1, 51):
            for g, branch in _signatures(G, L, 50 // L, _arithmetic(L)):
                sig = OrbifoldSignature(L, g, lengths(branch))
                assert epi0(sig) == epi_count_by_convolution(*sig), sig
                checked += 1
    assert checked == 2413


@pytest.mark.parametrize("G,key,expected", [
    (0, (4, 2, 2, 2), 5),
    (2, (8, 2, 2, 2), 2664),
    (1, (6, 2, 2, 2), 78),
    (5, (11, 1, 1, 1), 54990),
])
def test_sensed_printed_counts(G, key, expected):
    E, v, e, f = key
    table = sensed_table(G, E, RootedCensus(G, E))
    assert table.count(G, E, v, e, f) == expected


def test_sensed_totals():
    table = sensed_table(1, 6, RootedCensus(1, 6))
    assert table.total(1, 6) == 285
    table = sensed_table(2, 6, RootedCensus(2, 6))
    assert table.total(2, 6) == 48


def test_one_dart_and_trivial_cases():
    table = sensed_table(0, 2, RootedCensus(0, 2))
    assert table.count(0, 1, 1, 1, 1) == 1
    assert table.count(0, 2, 1, 1, 2) == 1
    assert table.total(0, 2) == 3


def test_burnside_sandwich_and_key_subset():
    for G in range(0, 3):
        rooted = RootedCensus(G, 9)
        sensed = sensed_table(G, 9, rooted)
        for E in range(2 * G + 1, 10):
            for (f, b, w), r in rooted.poly(G, E).terms():
                c = sensed.count(G, E, w, b)
                assert r <= E * c, (G, E, w, b)
                assert c <= r, (G, E, w, b)
        for (g, E, v, e), c in sensed.items():
            assert rooted.count(g, E, v, e, faces_from_key(g, E, v, e)) >= c


def test_sensed_permutation_symmetry():
    for G in range(0, 3):
        table = sensed_table(G, 8, RootedCensus(G, 8))
        for (g, E, v, e), c in table.items():
            f = faces_from_key(g, E, v, e)
            for pv, pe, pf in itertools.permutations((v, e, f)):
                assert table.count(g, E, pv, pe, pf) == c


def test_sensed_requires_covering_rooted_census():
    rooted = RootedCensus(0, 4)
    with pytest.raises(NotFilledError):
        sensed_table(1, 4, rooted)
    with pytest.raises(NotFilledError):
        sensed_table(0, 5, rooted)


@pytest.mark.parametrize("G,max_darts", [(-1, 5), (2, 0), (0, -3)])
def test_sensed_rejects_bad_bounds(G, max_darts):
    rooted = RootedCensus(2, 5)
    with pytest.raises(ValueError):
        sensed_table(G, max_darts, rooted)


def test_capped_signatures_are_the_admissible_ones_that_fit():
    """sensed_table's enumeration with the branch-point cap applied while the
    multisets grow equals the uncapped list filtered afterwards, in order,
    for every max_darts <= 50 (through its quotient dart cap max_darts // L)."""
    for G in range(15):
        for L in range(1, 51):
            uncapped = admissible_signatures(G, L)
            arith = _arithmetic(L)
            for top in range(50 // L + 1):
                assert [OrbifoldSignature(L, g, lengths(branch))
                        for g, branch in _signatures(G, L, top, arith)] == [
                    sig for sig in uncapped
                    if max(len(sig.orbit_lengths), 3) + 2 * sig.quotient_genus - 2 <= top]


def test_sensed_tables_at_every_dart_bound():
    """A table up to D darts is the 30-dart table's rows with at most D darts,
    for every D: each D caps the quotients at D // L darts differently."""
    census = RootedCensus(10, 30)
    for G in range(11):
        rows = dict(sensed_table(G, 30, census).items())
        for D in range(1, 30):
            table = sensed_table(G, D, census)
            assert dict(table.items()) == {k: c for k, c in rows.items() if k[1] <= D}, (G, D)


class _PaddedCensus(RootedCensus):
    """Serves each cell with a row f = 0 and a slot at b = 0 and at w = 0 in
    every row, all holding a value no arithmetic accepts."""

    def coefficients(self, g, d):
        row, coeffs = super().coefficients(g, d)
        if not coeffs:
            return row, coeffs
        deg = d + 2 - 2 * g
        pad = object()
        padded, starts = [pad] * deg, [0]
        for f in range(1, deg - 1):
            starts.append(len(padded))
            padded += [pad, *(coeffs[row[f] + b] for b in range(1, deg - f)), pad]
        return starts, tuple(padded)


def test_sensed_sum_reads_only_the_support():
    # the cells are flat tuples, so a read off the support would pick up
    # another slot's count instead of a zero
    census, padded = RootedCensus(6, 24), _PaddedCensus(6, 24)
    for G in range(7):
        assert sensed_table(G, 24, padded) == sensed_table(G, 24, census), G


@pytest.mark.parametrize("orbit_lengths", [(), (1,), (1, 1), (1, 1, 1, 1), (1, 2, 2),
                                           (1, 1, 3, 3, 3)])
def test_branch_points_of_one_length_split_once(orbit_lengths):
    """Equal orbit lengths are indistinguishable: the q points of one length
    split among vertices, hyperedges and faces in C(q + 2, 2) ways, each once,
    and the multinomials q! / (w_i! b_i! f_i!) over all splits add up to the
    3**Q ways to place Q distinguishable points: prod(q_i!) * ways / (sw! sb! sf!)
    for a split whose ways is sw! sb! sf! / prod(w_i! b_i! f_i!)."""
    branch = tuple((i, orbit_lengths.count(i)) for i in sorted(set(orbit_lengths)))
    binoms = [[math.comb(n, k) for n in range(8)] for k in range(6)]
    splits = _branch_distributions(branch, binoms)
    qs = [q for _, q in branch]
    assert len(splits) == math.prod((q + 1) * (q + 2) // 2 for q in qs)
    qs_factorial = math.prod(math.factorial(q) for q in qs)
    total = 0
    for (sw, sb, sf), (Wb, Bb, Fb), ways in splits:
        assert sw + sb + sf == len(orbit_lengths) and Wb + Bb + Fb == sum(orbit_lengths)
        multinomials, r = divmod(
            qs_factorial * ways,
            math.factorial(sw) * math.factorial(sb) * math.factorial(sf))
        assert r == 0
        total += multinomials
    assert total == 3 ** len(orbit_lengths)
