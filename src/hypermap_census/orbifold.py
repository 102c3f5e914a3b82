"""Sensed (unrooted) hypermap engine: quotient-orbifold summation.

A sensed hypermap of genus G with E darts is an orbit of rooted ones under
re-rooting, so E times the sensed count equals the number of (hypermap, dart)
pairs, summed per automorphism class.  Every automorphism of an orientable
hypermap is periodic; one of period L > 1 presents the hypermap as L copies
of a quotient hypermap of some genus g, except at branch points, cells whose
orbit under the automorphism is shorter than L.  An automorphism class is
described by an :class:`OrbifoldSignature`: the period L, the quotient genus
g and the multiset of branch-point orbit lengths (each a proper divisor of
L).  The sum holds it as (g, branch): ``branch`` is a tuple of (orbit
length, count) pairs, ascending in length, and only the public
:func:`admissible_signatures` and :func:`epi0` convert to and from
:class:`OrbifoldSignature`.  The Riemann-Hurwitz relation

    2 - 2G = L * (2 - 2g)  -  sum over branch points of (L - orbit_length)

says which signatures can occur for genus G, and the number of period-L
automorphisms per signature is the number of epimorphisms from the orbifold's
fundamental group onto the cyclic group Z_L that map each branch generator to
an element of exact order L/orbit_length (:func:`epi0`).  Moebius inversion
over the subgroups Z_l of Z_L and a character sum over each Z_l give it as

    epi0 = sum over l | L of mu(L/l) * l**(2g) * C_l,
    C_l  = (1/l) * sum over d | l of phi(l/d) * prod over m of c_m(d)**k_m,

for k_m branch points of order m (C_l = 0 unless every m divides l), where
the Ramanujan sum c_m(d) = mu(m/h) * phi(m) / phi(m/h), h = gcd(m, d), has
von Sterneck's closed form.  The divisors, mu and phi come from one
arithmetic table that :func:`sensed_table` builds per call.

The accumulation then runs over quotient data.  A quotient with w vertices,
b hyperedges, f faces and d darts lifts to E = L*d darts.  A split puts w_i
of the branch points of orbit length i on vertices, sw = sum(w_i) in all,
and likewise b_i and f_i.  Choosing the sw vertices that carry branch points
gives a binomial C(w, sw), and handing them their orbit lengths gives
sw! / prod(w_i!), the product of C(w_1 + ... + w_i, w_i) over the lengths i
in ascending order.  So the weight of the split is

    C(w, sw) * C(b, sb) * C(f, sf) * ways,
    ways = sw! sb! sf! / prod(w_i! b_i! f_i!), a product of binomials,

and its lifted cell counts are W = sum(i * w_i) over orbit lengths i (with
unbranched cells counting at length L), likewise B and F.  Summing

    epi0(signature) * weight * rooted_count(g, d, w, b, f)

over everything and dividing by E - exactly, and by E rather than 2E because
a hypermap root is a dart, not a dart-or-reversal - gives the sensed census.
The period-1 signature contributes exactly the rooted count, so the sensed
count always lies between rooted/E and rooted.

The sensed census is symmetric under permuting (W, B, F): the three
permutations of a hypermap's dart set that define its vertices, hyperedges
and faces play interchangeable roles, and relabelling them maps sensed
hypermaps to sensed hypermaps of the same genus and dart count.  So
:func:`sensed_table` accumulates only the contributions that land on
canonical keys W >= B >= F.  It does not filter them: for each F it loops
over exactly the B (and so W) that keep the key canonical, and a bound on B
never lets W drop below zero.  Each canonical total is checked for exact
division by E before its quotient is copied to the other permutations of
(W, B, F); a copy has the same value, so it passes the same check.

A census up to E darts only reaches quotients of at most E // L darts, and a
quotient of genus g with d darts has d + 2 - 2g cells, each carrying at most
one branch point.  So :func:`sensed_table` enumerates the signatures of
period L with that cap applied during the enumeration: a multiset of orbit
lengths stops growing once it holds E // L + 2 - 2g entries.
:func:`admissible_signatures` is the same enumeration at a cap that never binds.

Quotients of hypermaps never contain half-darts (in bipartite-map language a
dangling semi-edge would join two like-coloured vertices), so unlike the
ordinary-map analogue there is no semi-edge correction term anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from math import comb, gcd

from .core import CountTable, InexactDivisionError, NotFilledError
from .rooted import RootedCensus


_Arithmetic = namedtuple("_Arithmetic", "divisors mobius totient")


def _arithmetic(n: int) -> _Arithmetic:
    """Divisors (ascending), Moebius mu and Euler phi of 0..n, indexed by the
    number.  mu and phi come from the divisor sums sum(mu(d)) = [m == 1] and
    sum(phi(d)) = m over d | m."""
    divisors = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            divisors[m].append(d)
    mobius, totient = [0] * (n + 1), [0] * (n + 1)
    for m in range(1, n + 1):
        proper = divisors[m][:-1]
        mobius[m] = (m == 1) - sum(mobius[d] for d in proper)
        totient[m] = m - sum(totient[d] for d in proper)
    return _Arithmetic(divisors, mobius, totient)


class OrbifoldSignature(namedtuple("OrbifoldSignature",
                                   "period quotient_genus orbit_lengths")):
    """One automorphism class: period, quotient genus, branch orbit lengths.

    Every field is an ``int`` (not a ``bool``), and every orbit length l is a
    proper divisor of the period, 0 < l < period; the branch index of a
    branch point is period // orbit_length (always >= 2).  The orbit lengths
    are stored as a sorted tuple, so two signatures with the same multiset
    of lengths are equal, and every signature is hashable.
    """

    __slots__ = ()

    def __new__(cls, period: int, quotient_genus: int, orbit_lengths: tuple[int, ...]):
        if type(period) is not int or type(quotient_genus) is not int \
                or period < 1 or quotient_genus < 0:
            raise ValueError("need integers period >= 1 and quotient genus >= 0")
        lengths = tuple(orbit_lengths)
        if any(type(l) is not int or not 0 < l < period or period % l for l in lengths):
            raise ValueError(f"orbit lengths must be proper divisors of {period}")
        return super().__new__(cls, period, quotient_genus, tuple(sorted(lengths)))

    @property
    def branch_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.period // l for l in self.orbit_lengths))

    def covered_genus(self) -> int:
        """The genus G this signature serves, from Riemann-Hurwitz."""
        deficiency = sum(self.period - l for l in self.orbit_lengths)
        val = self.period * (2 - 2 * self.quotient_genus) - deficiency
        if val % 2:
            raise ValueError(f"signature {self} has odd Euler value")
        return (2 - val) // 2


def admissible_signatures(G: int, L: int) -> list[OrbifoldSignature]:
    """All signatures of period L that an automorphism on genus G can have.

    :func:`sensed_table`'s enumeration at the quotient cap top = 2(G + L),
    which never binds: the genus loop stops at min(G, (top - 1) // 2) = G,
    and the entry cap top + 2 - 2g exceeds by 4 + 2g(L - 1) the deficiency
    L(2 - 2g) - 2 + 2G, which bounds the branch points (each deficiency is
    at least 1).  L = 1 admits exactly the trivial signature (g = G, no
    branch points).  A genus or period that is not an ``int`` (or is a
    ``bool``), a negative genus or a period below 1 is a ValueError.
    """
    if type(G) is not int or type(L) is not int or G < 0 or L < 1:
        raise ValueError("need integers genus >= 0 and period >= 1")
    return [OrbifoldSignature(L, g, tuple(l for l, q in branch for _ in range(q)))
            for g, branch in _signatures(G, L, 2 * (G + L), _arithmetic(L))]


def _signatures(G: int, L: int, top: int, arith: _Arithmetic) -> list:
    """The signatures (g, branch) of period L on genus G whose quotient fits
    in ``top`` darts: max(Q, 3) + 2g - 2 <= top for Q branch points.
    ``branch`` holds the nonzero counts as (orbit length, count) pairs,
    ascending in length.  Riemann-Hurwitz prescribes each g's total deficiency sum(L - l).  The
    count of each orbit length is chosen in turn, smallest length first,
    and a branch stops once the largest deficiency left cannot make up the
    remainder in the entries still allowed.  The divisors of L come from
    ``arith``, a table reaching at least L."""
    sigs = []
    parts = [L - l for l in arith.divisors[L][:-1]]    # descending

    def rec(g, rem, idx, room, branch):
        if rem == 0:
            sigs.append((g, branch))
        elif idx < len(parts):
            p = parts[idx]
            if rem > p * room:
                return
            for k in range(rem // p + 1):     # rem // p <= room, by the test above
                rec(g, rem - k * p, idx + 1, room - k,
                    branch + ((L - p, k),) if k else branch)

    # max(Q, 3) <= top + 2 - 2g needs 2g + 1 <= top
    for g in range(min(G, (top - 1) // 2) + 1):
        need = L * (2 - 2 * g) - (2 - 2 * G)
        if need >= 0:
            rec(g, need, 0, top + 2 - 2 * g, ())
    return sigs


def epi0(sig: OrbifoldSignature) -> int:
    """Epimorphisms from the orbifold fundamental group onto Z_period.

    The group abelianizes to 2g free generators plus one generator per branch
    point, constrained to have exact order equal to its branch index, with
    all branch generators summing to zero.  Counting homomorphisms into each
    subgroup of Z_L (one per divisor) and Moebius-inverting over the divisor
    lattice leaves the surjective ones:

        epi0 = sum over l | L of  mu(L/l) * l**(2g) * C_l

    where C_l counts tuples in Z_l with the exact prescribed orders and zero
    sum (zero unless every order m divides l).  By character orthogonality C_l
    is (1/l) times the sum over the characters j of Z_l of the product, over
    the branch points, of the sum of e(j x / l) over the x of order m, which
    is the Ramanujan sum c_m(j).  It depends on j only through
    d = gcd(j, l), shared by phi(l/d) characters, so

        C_l = (1/l) * sum over d | l of  phi(l/d) * prod over m of c_m(d)**k_m

    for k_m branch points of order m, with von Sterneck's closed form
    c_m(d) = mu(m/h) * phi(m) / phi(m/h), h = gcd(m, d).  The division by l
    is checked to be exact.  The divisors, mu and phi come from one table
    built for L (:func:`sensed_table` builds one per call and shares it).
    """
    lengths = sig.orbit_lengths
    branch = tuple((l, lengths.count(l)) for l in sorted(set(lengths)))
    return _epi0(sig.period, sig.quotient_genus, branch, _arithmetic(sig.period))


def _epi0(L: int, g: int, branch: tuple, arith: _Arithmetic) -> int:
    divisors, mobius, totient = arith.divisors, arith.mobius, arith.totient
    orders = [(L // length, k) for length, k in branch]    # (m, k_m)
    total = 0
    for l in divisors[L]:
        mu = mobius[L // l]
        if mu == 0 or any(l % m for m, _ in orders):
            continue
        chars = 0
        for d in divisors[l]:
            term = totient[l // d]
            for m, k in orders:
                mh = m // gcd(m, d)    # m / h
                c = mobius[mh]
                if c == 0:
                    break
                term *= (c * totient[m] // totient[mh]) ** k
            else:
                chars += term
        C, r = divmod(chars, l)
        if r:
            raise InexactDivisionError(
                f"character sum {chars} for period {L}, quotient genus {g}, "
                f"branch points {branch} not divisible by {l}")
        total += mu * l ** (2 * g) * C
    return total


def _branch_distributions(branch: tuple, binoms: list) -> list:
    """Split the branch points among vertex, hyperedge and face cells.  Branch
    points of one orbit length are indistinguishable, so the q branch points
    of each pair (i, q) in ``branch`` split once as q = w_i + b_i + f_i.  One
    entry per split: the branch points per cell kind, (sw, sb, sf) =
    (sum(w_i), sum(b_i), sum(f_i)); the lifted cells they make, (Wb, Bb, Fb)
    = (sum(i * w_i), sum(i * b_i), sum(i * f_i)); and ``ways`` =
    sw! sb! sf! / prod(w_i! b_i! f_i!), a running product of C(sw + w_i, w_i)
    C(sb + b_i, b_i) C(sf + f_i, f_i) from ``binoms[k][n]`` = C(n, k)."""
    splits = [((0, 0, 0), (0, 0, 0), 1)]
    for i, q in branch:
        splits = [((sw + wi, sb + bi, sf + fi),
                   (Wb + i * wi, Bb + i * bi, Fb + i * fi),
                   ways * binoms[wi][sw + wi] * binoms[bi][sb + bi] * binoms[fi][sf + fi])
                  for (sw, sb, sf), (Wb, Bb, Fb), ways in splits
                  for wi in range(q + 1)
                  for bi in range(q - wi + 1)
                  for fi in (q - wi - bi,)]
    return splits


def sensed_table(G: int, max_darts: int, rooted: RootedCensus) -> CountTable:
    """Sensed hypermap counts of genus G for all dart counts up to max_darts.

    ``rooted`` must cover genus up to G and darts up to max_darts (quotients
    never exceed either bound).  A bound that is not an ``int`` (or is a
    ``bool``), a negative genus or fewer than one dart is a ValueError, as
    for :class:`RootedCensus`.

    Each branch point sits on its own quotient cell, so a distribution that
    puts sw, sb and sf branch points on vertices, hyperedges and faces only
    meets quotient terms of degree at least max(sw,1) + max(sb,1) + max(sf,1),
    that is from d = that sum - 2 + 2g darts on.  A signature with Q branch
    points therefore needs max(Q, 3) + 2g - 2 <= max_darts // L quotient
    darts.  The signatures are enumerated under that cap: no quotient genus
    with 2g + 1 > max_darts // L is tried, and a multiset of orbit lengths
    stops growing at max_darts // L + 2 - 2g entries, so a signature that
    cannot contribute is never built (:func:`admissible_signatures` runs the
    same enumeration at a cap that never binds), each as (g, branch).

    The sum visits only canonical output keys W >= B >= F.  In the shifted
    exponents W' = w - sw, B' = b - sb, F' = f - sf, which add up to
    rest = d + 2 - 2g - sw - sb - sf, the key is W = L*W' + Wb and so on, so
    for each F' it loops over

        F' + ceil((Fb - Bb) / L)  <=  B'  <=  (rest - F' - ceil((Bb - Wb) / L)) // 2

    (B >= F, then W >= B with W' = rest - F' - B'), with B' also at least 0
    and at most rest - F' (so W' >= 0).  Both bounds move towards each other
    as F' grows, so the first empty range ends the F' loop, and the d loop
    starts at the first d whose F' = 0 range is not empty.  Inside the B'
    loop W' and L*W' + Wb step down, and L*B' + Bb up, rather than being
    recomputed.  Each quotient coefficient is read by index from the
    census's tuple for (g, d), fetched once per call through
    :meth:`RootedCensus.coefficients`, and only inside the support
    f >= 1 and 1 <= b < d + 2 - 2g - f.  The loop skips f = 0, and for
    f >= 1 the bounds keep b and w at >= 1: F >= 1, so B >= F and W >= B
    are >= 1, and B = L*B' + Bb is 0 when b = B' + sb is (likewise W).  One
    table of binomials C(n, k), for n <= max_darts + 2 quotient cells and
    k <= max_darts // 2 + 2 branch points (the most a period L >= 2
    admits), is built per call, and beside it one arithmetic table: the
    divisors, Moebius mu and Euler phi of 1..max_darts.  The signatures take
    the divisors of L from it, and epi0 is the character sum of :func:`epi0`
    over it.  A split's constant sw! sb! sf! / prod(w_i! b_i! f_i!) is its
    ``ways``, a product of binomials from the binomial table, and joins epi0
    once per split, the face binomial once per F'.  Each canonical total is
    checked for exact division by E; its quotient is then stored at every
    permutation of (W, B, F), and :class:`CountTable` checks each row.
    """
    if type(G) is not int or type(max_darts) is not int or G < 0 or max_darts < 1:
        raise ValueError("need integers genus >= 0 and max_darts >= 1")
    if G > rooted.max_genus or max_darts > rooted.max_darts:
        raise NotFilledError("rooted census does not cover the requested bounds")
    acc: dict[tuple[int, int, int], int] = {}
    quotients: dict[int, list] = {}
    binoms = [[comb(n, k) for n in range(max_darts + 3)]
              for k in range(max_darts // 2 + 3)]
    arith = _arithmetic(max_darts)
    for L in range(1, max_darts + 1):
        top = max_darts // L
        for g, branch in _signatures(G, L, top, arith):
            weight0 = _epi0(L, g, branch, arith)
            if weight0 == 0:
                continue
            if g not in quotients:    # top only falls as L grows
                quotients[g] = [None] + [rooted.coefficients(g, d)
                                         for d in range(1, top + 1)]
            cells = quotients[g]
            for (sw, sb, sf), (Wb, Bb, Fb), ways in _branch_distributions(branch, binoms):
                c_bf = -((Bb - Fb) // L)    # ceil((Fb - Bb) / L)
                c_wb = -((Wb - Bb) // L)    # ceil((Bb - Wb) / L)
                shift = 2 * g - 2 + sw + sb + sf    # d - rest
                b0 = c_bf if c_bf > 0 else 0
                # the first d with a branch point on a cell of its own, and
                # with B' from b0 to min(rest, (rest - c_wb) // 2) not empty at
                # F' = 0: below it every F' range is empty
                first = max((sw or 1) + (sb or 1) + (sf or 1) - 2 + 2 * g,
                            shift + b0, shift + 2 * b0 + c_wb)
                if first > top:
                    continue
                weight = weight0 * ways
                mw, mb, mf = binoms[sw], binoms[sb], binoms[sf]
                for d in range(first, top + 1):
                    # d >= first >= 2g + 1: RootedCensus._store leaves no such cell empty
                    row, coeff = cells[d]
                    E = L * d
                    R = d - shift                        # rest - F'
                    lo = c_bf                            # F' + c_bf
                    for f in range(sf, sf + R + 1):      # f = F' + sf
                        B1 = lo if lo > 0 else 0
                        hi = (R - c_wb) // 2
                        if hi > R:
                            hi = R
                        if B1 > hi:
                            break
                        # f >= 1 makes F >= 1, and then B >= F and W >= B
                        # give b, w >= 1: every read stays in row f
                        if f:
                            wf = weight * mf[f]
                            at = row[f]
                            w = R - B1 + sw              # W' + sw
                            W = L * (R - B1) + Wb
                            B = L * B1 + Bb
                            for b in range(B1 + sb, hi + sb + 1):
                                n_quot = coeff[at + b]
                                if n_quot:
                                    key = (E, W, B)
                                    acc[key] = acc.get(key, 0) + wf * mw[w] * mb[b] * n_quot
                                w -= 1
                                W -= L
                                B += L
                        R -= 1
                        lo += 1
    counts = {}
    for (E, W, B), val in acc.items():
        q, r = divmod(val, E)
        if r:
            raise InexactDivisionError(
                f"accumulated total {val} at genus {G}, key {(E, W, B)} "
                f"not divisible by {E}")
        for v, e, _ in permutations((W, B, E + 2 - 2 * G - W - B)):
            counts[G, E, v, e] = q
    return CountTable("sensed", G, max_darts, counts)
