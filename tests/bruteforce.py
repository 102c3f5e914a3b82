"""Independent brute-force oracles used only by the test suite.

These enumerate structures at the definition level (permutation pairs on a
labelled dart set, tuples in cyclic groups, powers of a parameter series) so
they share no code path with the engines they check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, gcd


def _cycles(p):
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        c = 0
        j = i
        while not seen[j]:
            seen[j] = True
            c += 1
            j = p[j]
        out.append((i, c))
    return out


def _transitive(gens, n):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def hypermap_census_by_pairs(t: int) -> Counter:
    """Counter (g, v, e, f, n, other_vertex_degrees) -> rooted hypermap count.

    Enumerates all permutation pairs (R, L) on t labelled darts with
    transitive <R, L>; relabellings fixing the root dart act freely, so each
    rooted hypermap is hit exactly (t-1)! times.  n is the root-vertex degree
    and other_vertex_degrees the sorted degrees of the remaining vertices.
    """
    raw = Counter()
    darts = list(range(t))
    for R in itertools.permutations(darts):
        for L in itertools.permutations(darts):
            if not _transitive((R, L), t):
                continue
            RL = tuple(R[L[i]] for i in range(t))
            vcyc = _cycles(R)
            v, e, f = len(vcyc), len(_cycles(L)), len(_cycles(RL))
            g2 = t + 2 - v - e - f
            assert g2 % 2 == 0 and g2 >= 0
            n = next(c for i, c in vcyc if i == 0)
            others = tuple(sorted(c for i, c in vcyc if i != 0))
            raw[(g2 // 2, v, e, f, n, others)] += 1
    out = Counter()
    denom = factorial(t - 1)
    for key, cnt in raw.items():
        q, r = divmod(cnt, denom)
        assert r == 0, (key, cnt)
        out[key] = q
    return out


def map_census_by_pairs(edges: int) -> Counter:
    """Counter (g, v, f, n, other_vertex_degrees) -> rooted map count.

    The edge involution is fixed as (0 1)(2 3)...; R runs over all
    permutations of the 2*edges darts with transitive <R, L>.  Relabellings
    fixing dart 0 and commuting with L act freely with orbit size
    2**(edges-1) * (edges-1)!.
    """
    nd = 2 * edges
    L = list(range(nd))
    for i in range(0, nd, 2):
        L[i], L[i + 1] = i + 1, i
    raw = Counter()
    for R in itertools.permutations(range(nd)):
        if not _transitive((R, L), nd):
            continue
        RL = tuple(R[L[i]] for i in range(nd))
        vcyc = _cycles(R)
        v, f = len(vcyc), len(_cycles(RL))
        g2 = 2 - v + edges - f
        assert g2 % 2 == 0 and g2 >= 0
        n = next(c for i, c in vcyc if i == 0)
        others = tuple(sorted(c for i, c in vcyc if i != 0))
        raw[(g2 // 2, v, f, n, others)] += 1
    out = Counter()
    denom = 2 ** (edges - 1) * factorial(edges - 1)
    for key, cnt in raw.items():
        q, r = divmod(cnt, denom)
        assert r == 0, (key, cnt)
        out[key] = q
    return out


def ordered_selections(available, degrees) -> int:
    """Ordered picks of distinct vertices realizing the degree list."""
    have = Counter(available)
    result = 1
    for d, m in Counter(degrees).items():
        c = have.get(d, 0)
        for i in range(m):
            result *= c - i
    return result


def epi_count_by_tuples(period: int, quotient_genus: int, orbit_lengths) -> int:
    """Surjection count onto Z_period by direct tuple enumeration.

    Each of the 2g handle generators maps anywhere; each branch generator
    maps to an element of exact order period/orbit_length; branch images sum
    to zero and the joint image must generate the whole group.
    """
    L = period
    orders = [L // l for l in orbit_lengths]
    choices = [[x for x in range(L) if L // gcd(x, L) == m] for m in orders]
    total = 0
    for branch in itertools.product(*choices):
        if sum(branch) % L:
            continue
        for handles in itertools.product(range(L), repeat=2 * quotient_genus):
            if gcd(L, *branch, *handles) == 1:
                total += 1
    return total


def epi_count_by_convolution(period: int, quotient_genus: int, orbit_lengths) -> int:
    """Surjection count onto Z_period by Moebius inversion over the divisor
    lattice, each subgroup's zero-sum tuples counted by convolution.

    For each l | period whose subgroup Z_l holds every prescribed order, the
    indicator vector of the elements of each branch order is convolved into
    the running distribution of sums over Z_l, and its value at 0 counts the
    zero-sum tuples; the 2g handle generators map anywhere in Z_l.
    """
    L = period
    orders = [L // l for l in orbit_lengths]
    total = 0
    for l in range(1, L + 1):
        mu = _mobius(L // l) if L % l == 0 else 0
        if mu == 0 or any(l % m for m in orders):
            continue
        vec = [1] + [0] * (l - 1)
        for m in orders:
            step = l // m
            nxt = [0] * l
            for k in range(1, m + 1):
                if gcd(k, m) == 1:
                    x = step * k % l
                    for i in range(l):
                        if vec[i]:
                            nxt[(i + x) % l] += vec[i]
            vec = nxt
        total += mu * l ** (2 * quotient_genus) * vec[0]
    return total


def _mobius(n: int) -> int:
    m, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            m = -m
        p += 1
    return -m if n > 1 else m


def signatures_by_search(G: int, L: int) -> set:
    """Admissible (quotient_genus, orbit_lengths) pairs by unstructured search."""
    proper = [d for d in range(1, L) if L % d == 0]
    found = set()
    min_cost = L - max(proper) if proper else 1
    for g in range(0, G + 1):
        for r in range(0, (2 * L + 2 * G) // min_cost + 2):
            for lens in itertools.combinations_with_replacement(proper, r):
                if 2 - 2 * G == L * (2 - 2 * g) - sum(L - l for l in lens):
                    found.add((g, tuple(sorted(lens))))
    return found


def rational_at_by_powers(param: list, num: list, den: list, shift: int) -> list:
    """Coefficients 0..N of z**shift * num(param) / den(param), for the
    coefficients 0..N of a parameter series with no constant term and integer
    polynomials ``num`` and ``den`` (ascending coefficients, den[0] = +-1).

    param**k has valuation k, so only the powers k <= n = max(N - shift, 0)
    reach the result.  A walk forms each power from the last and adds it into
    num(param) and den(param), both to order n; their quotient is solved one
    degree at a time and shifted up by z**shift."""
    order = len(param) - 1
    n = max(order - shift, 0)
    assert den[0] in (1, -1), den[0]
    a, b, power = [0] * (n + 1), [0] * (n + 1), [1] + [0] * n
    for k in range(min(max(len(num), len(den)) - 1, n) + 1):
        if k:
            power = [sum(power[i] * param[j - i] for i in range(j)) for j in range(n + 1)]
        for acc, poly in ((a, num), (b, den)):
            if k < len(poly):
                for j in range(n + 1):
                    acc[j] += poly[k] * power[j]
    quotient = []
    for j in range(n + 1):
        rest = a[j] - sum(b[i] * quotient[j - i] for i in range(1, j + 1))
        quotient.append(den[0] * rest)
    return ([0] * shift + quotient + [0] * (order + 1))[:order + 1]
