"""Factoring integer polynomials over Z by p-adic lifting.

The textbook route (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 14-15): Yun's square-free decomposition, factoring mod a small prime p,
Hensel lifting past a Mignotte bound, then recombination of the lifted
factors tested by exact division over Z.  Rational roots are lifted by
p-adic Newton iteration (R. Loos, Computing rational zeros of integral
polynomials by p-adic expansion, SIAM J. Comput. 12(2), 1983).  There is
no trial division and no degree limit, and every choice is deterministic.

Polynomials here are plain lists of ints, ascending in degree, with no
trailing zeros; the "mod m" helpers keep coefficients in [0, m).
"""

from __future__ import annotations

import itertools
import math
import random


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def primitive(a: list[int]) -> list[int]:
    """Divide out the content and make the leading coefficient positive."""
    content = math.gcd(*a)
    if a and a[-1] < 0:
        content = -content
    return [c // content for c in a]


def _derivative(a: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z when b divides a there, else None."""
    r, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], b[-1])
        if rest:
            return None
        if c:
            q[k] = c
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return None if any(r[:db]) else _trim(q)


def _gcd_z(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z: pseudo-remainders with the content divided out."""
    a, b = primitive(a), primitive(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, k = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for j, y in enumerate(b):
                r[k + j] -= c * y
            _trim(r)
        a, b = b, primitive(r)
    return a


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Square-free decomposition of a primitive f: [(a_i, i)], f = prod a_i^i."""
    df = _derivative(f)
    a0 = _gcd_z(f, df)
    b, c = _exact_quotient(f, a0), _exact_quotient(df, a0)
    out, i = [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd_z(b, d)
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _add(a: list, b: list, m: int, k: int = 1) -> list:
    """a + k*b mod m."""
    out = [x % m for x in a] + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] = (out[j] + k * y) % m
    return _trim(out)


def _mul(a: list, b: list, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Division mod m by b, whose leading coefficient is a unit mod m."""
    r, db = [x % m for x in a], len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % m
        if c:
            q[k] = c
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % m
    return _trim(q), _trim(r[:db])


def _powmod(a: list, e: int, f: list, m: int) -> list:
    """a^e mod (f, m)."""
    out, a = [1], _divmod(a, f, m)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, m), f, m)[1]
        a = _divmod(_mul(a, a, m), f, m)[1]
        e >>= 1
    return out


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _bezout(a: list, b: list, p: int) -> tuple[list, list]:
    """(s, t) with s a + t b = 1 over F_p, deg s < deg b, deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add(s0, _mul(q, s1, p), p, -1)
        t0, t1 = t1, _add(t0, _mul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _good_prime(f: list[int]) -> int:
    """The first odd prime dividing neither lc(f) nor disc(f)."""
    for p in itertools.count(3, 2):
        if all(p % k for k in range(3, math.isqrt(p) + 1, 2)) and f[-1] % p:
            if len(_gcd_mod([c % p for c in f], _add(_derivative(f), [], p), p)) == 1:
                return p


def _factor_mod_p(f: list, p: int) -> list[list]:
    """Monic irreducible factors over F_p of a monic square-free f.

    Distinct-degree splitting by gcd(f, x^(p^d) - x); roots are then found by
    search (p is small: it is bounded in terms of the discriminant), larger
    degrees split by Cantor-Zassenhaus with a generator seeded by p.
    """
    rng = random.Random(p)
    out, x, xq, d = [], [0, 1], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        xq = _powmod(xq, p, f, p)
        same_degree = _gcd_mod(f, _add(xq, x, p, -1), p)
        if len(same_degree) == 1:
            continue
        f = _divmod(f, same_degree, p)[0]
        xq = _divmod(xq, f, p)[1]
        if d == 1:
            out += [[-r % p, 1] for r in range(p) if not _divmod(same_degree, [-r, 1], p)[1]]
            continue
        pending = [same_degree]
        while pending:
            g = pending.pop()
            if len(g) - 1 == d:
                out.append(g)
                continue
            t = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
            w = _gcd_mod(g, _add(_powmod(t, (p**d - 1) // 2, g, p), [1], p, -1), p)
            pending += [w, _divmod(g, w, p)[0]] if 1 < len(w) < len(g) else [g]
    return out + [f] if len(f) > 1 else out


def _hensel_lift(f: list[int], h: list, p: int, m: int) -> list:
    """Lift a monic factor h of f mod p to the factor of f mod m = p^(2^k).

    A linear h = s - r lifts its root by p-adic Newton iteration; otherwise
    quadratic Hensel lifting of f = g h (Modern Computer Algebra, Algorithm
    15.10), g carrying lc(f).
    """
    if len(h) == 2:
        r, q = -h[0] % p, p
        while q < m:
            q *= q
            value = slope = 0
            for c in reversed(f):
                slope, value = (slope * r + value) % q, (value * r + c) % q
            r = (r - value * pow(slope, -1, q)) % q
        return [-r % m, 1]
    g = _divmod(f, h, p)[0]
    s, t = _bezout(g, h, p)
    q = p
    while q < m:
        q *= q
        e = _add(f, _mul(g, h, q), q, -1)
        quot, rem = _divmod(_mul(s, e, q), h, q)
        g = _add(_add(g, _mul(t, e, q), q), _mul(quot, g, q), q)
        h = _add(h, rem, q)
        b = _add(_add(_mul(s, g, q), _mul(t, h, q), q), [1], q, -1)
        c, d = _divmod(_mul(s, b, q), h, q)
        s = _add(s, d, q, -1)
        t = _add(_add(t, _mul(t, b, q), q, -1), _mul(c, g, q), q, -1)
    return h


def _factor_square_free(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive square-free f.

    A quadratic is settled by its discriminant.  Otherwise every factor mod p
    is lifted and the lifted factors are recombined (Zassenhaus): each subset,
    smallest first, times lc(f) in symmetric residues is one candidate,
    accepted on exact division over Z.
    """
    if len(f) == 3:
        disc = f[1] * f[1] - 4 * f[0] * f[2]
        root = math.isqrt(disc) if disc > 0 else -1
        if root * root != disc:
            return [f]
        return [primitive([f[1] - root, 2 * f[2]]), primitive([f[1] + root, 2 * f[2]])]
    if len(f) < 3:
        return [f]
    p = _good_prime(f)
    inv = pow(f[-1], -1, p)
    modular = _factor_mod_p([c * inv % p for c in f], p)
    if len(modular) == 1:
        return [f]
    # every factor u of f has |u|_inf <= 2^deg(f) |f|_2 (Mignotte); a
    # candidate is lc(f) u / lc(u), so m must exceed twice |lc(f)| that bound
    bound, m = 2 * abs(f[-1]) * (math.isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1), p
    while m <= bound:
        m *= m
    lifted = [_hensel_lift(f, u, p, m) for u in modular]
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            candidate = [f[-1]]
            for i in subset:
                candidate = _mul(candidate, lifted[i], m)
            candidate = primitive([c - m if 2 * c > m else c for c in candidate])
            quotient = _exact_quotient(f, candidate)
            if quotient is not None:
                found.append(candidate)
                f = quotient
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def factor_integer(f: list[int]) -> list[tuple[list[int], int]]:
    """Irreducible factors of a primitive integer polynomial, with multiplicities."""
    return [(g, mult) for part, mult in _yun(f) for g in _factor_square_free(part)]
