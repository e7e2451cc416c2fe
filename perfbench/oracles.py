"""Closed forms and properties that the benchmark checks outputs against.

Everything here is the benchmark's own code: finite-field arithmetic,
determinants and characters are recomputed from the documented
conventions (pinned irreducibles, smallest-code generator), never read
back from hecke_forge.  Each `check_*` function returns None when the
value is right and a short message when it is wrong, so the benchmark's
tests can feed each one a deliberately wrong value.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import prod

# Irrational character values are compared under this absolute tolerance;
# rational ones (chi of order 1 or 2) must match exactly.
TOL = 1e-9

# Residue polynomials for the non-prime fields, constant coefficient
# first; the same pinned choice as the library's documented convention.
_IRREDUCIBLE = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}


class GF:
    """F_q with elements coded as base-p digit strings (constant digit
    first), as the library documents them."""

    def __init__(self, q: int):
        p = next((p for p in (2, 3, 5, 7) if q % p == 0), q)
        d = 1
        while p ** d < q:
            d += 1
        if p ** d != q or q > 9:
            raise ValueError(f"q={q} is not a prime power <= 9")
        self.q, self.p, self.d = q, p, d
        self.mul_table = [[self._mul(a, b) for b in range(q)]
                          for a in range(q)]
        self.generator = next(g for g in range(1, q)
                              if self._order(g) == q - 1)
        self.log = {}
        acc = 1
        for k in range(q - 1):
            self.log[acc] = k
            acc = self.mul_table[acc][self.generator]

    def _digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.d)]

    def _code(self, digits):
        return sum((c % self.p) * self.p ** i for i, c in enumerate(digits))

    def add(self, a, b):
        return self._code(x + y for x, y in
                          zip(self._digits(a), self._digits(b)))

    def neg(self, a):
        return self._code(-x for x in self._digits(a))

    def _mul(self, a, b):
        if self.d == 1:
            return a * b % self.p
        prod_ = [0] * (2 * self.d - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod_[i + j] += x * y
        irr = _IRREDUCIBLE[self.q]
        for k in range(len(prod_) - 1, self.d - 1, -1):
            c = prod_[k] % self.p
            for j in range(self.d + 1):
                prod_[k - self.d + j] -= c * irr[j]
        return self._code(prod_[:self.d])

    def mul(self, a, b):
        return self.mul_table[a][b]

    def _order(self, g):
        acc, k = g, 1
        while acc != 1:
            acc, k = self._mul(acc, g), k + 1
        return k


def det(F: GF, m) -> int:
    """Leibniz expansion; independent of the library's elimination."""
    n = len(m)
    acc = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term = F.mul(term, m[i][perm[i]])
        if inversions(perm) % 2:
            term = F.neg(term)
        acc = F.add(acc, term)
    return acc


def inversions(perm) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
               if perm[i] > perm[j])


def char_value(F: GF, k: int, unit: int):
    """chi_k(unit): the generator goes to exp(2 pi i k / (q-1)).  Exact
    (+-1 as a Fraction) when chi_k has order 1 or 2."""
    n = F.q - 1
    m = F.log[unit]
    if k % n == 0:
        return Fraction(1)
    if 2 * k == n:
        return Fraction(-1) ** m
    return cmath.exp(2j * cmath.pi * k * m / n)


def is_rational(q: int, k: int) -> bool:
    return k % (q - 1) == 0 or 2 * k == q - 1


def has_no_eigenvalue(F: GF, g) -> bool:
    """det(x - g) != 0 for every x in F_q.  For n <= 3 this is exactly
    irreducibility of the characteristic polynomial (elliptic regular)."""
    n = len(g)
    for x in range(F.q):
        shifted = [[F.add(x if i == j else 0, F.neg(g[i][j]))
                    for j in range(n)] for i in range(n)]
        if det(F, shifted) == 0:
            return False
    return True


# --- closed forms ---------------------------------------------------------

def gl_order(n: int, q: int) -> int:
    return prod(q ** n - q ** i for i in range(n))


def borel_order(n: int, q: int) -> int:
    return (q - 1) ** n * q ** (n * (n - 1) // 2)


def gl_class_number(n: int, q: int) -> int:
    """Number of conjugacy classes of GL(n, q) for n = 2, 3 (Green 1955)."""
    return {1: q - 1, 2: q * q - 1, 3: q ** 3 - q}[n]


def elliptic_class_number(n: int, q: int) -> int:
    """Monic irreducibles of degree n >= 2 over F_q (all have nonzero
    constant term): (1/n) sum_{d | n} mu(d) q^(n/d)."""
    total = sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1)
                if n % d == 0)
    return total // n


def _mobius(d: int) -> int:
    out, m, p = 1, d, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def poincare_value(e: int, q) -> Fraction:
    """prod_{i=1..e} (q^i - 1)/(q - 1) = number of Borel cosets of GL(e,q)."""
    q = Fraction(q)
    return prod((Fraction(q ** i - 1) / (q - 1) for i in range(1, e + 1)),
                start=Fraction(1))


# --- comparisons ------------------------------------------------------------

def same(got, expected, exact: bool) -> bool:
    if exact:
        return got == expected
    try:
        return abs(complex(got) - complex(expected)) <= TOL
    except (TypeError, ValueError):
        return False


def check_equal(label, got, expected, exact=True):
    if same(got, expected, exact):
        return None
    return f"{label}: got {got!r}, expected {expected!r}"


def check_true(label, value):
    return None if value is True else f"{label}: returned {value!r}"


def check_group_order(n, q, elements, dets):
    """`dets` maps each element to its determinant (from `det`)."""
    want = gl_order(n, q)
    if len(elements) != want:
        return f"|GL({n},{q})| = {len(elements)}, closed form {want}"
    if len(set(elements)) != want:
        return f"GL({n},{q}) enumeration has repeated elements"
    if any(dets[g] == 0 for g in elements):
        return f"GL({n},{q}) enumeration contains a singular matrix"
    return None


def check_classes(n, q, classes, elements):
    want = gl_class_number(n, q)
    if len(classes) != want:
        return f"GL({n},{q}) has {len(classes)} classes, closed form {want}"
    sizes = sum(len(c) for c in classes)
    if sizes != len(elements) or set().union(*map(set, classes)) \
            != set(elements):
        return f"GL({n},{q}) classes do not partition the group"
    return None


def check_bruhat_cells(n, q, decomposition):
    counts: dict = {}
    for w, _v in decomposition.values():
        counts[w] = counts.get(w, 0) + 1
    for w in itertools.permutations(range(n)):
        want = borel_order(n, q) * q ** inversions(w)
        if counts.get(w, 0) != want:
            return (f"GL({n},{q}) Bruhat cell {w} has {counts.get(w, 0)} "
                    f"elements, |B| q^l(w) = {want}")
    return None


def check_e_tau(n, q, k, values_at, elements, dets, F: GF):
    """e_tau(g) = chi(det g) / |G| at every g."""
    order = len(elements)
    exact = is_rational(q, k)
    for g in elements:
        want = char_value(F, k, dets[g]) / order
        if not same(values_at(g), want, exact):
            return (f"e_tau(GL({n},{q}), chi={k}) at {g}: "
                    f"{values_at(g)!r} != chi(det g)/|G| = {want!r}")
    return None


def check_steinberg(n, q, k, values, classes, identity_class):
    """St(1) = q^(n(n-1)/2) and <St, St> = 1."""
    exact = is_rational(q, k)
    degree = q ** (n * (n - 1) // 2)
    if not same(values[identity_class], degree, exact):
        return f"St_chi{k}(1) on GL({n},{q}) = {values[identity_class]!r}, " \
               f"expected {degree}"
    order = sum(len(c) for c in classes)
    if exact:
        norm = sum(len(c) * v * v for c, v in zip(classes, values)) / order
    else:
        norm = sum(len(c) * abs(complex(v)) ** 2
                   for c, v in zip(classes, values)) / order
    if not same(norm, 1, exact):
        return f"<St_chi{k}, St_chi{k}> on GL({n},{q}) = {norm!r}, expected 1"
    return None


def check_elliptic_reps(n, q, reps, F: GF):
    want = elliptic_class_number(n, q)
    if len(reps) != want:
        return f"GL({n},{q}) has {len(reps)} elliptic classes, " \
               f"closed form {want}"
    for g in reps:
        if not has_no_eigenvalue(F, g):
            return f"GL({n},{q}) class rep {g} has an eigenvalue in F_q"
    return None


def check_support_triple(N, e_prime, nu, triples):
    """The only surviving triple is (empty type, nu, 0)."""
    if len(triples) == 1:
        T, l, k = triples[0]
        if not T.nodes and T.e == N // e_prime and l == nu and k == 0:
            return None
    return f"support_filter({N}, {e_prime}, {nu}) = {triples!r}"


def check_coefficients(label, got, want):
    """T-basis coefficients, each a tuple of polynomial coefficients."""
    want = {x: tuple(Fraction(c) for c in cs) for x, cs in want.items()}
    return None if got == want else f"{label}: {got!r} != {want!r}"


def check_group_algebra(e, consts):
    """At q = 1 the Hecke algebra is the group algebra of S_e:
    c^{w3}_{w1,w2}(1) = [w3 = w1 w2]."""
    perms = list(itertools.permutations(range(e)))
    for w1, w2, w3 in itertools.product(perms, repeat=3):
        c = consts.get((w1, w2, w3))
        got = c(1) if c is not None else 0
        want = 1 if w3 == tuple(w1[w2[i]] for i in range(e)) else 0
        if got != want:
            return (f"structure_constants({e}) at q=1: "
                    f"c^{w3}_{w1},{w2} = {got}, expected {want}")
    return None


def check_oracle(e, q, consts, oracle):
    """The symbolic structure constants at q equal the convolution oracle."""
    perms = list(itertools.permutations(range(e)))
    for key in itertools.product(perms, repeat=3):
        c = consts.get(key)
        symbolic = c(q) if c is not None else 0
        if oracle.get(key, 0) != symbolic:
            return (f"structure constant {key} at q={q}: t_mul gives "
                    f"{symbolic}, convolution oracle {oracle.get(key)}")
    return None
