"""Finite fields F_q (q <= 9) and the matrix groups GL(n, F_q) at desk scale.

Field elements are encoded as integers 0..q-1: the base-p digits of the
code are the coefficients of the residue polynomial, so for prime q the
code is just the residue.  The irreducible polynomials are pinned for
reproducibility:

    q = 4:  x^2 + x + 1        q = 8:  x^3 + x + 1        q = 9:  x^2 + 1

Matrices are tuples of row tuples of element codes.  GL(n, q) is built
row by row, each row outside the span of the rows above it, in the
row-major lexicographic order of the product of all matrices; no
determinant is computed.  Enumeration is capped at MAX_GROUP_ORDER
(25000) elements and every enumerated order is checked against the
closed-form count.

Every table derived from a group is a cached property of its
`MatrixGroup`, built and checked on first read: the element index, the
code array, the classes with each element's class, the elliptic classes,
the Bruhat label index `bruhat_index` and each class's label positions
`class_labels`.  Only `_cosets` and `_inverses` grow by entries.

Whole-group scans run on one code array per group
(`MatrixGroup.codes`): the |G| x n x n uint8 field codes of `elements`,
in their order, with int64 row-major keys sorted once (`sorted_keys`),
so any batch of matrices is located in G by one searchsorted and an
equality test.  Products s g or g s by one matrix s are formed for every
g at once (`_mul_codes`), and the products a b of the pairs of two
arrays (`_mul_pairs`), with the field tables as uint8 arrays.  `elements` stays
the one representation: classes, Bruhat labels and coset transversals
hold its objects.

Conjugacy classes and the right cosets of `repth._coset_data` are the
`_orbits` of G under conjugation and left multiplication by one
generating set per group (`generators()`, three for GL(n, q)), and the
parabolic-avoidance oracle reads the class of g instead of conjugating
g by every x in G.  The Bruhat decomposition reduces every
element to a monomial matrix by one vectorised elimination instead of
forming all |B|^2 * n! products b1 w b2, and checks its labels against
the generators of B on both sides with one row and one column operation
per generator over the whole array: every g, every generator, both sides,
so the check is as strong as a loop over the elements.

The Borel-side computations need no enumeration of GL(n, q): the
p_n(q) = |G/B| normal forms w u of B\\G (`borel_flags`) are built as
row permutations of unitriangular matrices, with their inverses, and
the labels of any array of matrices are read by the same elimination
(`label_positions`), which checks B-bi-equivariance at every matrix it
reads.  The oracle's structure constants and e_tau's idempotency are
sums over the normal forms.  Labels, read either way, are positions in
one list of every label in code order (`bruhat_labels`).
"""

from __future__ import annotations

import cmath
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod

import numpy as np

MAX_GROUP_ORDER = 25000

# fixed irreducibles, little-endian coefficient tuples (constant first)
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}

_PRIMES = (2, 3, 5, 7)


class GroupSizeError(ValueError):
    """Requested enumeration exceeds MAX_GROUP_ORDER elements."""


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in _PRIMES:
        if q % p == 0:
            d = 0
            m = q
            while m % p == 0:
                m //= p
                d += 1
            if m != 1:
                break
            return p, d
    raise ValueError(f"q={q} is not a supported prime power (q <= 9)")


class Fq:
    """Arithmetic tables for F_q, q <= 9."""

    def __init__(self, q: int):
        if q < 2 or q > 9:
            raise ValueError("supported field sizes are prime powers <= 9")
        p, d = _factor_prime_power(q)
        self.q, self.p, self.deg = q, p, d
        self._mul = [[0] * q for _ in range(q)]
        self._add = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                self._add[a][b] = self._add_codes(a, b)
                self._mul[a][b] = self._mul_codes(a, b)
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break
        self._neg = [0] * q
        for a in range(q):
            for b in range(q):
                if self._add[a][b] == 0:
                    self._neg[a] = b
                    break
        self.generator = self._find_generator()
        self._log = {1: 0}
        g, acc = self.generator, 1
        for k in range(1, q - 1):
            acc = self._mul[acc][g]
            self._log[acc] = k
        # the same tables as code arrays, for the whole-group kernels
        self.add_arr, self.mul_arr, self.neg_arr, self.inv_arr = (
            np.array(t, dtype=np.uint8)
            for t in (self._add, self._mul, self._neg, self._inv))

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.deg):
            out.append(a % self.p)
            a //= self.p
        return out

    def _code(self, digits) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.p + (c % self.p)
        return out

    def _add_codes(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._code((x + y) % self.p for x, y in zip(da, db))

    def _mul_codes(self, a: int, b: int) -> int:
        if self.deg == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod_coeffs = [0] * (2 * self.deg - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod_coeffs[i + j] = (prod_coeffs[i + j] + x * y) % self.p
        irr = _IRREDUCIBLE[self.q]
        for k in range(len(prod_coeffs) - 1, self.deg - 1, -1):
            c = prod_coeffs[k]
            if c:
                for j in range(self.deg + 1):
                    prod_coeffs[k - self.deg + j] = (
                        prod_coeffs[k - self.deg + j] - c * irr[j]) % self.p
        return self._code(prod_coeffs[: self.deg])

    def _find_generator(self) -> int:
        # smallest code of multiplicative order q-1; deterministic
        n = self.q - 1
        for g in range(1, self.q):
            acc, order = g, 1
            while acc != 1:
                acc = self._mul[acc][g]
                order += 1
            if order == n:
                return g
        raise AssertionError("cyclic group must have a generator")

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return self._inv[a]

    def log(self, a) -> int:
        """Discrete log base the fixed generator."""
        if a == 0:
            raise ZeroDivisionError("log of 0")
        return self._log[a]

    def __repr__(self):
        return f"Fq({self.q})"


@lru_cache(maxsize=None)
def get_field(q: int) -> Fq:
    return Fq(q)


def check_field_axioms(q: int) -> bool:
    """Exhaustive associativity / distributivity / inverse check."""
    F = get_field(q)
    els = range(q)
    for a in els:
        for b in els:
            if F.add(a, b) != F.add(b, a) or F.mul(a, b) != F.mul(b, a):
                return False
            for c in els:
                if F.mul(F.mul(a, b), c) != F.mul(a, F.mul(b, c)):
                    return False
                if F.add(F.add(a, b), c) != F.add(a, F.add(b, c)):
                    return False
                if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
                    return False
    for a in range(1, q):
        if F.mul(a, F.inv(a)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# characters of F_q^x

class MultChar:
    """Character chi_k of F_q^x: the generator g maps to exp(2*pi*i*k/(q-1)).

    Values are exact Fractions (+-1) when k is 0 or (q-1)/2, complex
    otherwise.  The q-1 values are computed once, at construction, and a
    call reads one: `_values[c]` is the value at the unit with code c.
    """

    def __init__(self, q: int, k: int):
        self.field = get_field(q)
        self.q = q
        self.k = k % (q - 1) if q > 2 else 0
        self._values = {c: self._formula(self.field.log(c))
                        for c in range(1, q)}

    @property
    def is_rational(self) -> bool:
        n = self.q - 1
        return self.k == 0 or 2 * self.k == n

    def __call__(self, unit_code: int):
        if unit_code == 0:
            raise ZeroDivisionError("log of 0")
        return self._values[unit_code]

    def _formula(self, m: int):
        """chi at the m-th power of the field's generator."""
        n = self.q - 1
        if self.k == 0:
            return Fraction(1)
        if 2 * self.k == n:
            return Fraction(-1) if (m % 2) else Fraction(1)
        return cmath.exp(2j * cmath.pi * self.k * m / n)

    def __eq__(self, other):
        return (isinstance(other, MultChar)
                and (self.q, self.k) == (other.q, other.k))

    def __hash__(self):
        return hash(("MultChar", self.q, self.k))

    def __repr__(self):
        return f"MultChar(q={self.q}, k={self.k})"


def all_characters(q: int) -> list[MultChar]:
    return [MultChar(q, k) for k in range(max(q - 1, 1))]


# ---------------------------------------------------------------------------
# matrices

Mat = tuple  # tuple of row tuples of element codes


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def elementary_mat(n: int, r: int, c: int, x: int) -> Mat:
    """The identity matrix with entry (r, c) replaced by x."""
    return tuple(tuple(x if (i, j) == (r, c) else int(i == j)
                       for j in range(n)) for i in range(n))


def mat_mul(F: Fq, a: Mat, b: Mat) -> Mat:
    n = len(a)
    mul_, add = F._mul, F._add
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul_[ai[k]][b[k][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mul_codes(F: Fq, s: Mat, codes, left: bool):
    """s g (left) or g s (right) for every g of a code array (|G| x n x n
    field codes).  Row i of s g is the sum over j of s[i][j] times row j
    of g, and column j of g s the sum over i of s[i][j] times column i of
    g.  A zero coefficient is skipped and a lone 1 is a copy, so an
    elementary matrix costs one row (column) operation and a permutation
    matrix a reordering."""
    out = np.empty_like(codes)
    src, dst, coeffs = ((codes, out, s) if left else
                        (codes.transpose(0, 2, 1), out.transpose(0, 2, 1),
                         tuple(zip(*s))))
    add, mul_ = F.add_arr, F.mul_arr
    for i, row in enumerate(coeffs):
        acc = None
        for j, x in enumerate(row):
            if x:
                term = src[:, j] if x == 1 else mul_[x][src[:, j]]
                acc = term if acc is None else add[acc, term]
        dst[:, i] = acc
    return out


def _mul_pairs(F: Fq, a, b):
    """a b for every pair of matrices of two code arrays, their leading
    axes broadcast against each other: entry (i, j) is the sum over l of
    a[..., i, l] times b[..., l, j], each term one table lookup over the
    whole array."""
    add, mul_ = F.add_arr, F.mul_arr
    out = mul_[a[..., :, :1], b[..., :1, :]]
    for k in range(1, a.shape[-1]):
        out = add[out, mul_[a[..., :, k:k + 1], b[..., k:k + 1, :]]]
    return out


def _row_major_keys(codes, q: int):
    """The base-q number whose digits are each matrix's entries in
    row-major order, first entry most significant: sorting the keys sorts
    the matrices as tuples.  int64 while q^(n^2) fits, else Python ints."""
    _, n, m = codes.shape
    flat = codes.reshape(len(codes), n * m)
    if q ** (n * m) < 2 ** 63:
        return flat.astype(np.int64) @ (
            q ** np.arange(n * m - 1, -1, -1, dtype=np.int64))
    keys = np.zeros(len(codes), dtype=object)
    for j in range(n * m):
        keys = keys * q + flat[:, j].astype(object)
    return keys


def mat_det(F: Fq, a: Mat) -> int:
    """det a by elimination, each field operation one lookup in F's
    tables."""
    n = len(a)
    m = [list(row) for row in a]
    add, mul_, neg, inv = F._add, F._mul, F._neg, F._inv
    det = 1
    for col in range(n):
        pivot = col
        while not m[pivot][col]:
            pivot += 1
            if pivot == n:
                return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = neg[det]
        top = m[col]
        det = mul_[det][top[col]]
        inv_p = inv[top[col]]
        for r in range(col + 1, n):
            row = m[r]
            if row[col]:
                scaled = mul_[mul_[row[col]][inv_p]]
                for c in range(col, n):
                    row[c] = add[row[c]][neg[scaled[top[c]]]]
    return det


def mat_inv(F: Fq, a: Mat) -> Mat:
    n = len(a)
    m = [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv_p = F.inv(m[col][col])
        m[col] = [F.mul(inv_p, x) for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [F.sub(x, F.mul(factor, y))
                        for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def char_poly(F: Fq, a: Mat) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - a), little-endian coeffs."""
    n = len(a)
    # polynomial entries of xI - a, as coefficient lists of length <= 2
    entries = [[(F.neg(a[i][j]), 1 if i == j else 0) for j in range(n)]
               for i in range(n)]

    def poly_mul(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
        return out

    acc = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign_neg = _inversions(perm) % 2 == 1
        term = [1]
        for i in range(n):
            term = poly_mul(term, entries[i][perm[i]])
        for k, c in enumerate(term):
            c = F.neg(c) if sign_neg else c
            acc[k] = F.add(acc[k], c)
    return tuple(acc)


def _inversions(perm) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


def poly_is_irreducible(F: Fq, coeffs: tuple[int, ...]) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True

    def poly_mod(num, den):
        num = list(num)
        dd = len(den) - 1
        lead_inv = F.inv(den[-1])
        for k in range(len(num) - 1, dd - 1, -1):
            c = num[k]
            if c:
                factor = F.mul(c, lead_inv)
                for j in range(dd + 1):
                    num[k - dd + j] = F.sub(num[k - dd + j],
                                            F.mul(factor, den[j]))
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        return num

    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(F.q), repeat=d):
            den = tuple(tail) + (1,)
            if poly_mod(coeffs, den) == [0]:
                return False
    return True


def elliptic_regular(q: int, g: Mat) -> bool:
    """True iff the characteristic polynomial is irreducible over F_q."""
    F = get_field(q)
    return poly_is_irreducible(F, char_poly(F, g))


def mat_to_ints(g: Mat) -> list[int]:
    """Row-major serialization."""
    return [x for row in g for x in row]


# ---------------------------------------------------------------------------
# subgroup specifications

@dataclass(frozen=True)
class SubgroupSpec:
    kind: str
    blocks: tuple[int, ...] = ()

    @staticmethod
    def full() -> "SubgroupSpec":
        return SubgroupSpec("full")

    @staticmethod
    def borel() -> "SubgroupSpec":
        return SubgroupSpec("borel")

    @staticmethod
    def standard_parabolic(blocks) -> "SubgroupSpec":
        return SubgroupSpec("standard_parabolic", tuple(blocks))

    @staticmethod
    def unipotent_radical(blocks) -> "SubgroupSpec":
        return SubgroupSpec("unipotent_radical", tuple(blocks))

    @staticmethod
    def levi(blocks) -> "SubgroupSpec":
        return SubgroupSpec("levi", tuple(blocks))

    @staticmethod
    def parahoric_image(nodes, e: int) -> "SubgroupSpec":
        """Reduction of the parahoric of type T ⊆ {1..e-1}: the standard
        parabolic whose blocks are the runs of consecutive nodes in T, the
        Borel itself for T = ∅ and all of GL(e) for T = {1..e-1}, so
        neither is enumerated a second time as a standard parabolic."""
        blocks = blocks_from_type(nodes, e)
        if blocks == (1,) * e:
            return SubgroupSpec.borel()
        if blocks == (e,):
            return SubgroupSpec.full()
        return SubgroupSpec("standard_parabolic", blocks)


def blocks_from_type(nodes, e: int) -> tuple[int, ...]:
    nodes = set(nodes)
    if any(t < 1 or t >= e for t in nodes):
        raise ValueError("type nodes must lie in {1..e-1}")
    blocks, size = [], 1
    for i in range(1, e):
        if i in nodes:
            size += 1
        else:
            blocks.append(size)
            size = 1
    blocks.append(size)
    return tuple(blocks)


def _validate_blocks(n: int, blocks):
    if sum(blocks) != n or any(b < 1 for b in blocks):
        raise ValueError(f"blocks {blocks} do not partition {n}")


def gl_order(n: int, q: int) -> int:
    return prod(q ** n - q ** i for i in range(n))


def group_order(n: int, q: int, spec: SubgroupSpec) -> int:
    if spec.kind == "full":
        return gl_order(n, q)
    if spec.kind == "borel":
        return (q - 1) ** n * q ** (n * (n - 1) // 2)
    _validate_blocks(n, spec.blocks)
    above = _entries_above_blocks(spec.blocks)
    if spec.kind == "standard_parabolic":
        return prod(gl_order(b, q) for b in spec.blocks) * q ** above
    if spec.kind == "unipotent_radical":
        return q ** above
    if spec.kind == "levi":
        return prod(gl_order(b, q) for b in spec.blocks)
    raise ValueError(f"unknown subgroup kind {spec.kind!r}")


def _entries_above_blocks(blocks) -> int:
    n = sum(blocks)
    return (n * n - sum(b * b for b in blocks)) // 2


def _block_starts(blocks) -> list[int]:
    starts, acc = [], 0
    for b in blocks:
        starts.append(acc)
        acc += b
    return starts


def is_block_upper(g: Mat, blocks) -> bool:
    starts = _block_starts(blocks)
    n = len(g)
    block_of = [0] * n
    for bi, s in enumerate(starts):
        for i in range(s, s + blocks[bi]):
            block_of[i] = bi
    for i in range(n):
        for j in range(n):
            if g[i][j] != 0 and block_of[i] > block_of[j]:
                return False
    return True


def enumerate_group(n: int, q: int, spec: SubgroupSpec) -> list[Mat]:
    """Complete duplicate-free element list; order checked against the
    closed-form count, capped at MAX_GROUP_ORDER.  n must be positive.

    Full GL(n, q), and each diagonal block of the other kinds, is built
    row by row (`_invertible_matrices`): row k runs, in `itertools.product`
    order, over the vectors outside the span of rows 0..k-1.  A matrix is
    invertible exactly when no row lies in the span of the rows above it,
    so this only prunes the product of all q^(n^2) matrices at the first
    dependent row: the list keeps that product's row-major lexicographic
    order, and no determinant is computed."""
    order = _capped_order(n, q, spec)
    if spec.kind == "full":
        out = _invertible_matrices(n, q)
    elif spec.kind in ("borel", "standard_parabolic", "unipotent_radical",
                       "levi"):
        blocks = (1,) * n if spec.kind == "borel" else spec.blocks
        _validate_blocks(n, blocks)
        if spec.kind == "unipotent_radical":
            diag = [[identity_mat(b)] for b in blocks]
        else:
            diag = [_invertible_matrices(b, q) for b in blocks]
        out = list(_enumerate_block_upper(
            n, q, blocks, diag, free_above=spec.kind != "levi"))
    else:
        raise ValueError(f"unknown subgroup kind {spec.kind!r}")
    if len(out) != order:
        raise AssertionError(
            f"enumeration bug: got {len(out)} elements, expected {order}")
    return out


def _capped_order(n: int, q: int, spec: SubgroupSpec) -> int:
    """The order of the group, after checking n >= 1 (ValueError) and the
    order against MAX_GROUP_ORDER (GroupSizeError)."""
    if n < 1:
        raise ValueError("n must be positive")
    order = group_order(n, q, spec)
    if order > MAX_GROUP_ORDER:
        raise GroupSizeError(f"{spec.kind} subgroup of GL({n},{q}) has order "
                             f"{order} > cap {MAX_GROUP_ORDER}")
    return order


def _invertible_matrices(n: int, q: int) -> list[Mat]:
    """GL(n, q) row by row, in the order `enumerate_group` describes.
    Matrices share their row tuples.  The recursion is the module-level
    `_extend_rows`, not a closure that refers to itself: such a closure
    is a reference cycle that would keep the list alive after the caller
    drops it, until the cyclic garbage collector next runs."""
    vectors = list(itertools.product(range(q), repeat=n))
    out: list[Mat] = []
    _extend_rows(get_field(q), vectors, n, (), {vectors[0]}, out)
    return out


def _extend_rows(F: Fq, vectors, n: int, rows: tuple, span: set,
                 out: list) -> None:
    """Append to `out`, in `vectors` order, every completion of `rows` to
    n rows whose each row lies outside the span of the rows above it;
    `span` is the span of `rows`."""
    add, mul_ = F._add, F._mul
    last = len(rows) == n - 1
    for v in vectors:
        if v in span:
            continue
        if last:
            out.append(rows + (v,))
            continue
        _extend_rows(F, vectors, n, rows + (v,),
                     {tuple([add[a][mul_[c][b]] for a, b in zip(s, v)])
                      for s in span for c in range(F.q)}, out)


def _enumerate_block_upper(n: int, q: int, blocks, diag, free_above: bool):
    """Block upper triangular matrices: each diagonal block runs over its
    list in `diag` (outer loop, in product order), and the entries above
    the blocks run over all of F_q when `free_above`, else stay 0."""
    starts = _block_starts(blocks)
    above = [(i, j) for bi, si in enumerate(starts)
             for i in range(si, si + blocks[bi])
             for j in range(si + blocks[bi], n)] if free_above else []
    for diag_choice in itertools.product(*diag):
        base = [[0] * n for _ in range(n)]
        for bi, m in enumerate(diag_choice):
            s = starts[bi]
            for i in range(blocks[bi]):
                for j in range(blocks[bi]):
                    base[s + i][s + j] = m[i][j]
        for vals in itertools.product(range(q), repeat=len(above)):
            g = [row[:] for row in base]
            for (i, j), v in zip(above, vals):
                g[i][j] = v
            yield tuple(tuple(row) for row in g)


# ---------------------------------------------------------------------------
# a concrete finite matrix group

@dataclass
class MatrixGroup:
    """GL(n, q) or one of its standard subgroups, fully enumerated."""
    n: int
    q: int
    spec: SubgroupSpec
    elements: list = field(repr=False)
    _inverses: dict = field(default_factory=dict, repr=False)
    # subgroup spec -> index arrays of the right cosets of that subgroup,
    # filled by repth._coset_data
    _cosets: dict = field(default_factory=dict, repr=False)
    field_: Fq = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.field_ = get_field(self.q)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Mat:
        return identity_mat(self.n)

    @cached_property
    def element_index(self) -> dict:
        """g -> the position of g in `elements`."""
        return {g: i for i, g in enumerate(self.elements)}

    def index(self, g: Mat) -> int:
        return self.element_index[g]

    def __contains__(self, g: Mat) -> bool:
        return g in self.element_index

    @cached_property
    def codes(self) -> np.ndarray:
        """The |G| x n x n uint8 array of `elements`, in their order."""
        n = self.n
        return np.fromiter(
            itertools.chain.from_iterable(
                itertools.chain.from_iterable(self.elements)),
            dtype=np.uint8, count=self.order * n * n).reshape(self.order, n, n)

    @cached_property
    def sorted_keys(self) -> tuple:
        """(keys, order): the `_row_major_keys` of `codes` sorted, and the
        argsort that sorts them.  The order of `elements` is not assumed
        (Borel and parabolic lists are not sorted)."""
        keys = _row_major_keys(self.codes, self.q)
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def _locate(self, codes):
        """The index in `elements` of each matrix of a code array, -1 for
        a matrix not in the group: one searchsorted and an equality test."""
        keys, order = self.sorted_keys
        want = _row_major_keys(codes, self.q)
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, order[pos], -1)

    def _indices(self, codes):
        """`_locate` for matrices of the group: raises KeyError when one is
        not in it."""
        at = self._locate(codes)
        if (at < 0).any():
            raise KeyError(f"a matrix outside the {self.spec.kind} group of "
                           f"GL({self.n},{self.q})")
        return at

    def mul(self, a: Mat, b: Mat) -> Mat:
        return mat_mul(self.field_, a, b)

    def inv(self, a: Mat) -> Mat:
        got = self._inverses.get(a)
        if got is None:
            got = mat_inv(self.field_, a)
            self._inverses[a] = got
        return got

    def generators(self) -> list[Mat]:
        """A generating set, by which the classes conjugate and the cosets
        of `repth._coset_data` multiply.

        For full GL(n, q): E_{01}(1) and the cyclic permutation matrix
        P (P e_j = e_{j+1 mod n}) when n >= 2, and diag(zeta, 1, ..., 1),
        zeta = Fq.generator (dropped when it is the identity, q = 2).
        They generate GL(n, q): conjugating E_{01}(1) by powers of P gives
        every E_{i,i+1 mod n}(1), and by the diagonal E_{01}(zeta^k);
        commutators and sums of those give every E_{ij}(a), so SL(n, q),
        and the diagonal adds the determinant.  For the Borel, the
        elementary and diagonal `_borel_generators`; for a standard
        parabolic, those and E_{i+1,i}(1) for each i, i+1 in one block:
        with B, E_{i+1,i}(1) gives the simple reflection s_i, since
        E_{i,i+1}(1) E_{i+1,i}(-1) E_{i,i+1}(1) is s_i times a diagonal
        matrix, and P_T = B W_T B.  The Levi and unipotent kinds use all
        of their elements.
        """
        n, kind = self.n, self.spec.kind
        if kind == "full":
            zeta = self.field_.generator
            gens = [elementary_mat(n, 0, 1, 1),
                    perm_matrix(n, [(j + 1) % n for j in range(n)])] \
                if n >= 2 else []
            return gens + ([elementary_mat(n, 0, 0, zeta)]
                           if zeta != 1 else [])
        if kind == "borel":
            return _borel_generators(self.field_, n)
        if kind == "standard_parabolic":
            return _borel_generators(self.field_, n) + [
                elementary_mat(n, i + 1, i, 1)
                for s, b in zip(_block_starts(self.spec.blocks),
                                self.spec.blocks)
                for i in range(s, s + b - 1)]
        return self.elements

    @cached_property
    def _class_data(self) -> tuple:
        """(classes, class_of): the classes ordered by their first element
        in `elements`, each sorted by key and holding the objects of
        `elements`, and class_of[k] the class of elements[k], an int list.

        The classes are the `_orbits` of the index permutations
        g -> s g s^-1, one for each s of `generators()`, formed for every
        g at once on the code array (`_mul_codes`) and located by
        `_locate`; a conjugate outside the group raises.  Sorting each
        class by key makes the result independent of the generating set.
        """
        F = self.field_
        steps = []
        for s in self.generators():
            conj = _mul_codes(F, self.inv(s),
                              _mul_codes(F, s, self.codes, left=True),
                              left=False)
            perm = self._locate(conj)
            if (perm < 0).any():
                raise AssertionError(f"conjugating by {s} leaves the group")
            steps.append(perm)
        class_of, _ = _orbits(steps, self.order)
        # the elements in key order, then stably by class
        order = self.sorted_keys[1]
        members = order[np.argsort(class_of[order], kind="stable")]
        parts = np.split(members, np.cumsum(np.bincount(class_of))[:-1])
        return ([[self.elements[i] for i in part.tolist()] for part in parts],
                class_of.tolist())

    def conjugacy_classes(self) -> list[list[Mat]]:
        """The classes of `_class_data`."""
        return self._class_data[0]

    def class_index(self, g: Mat) -> int:
        self.conjugacy_classes()  # so that a first build is timed there
        return self._class_data[1][self.element_index[g]]

    def class_reps(self) -> list[Mat]:
        return [cls[0] for cls in self.conjugacy_classes()]

    @cached_property
    def elliptic_classes(self) -> frozenset:
        """The indices of the classes whose characteristic polynomial is
        irreducible: `elliptic_regular`, a class function, tested once at
        each class representative."""
        return frozenset(c for c, g in enumerate(self.class_reps())
                         if elliptic_regular(self.q, g))

    @cached_property
    def bruhat_index(self) -> tuple:
        """(labels, at), GL(n, q) only: the Bruhat labels (w, v) in code
        order, and the position in labels of each element's label; built
        and checked by `_bruhat_index`."""
        return _bruhat_index(self)

    @cached_property
    def class_labels(self) -> list:
        """Per class, the positions in `bruhat_index`'s labels of its
        members, in class order."""
        at = self.bruhat_index[1]
        return [at[[self.index(y) for y in cls]].tolist()
                for cls in self.conjugacy_classes()]


@lru_cache(maxsize=None)
def gl_group(n: int, q: int) -> MatrixGroup:
    return MatrixGroup(n, q, SubgroupSpec.full(),
                       enumerate_group(n, q, SubgroupSpec.full()))


@lru_cache(maxsize=None)
def subgroup(n: int, q: int, spec: SubgroupSpec) -> MatrixGroup:
    return MatrixGroup(n, q, spec, enumerate_group(n, q, spec))


def perm_matrix(n: int, w) -> Mat:
    """Permutation matrix with column j carrying a 1 in row w(j)."""
    return tuple(tuple(1 if i == w[j] else 0 for j in range(n))
                 for i in range(n))


def diag_product(F: Fq, g: Mat) -> int:
    acc = 1
    for i in range(len(g)):
        acc = F.mul(acc, g[i][i])
    return acc


@lru_cache(maxsize=None)
def bruhat_decomposition(e: int, q: int) -> dict:
    """For every g in GL(e, F_q): (w, v) with g in B w B and v in F_q^x the
    product diag(b1) * diag(b2) of any decomposition g = b1 w b2, read off
    the checked label index `gl_group(e, q).bruhat_index`
    (`_bruhat_index`)."""
    G = gl_group(e, q)
    labels, at = G.bruhat_index
    return dict(zip(G.elements, [labels[k] for k in at.tolist()]))


def _bruhat_index(G: MatrixGroup) -> tuple:
    """(labels, at) for G = GL(e, q), kept by `MatrixGroup.bruhat_index`:
    the labels (w, v) in code order (`bruhat_labels`), and the position in
    labels of each element's label.

    v is well defined: stabilizer pairs b1 w b2 = w have diag products
    multiplying to 1, because conjugation by a permutation matrix permutes
    the diagonal of a triangular matrix.

    Each g is reduced to a monomial matrix u1 g u2 = w * diag(pivots) by
    elimination with upper unitriangular u1, u2, so w is read off the
    pivot positions and v is the product of the pivots; `_bruhat_labels`
    runs that elimination column by column over the group's whole code
    array.  Every cell is checked to have its closed-form size
    |B| * q^l(w), the labels to be B-bi-equivariant in field codes:
    (w, v)(s g) = (w, v)(g s) = (w, d(s) v), d the diagonal product, for
    every g and s in `_borel_generators`, and the permutation matrix of w
    to have the label (w, 1): e! lookups.  The equivariance check is one
    row operation (s g) and one column operation (g s) per generator over
    the whole array, each product located in G and its label compared
    with the expected one, so it makes the same |G| * |S| * 2 comparisons
    as a loop over g would, and a product outside G fails it.  So the
    label set of w holds w and is stable under B on both sides, so it
    holds B w B; both have |B| * q^l(w) elements, so it is B w B, and
    g = b1 w b2 has the label (w, d(b1) d(b2)).  In particular g^-1 has
    the label (w^-1, v^-1), and every label in W x F_q^x occurs.  A
    function of the label alone, like `repth.e_tau`, is then fixed by its
    values at the permutation matrices, its hypotheses can be checked once
    per label, and the convolution of two such functions is |B| times a
    sum over the cosets of B.
    """
    F, e, q, codes = G.field_, G.n, G.q, G.codes
    pivots, v = _bruhat_labels(F, codes)
    label_codes = _label_codes(e, q, pivots, v)
    labels = bruhat_labels(e, q)[0]
    positions = _code_positions(e, q, label_codes)
    sizes = Counter(labels[k][0] for k in positions.tolist())
    b_order = group_order(e, q, SubgroupSpec.borel())
    for w in itertools.permutations(range(e)):
        if sizes[w] != b_order * q ** _inversions(w):
            raise AssertionError(f"Bruhat cell of {w} has the wrong size")
    for s in _borel_generators(F, e):
        want = _label_codes(e, q, pivots, F.mul_arr[diag_product(F, s)][v])
        for left in (True, False):
            at = G._locate(_mul_codes(F, s, codes, left))
            bad = np.flatnonzero((at < 0) | (label_codes[at] != want))
            if len(bad):
                raise AssertionError(f"Bruhat label of {G.elements[bad[0]]} "
                                     "is not B-bi-equivariant")
    for w in itertools.permutations(range(e)):
        if labels[positions[G.index(perm_matrix(e, w))]] != (w, 1):
            raise AssertionError(
                f"permutation matrix of {w} is not labelled ({w}, 1)")
    return labels, positions.astype(np.min_scalar_type(len(labels)))


@lru_cache(maxsize=None)
def bruhat_labels(e: int, q: int) -> tuple:
    """(labels, codes): every Bruhat label (w, v) of GL(e, q), w in S_e and
    v in F_q^x, in the order of its code, and the codes, sorted.  The
    code of (w, v) is the integer with the base-e digits w(0), ..., w(e-1)
    (w(0) least significant), times q, plus v (`_label_codes`).  The
    positions that `MatrixGroup.bruhat_index` and `label_positions` give
    are positions in this list."""
    perms = list(itertools.permutations(range(e)))
    w = np.repeat(np.array(perms, dtype=np.int64).reshape(len(perms), e),
                  q - 1, axis=0)
    v = np.tile(np.arange(1, q), len(perms))
    codes = _label_codes(e, q, w, v)
    order = np.argsort(codes, kind="stable")
    return ([(perms[k // (q - 1)], int(v[k])) for k in order.tolist()],
            codes[order])


def _label_codes(e: int, q: int, w, v):
    """The int64 code of each label (w[k], v[k]): w as base-e digits, then
    v (`bruhat_labels`)."""
    return (w.astype(np.int64) @ (e ** np.arange(e))) * q + v


def _code_positions(e: int, q: int, codes):
    """The position in `bruhat_labels(e, q)` of each label code;
    AssertionError for a code of no label (w no permutation, or v = 0)."""
    known = bruhat_labels(e, q)[1]
    at = np.minimum(np.searchsorted(known, codes), len(known) - 1)
    if (known[at] != codes).any():
        raise AssertionError(f"a Bruhat label outside S_{e} x F_{q}^x")
    return at


def label_positions(q: int, codes):
    """The position in `bruhat_labels(e, q)` of the Bruhat label of each
    matrix of a code array, by the `_bruhat_labels` elimination, with no
    group enumerated.

    The hypotheses of a label read are checked at every matrix x read:
    x is invertible (KeyError otherwise), and its label is
    B-bi-equivariant, L(s x) = L(x s) = (w, d(s) v) when L(x) = (w, v),
    for every s in `_borel_generators` (AssertionError otherwise).  The
    products s x and x s, formed for every s and x at once, are reduced
    in the same elimination as the x."""
    F, (count, e, _) = get_field(q), codes.shape
    gens = _borel_generators(F, e)
    s = np.array(gens, dtype=np.uint8).reshape(len(gens), 1, e, e)
    pivots, v = _bruhat_labels(F, np.concatenate(
        [codes, _mul_pairs(F, s, codes).reshape(-1, e, e),
         _mul_pairs(F, codes, s).reshape(-1, e, e)]))
    if not v[:count].all():
        raise KeyError(f"a matrix outside GL({e},{q})")
    label_codes = _label_codes(e, q, pivots, v).reshape(-1, count)
    d = np.array([diag_product(F, g) for g in gens], dtype=np.uint8)
    want = _label_codes(e, q, pivots[:count],
                        F.mul_arr[d[:, None], v[:count]])
    bad = np.flatnonzero((label_codes[1:] != np.concatenate([want, want]))
                         .any(axis=0))
    if len(bad):
        raise AssertionError(f"Bruhat label of {codes[bad[0]].tolist()} "
                             "is not B-bi-equivariant")
    return _code_positions(e, q, label_codes[0])


@dataclass(frozen=True)
class BorelFlags:
    """The normal forms r = w u of the right cosets B r of GL(e, q)
    (`borel_flags`), in order: w in `itertools.permutations` order, then
    the free entries of u in `itertools.product` order."""
    cells: list  # the w of each form
    codes: np.ndarray  # the forms, p_e(q) x e x e field codes
    inv_codes: np.ndarray  # their inverses u^-1 w^-1
    at: np.ndarray  # the position in `bruhat_labels` of each label (w, 1)


def _free_entries(w) -> list:
    """The entries (i, j), i < j, of u that are free in the normal form
    w u: those with w(i) > w(j), the inversions of w."""
    return [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))
            if w[i] > w[j]]


@lru_cache(maxsize=None)
def borel_flags(e: int, q: int) -> BorelFlags:
    """The p_e(q) = |G/B| normal forms r = w u of B\\G, G = GL(e, q): u is
    upper unitriangular with free entries at the inversions of w, so
    there are q^l(w) forms per w (Carter, *Finite Groups of Lie Type*,
    Ch. 2).  G is not enumerated and no tuple matrix is multiplied: w u
    is u with its rows permuted (row w(j) of w u is row j of u), and
    (w u)^-1 = u^-1 w^-1, with u^-1 = sum over k < e of (1 - u)^k.

    Checked here: each r w^-1 = w u w^-1 is lower unitriangular, so two
    forms r, r' of one cell have r r'^-1 lower unitriangular, in B only
    when r = r'; the forms are distinct and |G|/|B| in number; r r^-1 = 1;
    and each form has the label (w, 1), read by `label_positions`, which
    checks B-bi-equivariance at every form.  So the forms lie in
    distinct cosets, one per coset.  GroupSizeError above
    MAX_GROUP_ORDER, as for enumerating G."""
    order = _capped_order(e, q, SubgroupSpec.full())
    F = get_field(q)
    cells, forms, inverses = [], [], []
    for w in itertools.permutations(range(e)):
        free = _free_entries(w)
        u = np.zeros((q ** len(free), e, e), dtype=np.uint8)
        u[:, range(e), range(e)] = 1
        for k, vals in enumerate(zip(*itertools.product(range(q),
                                                         repeat=len(free)))):
            u[:, free[k][0], free[k][1]] = vals
        # 1 - u is nilpotent: its e-th power is 0
        step = F.neg_arr[u - np.eye(e, dtype=np.uint8)]
        power = u_inv = np.broadcast_to(np.eye(e, dtype=np.uint8), u.shape)
        for _ in range(1, e):
            power = _mul_pairs(F, power, step)
            u_inv = F.add_arr[u_inv, power]
        w_inv = np.argsort(w)
        r = u[:, w_inv]
        conj = r[:, :, w_inv]  # w u w^-1
        if np.triu(conj, 1).any() or (conj[:, range(e), range(e)] != 1).any():
            raise AssertionError(f"a normal form of the cell of {w} is not "
                                 f"a lower unitriangular matrix times {w}")
        cells.extend([w] * len(r))
        forms.append(r)
        inverses.append(u_inv[:, :, w_inv])
    codes, inv_codes = np.concatenate(forms), np.concatenate(inverses)
    count = order // group_order(e, q, SubgroupSpec.borel())
    keys = _row_major_keys(codes, q)
    keys = keys[np.argsort(keys, kind="stable")]
    if len(codes) != count or (keys[1:] == keys[:-1]).any():
        raise AssertionError(f"the normal forms of GL({e},{q}) are not "
                             f"{count} distinct matrices")
    if (_mul_pairs(F, codes, inv_codes) != np.eye(e, dtype=np.uint8)).any():
        raise AssertionError("a normal form times its inverse is not 1")
    labels, at = bruhat_labels(e, q)[0], label_positions(q, codes)
    for k, w in zip(at.tolist(), cells):
        if labels[k] != (w, 1):
            raise AssertionError(f"a normal form of the cell of {w} is not "
                                 f"labelled ({w}, 1)")
    return BorelFlags(cells, codes, inv_codes, at)


def _orbits(steps, count: int) -> tuple:
    """(orbit, firsts): the orbit of each index 0..count-1 under the index
    permutations `steps`, numbered in the order of the orbits' least
    members, and those members.  Each index starts labelled by itself;
    each pass takes the smaller label across every step, both ways, then
    each label's own label, until a pass changes nothing: labels only
    fall and stay in their orbit, so each ends at its least member."""
    label = np.arange(count)
    while True:
        new = label
        for step in steps:
            new = np.minimum(new, new[step])
            new[step] = np.minimum(new[step], new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    firsts = np.flatnonzero(label == np.arange(count))
    return np.searchsorted(firsts, label), firsts


def _borel_generators(F: Fq, n: int) -> list[Mat]:
    """diag(1, ..., zeta, ..., 1) at each position (none when zeta = 1,
    q = 2) and E_{i,i+1}(1).  They generate B: conjugating E_{i,i+1}(1)
    by the diagonal gives E_{i,i+1}(a) for every unit a, sums of those
    give every a, and commutators of neighbours the entries further up."""
    diag = [elementary_mat(n, i, i, F.generator) for i in range(n)
            if F.generator != 1]
    return diag + [elementary_mat(n, i, i + 1, 1) for i in range(n - 1)]


def _bruhat_labels(F: Fq, codes):
    """(w, v) for every g of a code array: w[g, j] the pivot row of column
    j, v[g] the product of the pivots.  For each column j, pivot on the
    lowest nonzero entry, which lies in a row not yet used, and clear the
    pivot's row to the right with column operations.  Used rows are zero
    right of their pivot, so the operations stay unitriangular; clearing
    the pivot's column above it by row operations would change no entry
    that a later column reads, so it is left out."""
    m = codes.copy()
    count, n, _ = m.shape
    at = np.arange(count)
    add, mul_, neg, inv = F.add_arr, F.mul_arr, F.neg_arr, F.inv_arr
    w = np.empty((count, n), dtype=np.uint8)
    v = np.ones(count, dtype=np.uint8)
    for j in range(n):
        r = n - 1 - np.argmax(m[:, ::-1, j] != 0, axis=1)
        p = m[at, r, j]
        w[:, j] = r
        v = mul_[v, p]
        pivot_row = m[at, r]
        p_inv = inv[p]
        for k in range(j + 1, n):
            f = mul_[pivot_row[:, k], p_inv]
            m[:, :, k] = add[m[:, :, k], neg[mul_[f[:, None], m[:, :, j]]]]
    return w, v


def proper_parabolic_avoidance(n: int, q: int, g: Mat) -> bool:
    """True iff g lies in no conjugate of a proper standard parabolic.

    Brute force over all conjugates x g x^-1, the members of g's class,
    and all proper block compositions; must agree with elliptic_regular.
    """
    G = gl_group(n, q)
    if g not in G:
        raise ValueError("element is not invertible of the right size")
    compositions = [c for c in _compositions(n) if len(c) >= 2]
    for y in G.conjugacy_classes()[G.class_index(g)]:
        for blocks in compositions:
            if is_block_upper(y, blocks):
                return False
    return True


def _compositions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return out
