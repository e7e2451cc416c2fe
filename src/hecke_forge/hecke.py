"""Type-A Iwahori-Hecke algebras in the T-basis, with exact coefficients.

Elements are finitely supported maps from the extended affine Weyl group
to polynomials in q.  Products use the Iwahori-Matsumoto relations

    T_s * T_w = T_{sw}                  if l(sw) > l(w)
    T_s * T_w = q*T_{sw} + (q-1)*T_w    otherwise

together with free multiplication by the length-zero rotation:
T_x * T_{Pi^k} = T_{x Pi^k}.  `t_mul` applies them on the right,
T_x * T_s = T_{xs} or q*T_{xs} + (q-1)*T_x, along a reduced word of the
affine part of each basis element of the right factor.  The ascent
l(x s_i) > l(x) is read off x = (lam, w) in O(1), not from two lengths
(`_ascends`): it holds iff

    i >= 1:  lam_{w(i-1)} - lam_{w(i)} + [w(i-1) > w(i)] <= 0
    i = 0:   lam_{w(e-1)} - lam_{w(0)} + [w(e-1) > w(0)] <= 1

The ground truth for the relations is the double-coset convolution
algebra of GL(e, F_q) over the Borel (`convolution_oracle`): the
normalized cell indicators fbar_w of `repth.finite_hecke_basis`,
convolved over the cosets B\\G: each structure constant is a count over
the normal forms r_i of B\\G (`finglq.borel_flags`) by the Bruhat cells
of w3 r_i^-1 and r_i, with no enumeration of GL(e, F_q).

Central-character reduction collapses the basis along central
translations (lam, w) ~ (lam + n*(1..1), w), weighting by omega^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qpoly import QPoly
from .weyl import (
    AffineElt, affine_identity, all_perms, central_index, from_perm,
    length, mul, mul_gen, pi_power,
)


def _as_poly(c) -> QPoly:
    return c if isinstance(c, QPoly) else QPoly.const(c)


@dataclass
class HeckeElt:
    """Finitely supported map AffineElt -> QPoly; zero terms are dropped."""
    e: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        polys = ((x, _as_poly(c)) for x, c in self.terms.items())
        self.terms = {x: c for x, c in polys if c.coeffs}
        if any(len(x.perm) != self.e for x in self.terms):
            raise ValueError("rank mismatch in support")

    @classmethod
    def unit(cls, e: int) -> "HeckeElt":
        return cls.basis(affine_identity(e))

    @classmethod
    def basis(cls, x: AffineElt, coeff=1) -> "HeckeElt":
        return cls(x.rank, {x: _as_poly(coeff)})

    def coeff(self, x: AffineElt) -> QPoly:
        return self.terms.get(x, QPoly())

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        if self.e != other.e:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for x, c in other.terms.items():
            _add_to(out, x, c)
        return HeckeElt(self.e, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + other.scale(-1)

    def scale(self, c) -> "HeckeElt":
        c = _as_poly(c)
        return HeckeElt(self.e, {x: c * v for x, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElt) and self.e == other.e
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return f"HeckeElt(e={self.e}, 0)"
        bits = [f"({c})*T[{x.trans},{x.perm}]"
                for x, c in sorted(self.terms.items())]
        return " + ".join(bits)


def _ascends(x: AffineElt, i: int) -> bool:
    """l(x s_i) > l(x), by the rule in the module docstring.

    Right multiplication by s_i swaps positions i-1, i of w (e-1, 0 for
    the affine node, which also moves lam by +1 at w(0) and -1 at
    w(e-1)).  Of the terms of the closed-form `length`, only the one of
    that pair of positions changes.  With t the left side of the rule,
    it goes from |t| to |t - 1| for i >= 1, which grows iff t <= 0, and
    from |t - 1| to |t - 2| for i = 0, which grows iff t <= 1.
    """
    lam, w = x
    if i:
        a, b = w[i - 1], w[i]
        return lam[a] - lam[b] + (a > b) <= 0
    a, b = w[-1], w[0]
    return lam[a] - lam[b] + (a > b) <= 1


def _right_descent_word(y: AffineElt) -> list[int]:
    """Indices i1..ik of a reduced word y = s_{i1} * ... * s_{ik}.

    Greedy stripping of right descents (`_ascends`), finite nodes before
    the affine one; valid because the closed-form length is exact on the
    whole extended group.
    """
    e = y.rank
    order = list(range(1, e)) + [0]
    word_rev = []
    cur = y
    for _ in range(length(y)):
        for i in order:
            if not _ascends(cur, i):
                break
        else:
            raise AssertionError("nonzero length without a descent")
        word_rev.append(i)
        cur = mul_gen(cur, i)
    if cur != affine_identity(e):
        raise ValueError("element has length zero but is not the identity; "
                         "pi-part must be stripped first")
    return word_rev[::-1]


def _add_to(out: dict, x: AffineElt, c: QPoly):
    prev = out.get(x)
    out[x] = c if prev is None else prev + c


# Inside the kernel a coefficient is a plain tuple c, c[k] the coefficient
# of q^k: q*c is (0,) + c, and each summed tuple becomes a QPoly once.

def _add_coeffs(out: dict, x: AffineElt, c: tuple):
    prev = out.get(x)
    if prev is None:
        out[x] = c
    else:
        if len(prev) < len(c):
            prev, c = c, prev
        out[x] = tuple([a + b for a, b in zip(prev, c)]) + prev[len(c):]


def _mul_basis_by_gen(terms: dict, i: int) -> dict:
    """Right-multiply sum(c_x T_x) by T_{s_i} for an affine node i, on
    coefficient tuples."""
    out: dict[AffineElt, tuple] = {}
    for x, c in terms.items():
        xs = mul_gen(x, i)
        if _ascends(x, i):
            _add_coeffs(out, xs, c)
        else:
            qc = (0,) + c
            _add_coeffs(out, xs, qc)
            # (q - 1)*c = q*c - c
            _add_coeffs(out, x, tuple([a - b for a, b in zip(qc, c)])
                        + qc[-1:])
    return out


def t_mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product in the T-basis."""
    if a.e != b.e:
        raise ValueError("rank mismatch")
    e = a.e
    out: dict[AffineElt, tuple] = {}
    for y, cb in b.terms.items():
        k = central_index(y)
        y_aff = mul(pi_power(e, -k), y)
        word = _right_descent_word(y_aff)
        # T_x T_y = T_{x Pi^k} T_{y_aff}: Pi^k multiplies freely
        pik = pi_power(e, k)
        if cb.coeffs == (1,):
            cur = {mul(x, pik): ca.coeffs for x, ca in a.terms.items()}
        else:
            cur = {mul(x, pik): (ca * cb).coeffs
                   for x, ca in a.terms.items()}
        for i in word:
            cur = _mul_basis_by_gen(cur, i)
        for x, c in cur.items():
            _add_coeffs(out, x, c)
    return HeckeElt(e, {x: QPoly(c) for x, c in out.items()})


def t_power(a: HeckeElt, k: int) -> HeckeElt:
    out = HeckeElt.unit(a.e)
    for _ in range(k):
        out = t_mul(out, a)
    return out


def structure_constants(e: int) -> dict:
    """c^{w3}_{w1,w2} over the finite Weyl basis, as polynomials in q.

    From prefix products: with w2 taken in order of length and s_i its
    first right descent (`_ascends`), T_{w1} T_{w2} = (T_{w1} T_{w2 s_i})
    T_{s_i}, one `_mul_basis_by_gen` step per product, e!(e! - 1) in all.
    The steps are those of `t_mul` along `_right_descent_word(w2)`.
    """
    perms = all_perms(e)
    # (w2, w2 s_i, i) for every w2 but the identity, shortest first
    steps = []
    for w2 in sorted(perms[1:], key=lambda w: length(from_perm(w))):
        x2 = from_perm(w2)
        i = next(i for i in range(1, e) if not _ascends(x2, i))
        steps.append((w2, mul_gen(x2, i).perm, i))
    out = {}
    for w1 in perms:
        prods = {perms[0]: {from_perm(w1): (1,)}}
        for w2, prefix, i in steps:
            prods[w2] = _mul_basis_by_gen(prods[prefix], i)
        for w2 in perms:
            for x, c in prods[w2].items():
                if any(x.trans):
                    raise AssertionError("spherical product left W_0")
                out[(w1, w2, x.perm)] = QPoly(c)
    return out


# ---------------------------------------------------------------------------
# oracle: the Borel double-coset algebra of GL(e, F_q)

def convolution_oracle(e: int, q: int) -> dict:
    """Structure constants of the normalized indicators (1/|B|) 1_{BwB}.

    Counting-measure convolution on GL(e, F_q); the identity-coset element
    is the unit.  The coefficient of fbar_{w3} in fbar_{w1} * fbar_{w2} is
    the product's value at the permutation matrix of w3 divided by
    fbar_{w3} there, 1/|B|.  The value is |B| times the sum over cosets
    B r_i of fbar_{w1}(w3 r_i^-1) fbar_{w2}(r_i), each term 1/|B|^2 or 0,
    so the coefficient is the count #{i : w3 r_i^-1 in B w1 B, r_i in
    B w2 B}: one histogram of the cells of `repth._flag_label_pairs` per
    w3, a count over the normal forms r_i of B\\G
    (`finglq.borel_flags`), so GL(e, q) is not enumerated.
    `finite_hecke_basis` checks the hypothesis (the fbar_w span the
    commutant).  Constants are exact Fractions, indexed by (w1, w2, w3).
    """
    import numpy as np  # importing hecke does not load numpy
    from . import finglq, repth
    repth.finite_hecke_basis(e, q, finglq.MultChar(q, 0))
    perms = all_perms(e)
    m = len(perms)
    # the position in perms of the cell of each label
    cell = np.array([perms.index(w) for w, _ in finglq.bruhat_labels(e, q)[0]])
    counts = {}
    for w3 in perms:
        a, b = repth._flag_label_pairs(e, q, finglq.perm_matrix(e, w3))
        counts[w3] = np.bincount(cell[a] * m + cell[b],
                                 minlength=m * m).reshape(m, m).tolist()
    return {(w1, w2, w3): Fraction(counts[w3][i][j])
            for i, w1 in enumerate(perms) for w3 in perms
            for j, w2 in enumerate(perms)}


def oracle_mismatches(consts: dict, e: int, q: int) -> int:
    """How many oracle constants differ from the t_mul constants at q."""
    symbolic = structure_constants(e)
    return sum(1 for key, val in consts.items()
               if val != symbolic.get(key, QPoly())(q))


def oracle_matches_t_mul(e: int, q: int) -> bool:
    return oracle_mismatches(convolution_oracle(e, q), e, q) == 0


def constants_to_csv(consts: dict, path: str):
    """CSV rows (w1, w2, w3, coefficient), keyed by finite permutations in
    one-line notation."""
    import csv

    def render(w):
        return ",".join(str(i + 1) for i in w)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w1", "w2", "w3", "coefficient"])
        for (w1, w2, w3), c in sorted(consts.items()):
            writer.writerow([render(w1), render(w2), render(w3), str(c)])


# ---------------------------------------------------------------------------
# central-character reduction

def canonical_central_rep(x: AffineElt) -> tuple[AffineElt, int]:
    """(rep, n): rep = x shifted by -n central units, sum(trans) in [0, e)."""
    n = central_index(x) // x.rank  # floor division, also for negative sums
    if not n:
        return x, 0
    return AffineElt(tuple(t - n for t in x.trans), x.perm), n


@dataclass
class CentralHeckeElt:
    """Element of the fixed-central-character algebra.

    Terms are indexed by canonical class representatives (translation sum
    in [0, e)); the underlying function at pi^n * rep is omega^{-n} times
    the stored coefficient.
    """
    e: int
    omega: object = 1
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for x, c in self.terms.items():
            rep, n = canonical_central_rep(x)
            if rep != x:
                raise ValueError("terms must be keyed by canonical reps")
            if not _is_zero_scalar(c):
                clean[x] = c
        self.terms = clean

    def coeff(self, x: AffineElt):
        rep, n = canonical_central_rep(x)
        c = self.terms.get(rep, 0)
        return c * self.omega ** (-n) if n else c

    def __add__(self, other: "CentralHeckeElt") -> "CentralHeckeElt":
        if self.e != other.e or self.omega != other.omega:
            raise ValueError("mismatched central algebras")
        out = dict(self.terms)
        for x, c in other.terms.items():
            out[x] = out.get(x, 0) + c
        return CentralHeckeElt(self.e, self.omega, out)

    def scale(self, c) -> "CentralHeckeElt":
        return CentralHeckeElt(self.e, self.omega,
                               {x: c * v for x, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, CentralHeckeElt) and self.e == other.e
                and self.omega == other.omega and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def lift(self) -> HeckeElt:
        """Canonical section: one T-basis term per class."""
        return HeckeElt(self.e, {x: _as_poly(c) for x, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return f"CentralHeckeElt(e={self.e}, 0)"
        bits = [f"({c})*[{x.trans},{x.perm}]"
                for x, c in sorted(self.terms.items())]
        return " + ".join(bits)


def _is_zero_scalar(c) -> bool:
    if isinstance(c, QPoly):
        return c.is_zero()
    return c == 0


def central_reduction(f: HeckeElt, omega_at_pi=1) -> CentralHeckeElt:
    """Collapse along central translations with weight omega^n.

    The class coefficient is sum_n omega^n * f(pi^n * rep), which is the
    value at the canonical representative of the reduced function.
    omega(pi) is rational (Fraction raises TypeError otherwise, also on
    the zero element); a coefficient is multiplied only by a factor
    omega^n other than 1.
    """
    omega = Fraction(omega_at_pi)
    weighted = omega != 1
    out: dict = {}
    for x, c in f.terms.items():
        rep, n = canonical_central_rep(x)
        if n and weighted:
            factor = omega ** n
            if factor != 1:
                c = c * factor
        _add_to(out, rep, c)
    return CentralHeckeElt(f.e, omega_at_pi, out)


def central_mul(a: CentralHeckeElt, b: CentralHeckeElt) -> CentralHeckeElt:
    """Product in the fixed-central-character algebra via canonical lifts."""
    if a.e != b.e or a.omega != b.omega:
        raise ValueError("mismatched central algebras")
    return central_reduction(t_mul(a.lift(), b.lift()), a.omega)
