"""Extended affine Weyl group of GL_e and parahoric-type combinatorics.

The group is Z^e ⋊ S_e.  An element (lam, w) acts on column vectors as the
monomial matrix diag(pi^lam) * P_w, so the product rule is

    (lam1, w1) * (lam2, w2) = (lam1 + w1·lam2, w1∘w2)

with (w·lam)_i = lam_{w^{-1}(i)}.  Permutations are tuples in one-line
notation on 0-based positions: w[i] is the image of i.

Affine nodes are Z/e with node 0 the affine one; the finite generators
S = {1, .., e-1} give s_i = transposition of positions i-1, i.  The
length-zero rotation Pi is fixed as (e_1, i ↦ i+1 mod e) and validated by
its three defining invariants (Pi^e central, conjugation rotates the
affine generators, length zero) rather than by trusting the coordinates.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .qpoly import QPoly, geometric


# ---------------------------------------------------------------------------
# finite permutations (one-line tuples, 0-based)

def identity_perm(e: int) -> tuple[int, ...]:
    return tuple(range(e))


def perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a∘b)(i) = a(b(i)).

    >>> perm_mul((1, 0, 2), (0, 2, 1))
    (1, 2, 0)
    """
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def perm_sign(a: tuple[int, ...]) -> int:
    seen = [False] * len(a)
    sign = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = a[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def transposition(e: int, i: int, j: int) -> tuple[int, ...]:
    out = list(range(e))
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def all_perms(e: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(e)))


# ---------------------------------------------------------------------------
# extended affine elements

class AffineElt(NamedTuple):
    trans: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.perm)

    def __mul__(self, other):  # type: ignore[override]
        return mul(self, other)


def affine_identity(e: int) -> AffineElt:
    return AffineElt((0,) * e, identity_perm(e))


def from_perm(w: tuple[int, ...]) -> AffineElt:
    return AffineElt((0,) * len(w), tuple(w))


def translation(lam: tuple[int, ...]) -> AffineElt:
    return AffineElt(tuple(lam), identity_perm(len(lam)))


def mul(x: AffineElt, y: AffineElt) -> AffineElt:
    w = x.perm
    e = len(w)
    if e != len(y.perm):
        raise ValueError(f"rank mismatch: {e} vs {len(y.perm)}")
    # (w·lam2)_{w(j)} = lam2_j
    lam = list(x.trans)
    for j, t in enumerate(y.trans):
        lam[w[j]] += t
    return AffineElt(tuple(lam), tuple([w[b] for b in y.perm]))


def mul_gen(x: AffineElt, i: int) -> AffineElt:
    """x * s_i for an affine node i in range(e), e >= 2, without building s_i.

    For i >= 1, s_i = (0, (i-1 i)), so x * s_i swaps positions i-1 and i
    of w.  The affine s_0 = (e_0 - e_{e-1}, (0 e-1)) swaps positions e-1
    and 0 of w and adds +1 to lam at w(0) and -1 at w(e-1).
    """
    lam, w = x
    if i:
        return AffineElt(lam, w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:])
    a, b = w[0], w[-1]
    lam = list(lam)
    lam[a] += 1
    lam[b] -= 1
    return AffineElt(tuple(lam), (b,) + w[1:-1] + (a,))


def inv(x: AffineElt) -> AffineElt:
    # (lam, w)^-1 = (-w^-1·lam, w^-1)
    wi = perm_inv(x.perm)
    lam = tuple(-x.trans[x.perm[i]] for i in range(x.rank))
    return AffineElt(lam, wi)


def pi_element(e: int) -> AffineElt:
    """The length-zero diagram rotation; Pi^e is the central translation."""
    lam = (1,) + (0,) * (e - 1)
    perm = tuple((i + 1) % e for i in range(e))
    return AffineElt(lam, perm)


@lru_cache(maxsize=None)
def pi_power(e: int, k: int) -> AffineElt:
    """Pi^k, built once per (e, k)."""
    pi = pi_element(e)
    out = affine_identity(e)
    step = pi if k >= 0 else inv(pi)
    for _ in range(abs(k)):
        out = mul(out, step)
    return out


def simple_reflection(e: int, i: int) -> AffineElt:
    """s_i for an affine node i in Z/e; node 0 is the affine reflection."""
    i %= e
    if e == 1:
        raise ValueError("rank 1 has no reflections")
    if i == 0:
        lam = [0] * e
        lam[0], lam[-1] = 1, -1
        return AffineElt(tuple(lam), transposition(e, 0, e - 1))
    return from_perm(transposition(e, i - 1, i))


def central_index(x: AffineElt) -> int:
    """Sum of the translation vector; x = Pi^k * (affine part) with this k."""
    return sum(x.trans)


def length(x: AffineElt) -> int:
    """Extended length: number of positive affine roots made negative.

    Closed form sum over position pairs; the BFS oracle `length_bfs` is the
    ground truth it is tested against.
    """
    lam, w = x.trans, x.perm
    e = len(w)
    total = 0
    for i in range(e):
        wi = w[i]
        for j in range(i + 1, e):
            wj = w[j]
            a = lam[wi] - lam[wj] + (1 if wi > wj else 0)
            total += a if a >= 0 else -a
    return total


def bfs_ball(e: int, radius: int) -> dict[AffineElt, int]:
    """Word-length distances from 1 in {s_0..s_{e-1}}, out to the radius.

    Covers the non-extended affine Weyl group (translation sum 0); the
    extended length of Pi^k * y equals the distance of y.
    """
    if e == 1:
        return {affine_identity(1): 0}
    gens = [simple_reflection(e, i) for i in range(e)]
    start = affine_identity(e)
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        x = frontier.popleft()
        d = dist[x]
        if d == radius:
            continue
        for s in gens:
            y = mul(x, s)
            if y not in dist:
                dist[y] = d + 1
                frontier.append(y)
    return dist


def length_bfs(x: AffineElt, radius: int = 12) -> int:
    """Oracle length: the distance in bfs_ball of the affine part
    y = Pi^-k x, k = central_index(x)."""
    y = mul(pi_power(x.rank, -central_index(x)), x)
    if y == affine_identity(x.rank):
        return 0
    if x.rank == 1:
        raise ValueError("rank-1 affine part must be trivial")
    d = bfs_ball(x.rank, radius).get(y)
    if d is None:
        raise ValueError(f"element beyond BFS radius {radius}")
    return d


# ---------------------------------------------------------------------------
# parahoric types: proper subsets of the affine node set Z/e

@dataclass(frozen=True)
class ParahoricType:
    nodes: frozenset
    e: int

    def __post_init__(self):
        if not all(0 <= t < self.e for t in self.nodes):
            raise ValueError("nodes must lie in Z/e")
        if len(self.nodes) >= self.e:
            raise ValueError("type must be a proper subset of Z/e")

    @property
    def d(self) -> int:
        """Dimension of the fixed simplex: e - 1 - |T|."""
        return self.e - 1 - len(self.nodes)

    def sorted_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    def is_standard(self) -> bool:
        return 0 not in self.nodes

    def __repr__(self):
        return f"ParahoricType({set(self.sorted_nodes()) or '{}'}, e={self.e})"


def parahoric_type(nodes, e: int) -> ParahoricType:
    return ParahoricType(frozenset(nodes), e)


def rotate(T: ParahoricType, j: int) -> ParahoricType:
    """Shift every node by j mod e.

    >>> rotate(parahoric_type({1, 3}, 4), 2) == parahoric_type({1, 3}, 4)
    True
    """
    return ParahoricType(frozenset((t + j) % T.e for t in T.nodes), T.e)


def mask_period(mask: int, e: int) -> int:
    """The rotation period u_T of the node set T ⊆ Z/e with bitmask `mask`
    (bit t set iff t is in T): the least j > 0 with T + j = T.

    The stabilizer of T in Z/e is a subgroup, so u_T divides e and only
    divisors are tried; rotating by j is a cyclic shift of the bitmask.
    """
    full = (1 << e) - 1
    for j in range(1, e + 1):
        if e % j == 0 and ((mask << j) & full | mask >> (e - j)) == mask:
            return j
    raise AssertionError("rotation by e always fixes T")


def period_and_n(T: ParahoricType) -> tuple[int, int]:
    """(u_T, n_T): u_T = rotation period of T, n_T = e / u_T.

    z_T = Pi^{u_T} generates the normalizer of P_T over P_T, and
    z_T^{n_T} is the central uniformizer translation.
    """
    u = mask_period(sum(1 << t for t in T.nodes), T.e)
    return u, T.e // u


def epsilon(T: ParahoricType) -> int:
    """Sign of the vertex permutation induced by z_T on the fixed simplex.

    The d_T + 1 vertices are the nodes of Z/e not in T; z_T rotates them
    by u_T, and the sign is taken relative to their sorted order.
    """
    u, _ = period_and_n(T)
    comp = sorted(set(range(T.e)) - set(T.nodes))
    pos = {c: i for i, c in enumerate(comp)}
    perm = tuple(pos[(c + u) % T.e] for c in comp)
    return perm_sign(perm)


def canonical_rep(T: ParahoricType) -> ParahoricType:
    """Canonical orbit representative: lex-minimal rotation avoiding node 0.

    Every proper subset has a rotation avoiding node 0 (rotate by -c for
    any node c outside T), so the preference is always satisfiable.  Read
    from the table `_canonical_types(e)` at T's node bitmask, so no type
    is built or kept per call.
    """
    return _canonical_types(T.e)[sum(1 << t for t in T.nodes)]


@lru_cache(maxsize=None)
def _canonical_types(e: int) -> tuple:
    """`canonical_rep` at every node bitmask below 2^e (bit t set iff node
    t is in the type), None at the full set, built once per e.  Each
    rotation orbit is ranked once, and its lex-least rotation with bit 0
    clear is one type shared by every mask of the orbit, the object that
    `orbit_reps(e)` holds.  Rotating by j is a cyclic shift of the
    bitmask."""
    full = (1 << e) - 1
    out = [None] * (1 << e)
    for mask in range(full):
        if out[mask] is None:
            orbit = [(mask << j) & full | mask >> (e - j) for j in range(e)]
            best = min((r for r in orbit if not r & 1), key=_mask_nodes)
            rep = ParahoricType(frozenset(_mask_nodes(best)), e)
            for r in orbit:
                out[r] = rep
    return tuple(out)


def _mask_nodes(mask: int) -> tuple:
    """The nodes of a bitmask, ascending."""
    return tuple(t for t in range(mask.bit_length()) if mask >> t & 1)


@lru_cache(maxsize=None)
def orbit_reps(e: int) -> tuple[ParahoricType, ...]:
    """One canonical representative per Pi-rotation orbit of proper subsets,
    sorted by size, then nodes; a tuple, since every caller shares it.
    The representatives are the types of `_canonical_types(e)`."""
    if e < 1:
        raise ValueError("e must be positive")
    reps = {T for T in _canonical_types(e) if T is not None}
    return tuple(sorted(reps, key=lambda T: (len(T.nodes), T.sorted_nodes())))


def standard_orbit_members(T: ParahoricType) -> list[ParahoricType]:
    """The rotations of T that avoid node 0, sorted; all possible standard
    representatives of T's orbit."""
    u, _ = period_and_n(T)
    members = {rotate(T, j) for j in range(u)}
    return sorted((R for R in members if R.is_standard()),
                  key=lambda R: R.sorted_nodes())


def parahoric_weyl_group(T: ParahoricType) -> list[AffineElt]:
    """The finite subgroup generated by {s_i : i in T}; closure by BFS."""
    e = T.e
    out = {affine_identity(e)}
    if T.nodes:
        frontier = deque(out)
        while frontier:
            x = frontier.popleft()
            for i in T.nodes:
                y = mul_gen(x, i)
                if y not in out:
                    out.add(y)
                    frontier.append(y)
    return sorted(out)


def poincare_sum(elements, q) -> Fraction:
    """Sum of q^l(w) over the given elements, e.g. a W_T already built:
    one power of q per length."""
    return sum((n * Fraction(q) ** l
                for l, n in Counter(map(length, elements)).items()),
               Fraction(0))


def parahoric_volume(T: ParahoricType, q) -> Fraction:
    """Sum of q^l(w) over the subgroup of W_0 generated by T ⊆ {1..e-1}.

    Equals the index [P_T : I] counted with q-powers, i.e. the Haar volume
    of P_T when the Iwahori has volume 1: `poincare_sum` over W_T as
    `parahoric_weyl_group` builds it, the one route to vol P_T.
    """
    if not T.is_standard():
        raise ValueError("only standard types (node 0 excluded) have a "
                         "spherical volume; rotate first")
    if q <= 0:
        raise ValueError("q must be positive")
    return poincare_sum(parahoric_weyl_group(T), q)


def poincare_poly(e: int) -> QPoly:
    """prod_{k=1}^{e-1} (1 + X + ... + X^k); counts Borel cosets at X=q."""
    if e < 1:
        raise ValueError("e must be positive")
    out = QPoly.const(1)
    for k in range(1, e):
        out = out * geometric(k)
    return out


def proper_subsets_of_s(e: int) -> Iterator[ParahoricType]:
    """All subsets of the finite node set S = {1..e-1} (all are proper)."""
    s = range(1, e)
    for r in range(e):
        for nodes in itertools.combinations(s, r):
            yield parahoric_type(nodes, e)
