"""Finite abelian groups, elements, and canonical subgroup arithmetic.

A group is a tuple of cyclic orders (``moduli``); elements are reduced
integer tuples.  A subgroup of ``Z^r / diag(d) Z^r`` is represented by the
unique lattice L with ``diag(d) Z^r <= L <= Z^r``, stored as the canonical
column Hermite basis (lower triangular, positive diagonal, entries left of a
pivot reduced into ``[0, pivot)``).  Equal subgroups therefore have equal
basis matrices, and all lattice arithmetic reduces to the kernel primitive.

Each pivot h_jj divides d_j and each entry below a pivot lies in
``[0, h_kk)``, so every basis column is already a reduced group element; a
column with h_jj == d_j is exactly d_j e_j, zero in the group.  A subgroup's
generators are therefore read off its basis without reduction, once per
subgroup, and the trivial and full subgroups, sums with a trivial or equal
operand and the graphs of endogenies are written down without a kernel call.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product as _iproduct
from operator import add, mod, mul, neg, sub

from . import config
from ._kernel import box_reduce, hnf_kernel
from .errors import AmbientMismatch, CapExceeded, InvalidInput
from .snf import smith_normal_form


class AbelianGroup:
    """A finite abelian group presented as a direct sum of cyclic groups.

    The base class accepts any tuple of cyclic orders; use
    :class:`FinAbGroup` (or :func:`canonicalize_group`) for the canonical
    invariant-factor form.  Products of groups (used for relation graphs)
    keep their coordinates and stay in this base class.
    """

    __slots__ = ("moduli", "rank")

    def __init__(self, moduli):
        mods = tuple(int(m) for m in moduli)
        for m in mods:
            if m < 1:
                raise InvalidInput(f"cyclic order must be positive, got {m}")
            if m > config.MAX_ORDER:
                raise InvalidInput(f"cyclic order {m} above MAX_ORDER = {config.MAX_ORDER}")
        self.moduli = mods
        self.rank = len(mods)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.moduli)})"

    # -- basic data ---------------------------------------------------------

    @property
    def order(self):
        return math.prod(self.moduli)

    @property
    def exponent(self):
        return reduce(math.lcm, self.moduli, 1)

    # -- element arithmetic (elements are plain int tuples) ------------------

    @property
    def zero(self):
        return (0,) * self.rank

    def _check_length(self, vec):
        """``vec``, after checking that it has one entry per coordinate."""
        if len(vec) != self.rank:
            raise InvalidInput(f"element length {len(vec)} != rank {self.rank}")
        return vec

    def reduce(self, vec):
        return tuple(map(mod, self._check_length(vec), self.moduli))

    def add(self, a, b):
        return tuple(map(mod, map(add, a, b), self.moduli))

    def sub(self, a, b):
        return tuple(map(mod, map(sub, a, b), self.moduli))

    def neg(self, a):
        return tuple(map(mod, map(neg, a), self.moduli))

    def scalar_mul(self, k, a):
        return tuple([(k * x) % m for x, m in zip(a, self.moduli)])

    def element_order(self, a):
        return reduce(math.lcm, (m // math.gcd(m, x) for x, m in zip(a, self.moduli)), 1)

    def generators(self):
        return [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]


class FinAbGroup(AbelianGroup):
    """A finite abelian group in canonical invariant-factor form.

    ``moduli`` must be an ascending divisibility chain d_1 | d_2 | ... with
    every d_i >= 2 (the trivial group is the empty chain); two groups are
    equal exactly when their chains are.
    """

    __slots__ = ()

    def __init__(self, invariant_factors):
        super().__init__(invariant_factors)
        mods = self.moduli
        order = math.prod(mods)
        if order > config.MAX_ORDER:
            raise InvalidInput(f"group order {order} above MAX_ORDER = {config.MAX_ORDER}")
        for d in mods:
            if d < 2:
                raise InvalidInput("invariant factors must be >= 2 (trivial group is [])")
        for a, b in zip(mods, mods[1:]):
            if b % a:
                raise InvalidInput(f"invariant factors must form a divisibility chain, got {list(mods)}")


def _prime_factorization(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def check_characteristic(p):
    """Reject ``p`` as the order of a prime field: above the order cap
    first, which keeps the primality test below 2**10 trial divisions, then
    if it is not prime."""
    if p > config.MAX_ORDER:
        raise CapExceeded(f"characteristic {p} above the order cap MAX_ORDER = {config.MAX_ORDER}")
    if _prime_factorization(p) != {p: 1}:
        raise InvalidInput(f"characteristic {p} is not prime")


def canonicalize_group(factors) -> FinAbGroup:
    """Invariant-factor form of a direct sum of cyclic groups Z/f_i.

    Factors equal to 1 are dropped; non-positive input is rejected.
    """
    buckets = {}
    for f in factors:
        f = int(f)
        if f <= 0:
            raise InvalidInput(f"cyclic factor must be >= 1, got {f}")
        for p, e in _prime_factorization(f).items():
            buckets.setdefault(p, []).append(e)
    for exps in buckets.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in buckets.values()), default=0)
    chain = []
    for j in range(depth):
        d = 1
        for p, exps in buckets.items():
            if j < len(exps):
                d *= p ** exps[j]
        chain.append(d)
    chain.reverse()
    return FinAbGroup(chain)


def product_group(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """Coordinate product a (+) b, keeping both coordinate blocks."""
    return AbelianGroup(a.moduli + b.moduli)


def _check_same_ambient(g1, g2):
    if g1.moduli != g2.moduli:
        raise AmbientMismatch(f"ambient groups differ: {g1!r} vs {g2!r}")


class Subgroup:
    """Canonical subgroup of an :class:`AbelianGroup`.

    ``basis`` is the lattice basis described in the module docstring, as a
    tuple of row tuples.  Construct through :meth:`from_generators`,
    :meth:`pushforward` or the ``subgroup_*`` module functions; the raw
    constructor trusts its input.
    """

    __slots__ = ("group", "basis", "_order", "_cols")

    def __init__(self, group, basis):
        self.group = group
        self.basis = basis
        self._order = None
        self._cols = None

    @classmethod
    def from_generators(cls, group, gens):
        return cls._span(group, [group.reduce(g) for g in gens])

    @classmethod
    def _span(cls, group, cols):
        """:meth:`from_generators` on integer columns of the right length,
        unvalidated: the kernel reduces them itself."""
        return cls(group, hnf_kernel(group.moduli, cols))

    @classmethod
    def pushforward(cls, carried, lattice_mods, cols):
        """The subgroup of ``carried`` formed by the trailing blocks of the
        integer combinations of ``cols`` whose leading block vanishes mod
        ``lattice_mods``.

        Each column is a leading block of length ``len(lattice_mods)``
        followed by a trailing block of length ``carried.rank``.  Every
        kernel, preimage, intersection and restriction is such a question,
        answered by one Hermite form: the bottom-right block of the
        lower-triangular basis of span(cols) + diag(lattice_mods,
        carried.moduli) spans its intersection with 0 x Z^carried.rank, in
        canonical form.
        """
        r = len(lattice_mods)
        h = hnf_kernel(tuple(lattice_mods) + carried.moduli, cols)
        return cls(carried, tuple(row[r:] for row in h[r:]))

    @classmethod
    def trivial(cls, group):
        """Basis diag(moduli): the relation lattice itself."""
        r = group.rank
        return cls(group, tuple(tuple(d * (i == j) for j in range(r)) for i, d in enumerate(group.moduli)))

    @classmethod
    def full(cls, group):
        """Basis the identity: all of Z^r."""
        r = group.rank
        return cls(group, tuple(tuple(int(i == j) for j in range(r)) for i in range(r)))

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.group, self.basis))

    def __repr__(self):
        return f"Subgroup(order={self.order}, of={list(self.group.moduli)})"

    # -- queries ------------------------------------------------------------

    @property
    def index(self):
        return math.prod(self.basis[i][i] for i in range(self.group.rank))

    @property
    def order(self):
        if self._order is None:
            self._order = self.group.order // self.index
        return self._order

    @property
    def is_trivial(self):
        return self.order == 1

    # box_reduce reduces each entry modulo its modulus first, so vec is only
    # checked for length, not reduced
    def contains(self, vec):
        return not any(box_reduce(self.group.moduli, self.basis, self.group._check_length(vec)))

    def coset_reduce(self, vec):
        """Canonical representative of vec + self."""
        return box_reduce(self.group.moduli, self.basis, self.group._check_length(vec))

    def leq(self, other):
        _check_same_ambient(self.group, other.group)
        return all(other.contains(col) for col in self.gen_columns())

    def gen_columns(self):
        """Canonical generators: the basis columns, already reduced, without
        the relation-only columns d_j e_j.  Computed once; each call returns
        a fresh list that the caller may extend."""
        if self._cols is None:
            b, mods = self.basis, self.group.moduli
            self._cols = tuple(col for j, col in enumerate(zip(*b)) if b[j][j] != mods[j])
        return list(self._cols)

    def elements(self):
        """Iterate all elements (order-many, no duplicates)."""
        g = self.group
        r = g.rank
        ranges = [range(g.moduli[j] // self.basis[j][j]) for j in range(r)]
        cols = [tuple(self.basis[i][j] for i in range(r)) for j in range(r)]
        for coeffs in _iproduct(*ranges):
            v = [0] * r
            for x, col in zip(coeffs, cols):
                if x:
                    for i in range(r):
                        v[i] += x * col[i]
            yield g.reduce(v)

    # -- lattice operations ---------------------------------------------------

    def __or__(self, other):
        return subgroup_sum(self, other)

    def __and__(self, other):
        return subgroup_intersect(self, other)


def subgroup_from_generators(group, gens) -> Subgroup:
    return Subgroup.from_generators(group, gens)


def subgroup_sum(h1: Subgroup, h2: Subgroup) -> Subgroup:
    _check_same_ambient(h1.group, h2.group)
    cols1, cols2 = h1.gen_columns(), h2.gen_columns()
    if not cols2 or h1.basis == h2.basis:
        return h1
    if not cols1:
        return h2
    return Subgroup._span(h1.group, cols1 + cols2)


def subgroup_intersect(h1: Subgroup, h2: Subgroup) -> Subgroup:
    _check_same_ambient(h1.group, h2.group)
    g = h1.group
    cols = [col + col for col in h1.gen_columns()]
    cols += [g.neg(col) + g.zero for col in h2.gen_columns()]
    return Subgroup.pushforward(g, g.moduli, cols)


class Homomorphism:
    """Group homomorphism given by an integer matrix on coordinates.

    Column j is the image of the j-th coordinate generator of the source;
    well-definedness (order of each generator kills its image) is validated
    on construction.
    """

    __slots__ = ("source", "target", "matrix", "lift_matrix")

    def __init__(self, source, target, matrix, lift_matrix=None, *, _trusted=False):
        self.source = source
        self.target = target
        self.matrix = tuple([tuple([int(x) % m for x in row]) for row, m in zip(matrix, target.moduli)])
        self.lift_matrix = lift_matrix
        if len(self.matrix) != target.rank or any(len(r) != source.rank for r in self.matrix):
            raise InvalidInput("homomorphism matrix has wrong shape")
        if not _trusted:
            for j, d in enumerate(source.moduli):
                img = tuple(d * row[j] for row in self.matrix)
                if any(x % m for x, m in zip(img, target.moduli)):
                    raise InvalidInput("matrix does not define a homomorphism")

    @classmethod
    def identity(cls, group):
        eye = tuple(tuple(int(i == j) for j in range(group.rank)) for i in range(group.rank))
        return cls(group, group, eye, _trusted=True)

    @classmethod
    def zero(cls, source, target):
        z = tuple((0,) * source.rank for _ in range(target.rank))
        return cls(source, target, z, _trusted=True)

    def __call__(self, vec):
        vec = self.source.reduce(vec)
        return self.target.reduce([sum(map(mul, row, vec)) for row in self.matrix])

    def __eq__(self, other):
        return (
            isinstance(other, Homomorphism)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return f"Homomorphism({list(self.source.moduli)} -> {list(self.target.moduli)})"

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise AmbientMismatch("composition mismatch")
        rows = []
        for row in self.matrix:
            new = []
            for j in range(other.source.rank):
                s = 0
                for k in range(other.target.rank):
                    s += row[k] * other.matrix[k][j]
                new.append(s)
            rows.append(new)
        return Homomorphism(other.source, self.target, rows, _trusted=True)

    def add(self, other):
        if other.source != self.source or other.target != self.target:
            raise AmbientMismatch("sum mismatch")
        rows = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.matrix, other.matrix)
        ]
        return Homomorphism(self.source, self.target, rows, _trusted=True)

    def lift(self, vec):
        """A preimage representative (only for maps built with a section,
        e.g. quotient projections)."""
        if self.lift_matrix is None:
            raise InvalidInput("this homomorphism carries no section")
        vec = self.target.reduce(vec)
        return self.source.reduce([sum(map(mul, row, vec)) for row in self.lift_matrix])


class Coset:
    """A coset rep + H with the representative in canonical form."""

    __slots__ = ("subgroup", "rep")

    def __init__(self, rep, subgroup):
        self.subgroup = subgroup
        self.rep = subgroup.coset_reduce(rep)

    def __eq__(self, other):
        return (
            isinstance(other, Coset)
            and self.subgroup == other.subgroup
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.subgroup, self.rep))

    def __repr__(self):
        return f"Coset({self.rep} + subgroup of order {self.subgroup.order})"

    def __contains__(self, vec):
        return self.subgroup.contains(self.subgroup.group.sub(vec, self.rep))


def quotient(group: AbelianGroup, f: Subgroup):
    """Quotient group in canonical form plus the projection homomorphism.

    The projection carries a section (coset representatives) used by callers
    that need to lift quotient elements back to the group.
    """
    _check_same_ambient(group, f.group)
    r = group.rank
    diag, u, uinv = smith_normal_form([list(row) for row in f.basis])
    kept = [i for i in range(r) if diag[i] != 1]
    q = FinAbGroup([diag[i] for i in kept])
    proj_rows = [u[i] for i in kept]
    lift_rows = [[uinv[i][j] for j in kept] for i in range(r)]
    proj = Homomorphism(group, q, proj_rows, lift_matrix=lift_rows, _trusted=True)
    return q, proj


def subgroup_isomorphism(h: Subgroup):
    """Abstract structure of a subgroup.

    Returns ``(q, to_q, from_q)`` where ``q`` is the canonical group
    isomorphic to ``h`` and the two callables convert between ambient
    coordinates of members of ``h`` and coordinates in ``q``.
    """
    g = h.group
    r = g.rank
    basis = h.basis

    def solve_lower(target):
        w = list(target)
        x = [0] * r
        for i in range(r):
            qq, rem = divmod(w[i], basis[i][i])
            if rem:
                raise InvalidInput("vector not in subgroup")
            x[i] = qq
            if qq:
                for k in range(i + 1, r):
                    w[k] -= qq * basis[k][i]
        return x

    relmat = [[0] * r for _ in range(r)]
    for j in range(r):
        col = solve_lower([g.moduli[i] if i == j else 0 for i in range(r)])
        for i in range(r):
            relmat[i][j] = col[i]
    diag, u, uinv = smith_normal_form(relmat)
    kept = [i for i in range(r) if diag[i] != 1]
    q = FinAbGroup([diag[i] for i in kept])

    def to_q(vec):
        x = solve_lower(g.reduce(vec))
        return q.reduce([sum(u[i][k] * x[k] for k in range(r)) for i in kept])

    def from_q(zvec):
        zfull = [0] * r
        for idx, i in enumerate(kept):
            zfull[i] = zvec[idx]
        y = [sum(uinv[i][k] * zfull[k] for k in range(r)) for i in range(r)]
        return g.reduce([sum(basis[i][k] * y[k] for k in range(r)) for i in range(r)])

    return q, to_q, from_q
