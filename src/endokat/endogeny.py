"""Additive relations with negligible blur, and their calculus.

An endogeny from A to B is a subgroup of A x B that projects onto all of A
and whose fiber over 0 (the katakernel) is negligible.  "Negligible" is a
configurable bound: a distinguished subgroup ``n_max`` of the target such
that exactly the subgroups of ``n_max`` count as small.  With ``n_max = 0``
endogenies are ordinary homomorphisms; larger bounds admit genuinely blurred
relations.

Values of an endogeny are cosets of the katakernel K.  An endogeny stores
only (K, V) and its product group, V the value columns (V e_j a
representative of the value at the j-th generator, reduced into the box of
K).  Its canonical graph basis [[I, 0], [V, K.basis]] is written down,
without a Hermite form, when something reads ``graph`` (JSON output, the
oracle).  :meth:`Endogeny.from_values` checks that V is well defined modulo
K; :meth:`Endogeny.from_pairs` reads (K, V) off one Hermite form of the
pairs.  Every operation, restriction included, computes on (K, V), and each
image is kept on its endogeny.  The failure of left distributivity, the
sharp-commutation calculus, weak/full invariance, restriction, and the
global katakernel of a generated prering all live here.  The global
katakernel is a fixpoint over the generators, so no prering closure is
enumerated; the tests enumerate one as its reference.
"""

from __future__ import annotations

from ._kernel import box_reduce
from .errors import (
    AmbientMismatch,
    InvalidInput,
    KatakernelBound,
    NotGlobal,
    NotSharplyCommuting,
    NotWeaklyInvariant,
)
from .groups import (
    AbelianGroup,
    Coset,
    Homomorphism,
    Subgroup,
    product_group,
    quotient,
    subgroup_isomorphism,
)


class NegligibilityBound:
    """Declares which subgroups of a group count as negligible."""

    __slots__ = ("group", "n_max")

    def __init__(self, group: AbelianGroup, n_max: Subgroup):
        if n_max.group != group:
            raise AmbientMismatch("bound subgroup lives in a different group")
        self.group = group
        self.n_max = n_max

    @classmethod
    def zero(cls, group):
        return cls(group, Subgroup.trivial(group))

    def is_negligible(self, h: Subgroup) -> bool:
        return h.leq(self.n_max)

    def __eq__(self, other):
        return (
            isinstance(other, NegligibilityBound)
            and self.group == other.group
            and self.n_max == other.n_max
        )

    def __hash__(self):
        return hash((self.group, self.n_max))

    def __repr__(self):
        return f"NegligibilityBound(order={self.n_max.order} of {list(self.group.moduli)})"


class Endogeny:
    """A validated additive relation with full first projection, held as its
    katakernel K, its value columns V (each box-reduced modulo K) and its
    product group.

    Build one with :meth:`from_pairs` (generating pairs), :meth:`from_values`
    ((K, V)) or the fixture constructors; each validates what it builds.  The
    raw constructor trusts its input: V well defined modulo K and reduced
    into K's box, and K within the bound.
    """

    __slots__ = ("source", "target", "prod", "bound", "_kat", "_vals", "_graph", "_im", "_ker", "_images")

    def __init__(self, source, kat: Subgroup, vals, bound: NegligibilityBound, prod):
        self.source = source
        self.target = kat.group
        self.prod = prod
        self.bound = bound
        self._kat = kat
        self._vals = vals
        self._graph = None
        self._im = None
        self._ker = None
        self._images = {}

    def _validate(self):
        """This relation, once checked to have a negligible katakernel."""
        if self.bound.group != self.target:
            raise AmbientMismatch("bound must live on the target group")
        if not self.bound.is_negligible(self._kat):
            raise KatakernelBound(f"katakernel of order {self._kat.order} exceeds the bound")
        return self

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, source, target, pairs, bound):
        """The relation generated by ``pairs``, validated, from one Hermite
        form of its graph: it is global when the top block has unit pivots."""
        prod = product_group(source, target)
        gens = [source.reduce(a) + target.reduce(b) for a, b in pairs]
        basis = Subgroup._span(prod, gens).basis
        if any(basis[i][i] != 1 for i in range(source.rank)):
            raise NotGlobal("first projection of the graph is a proper subgroup")
        return cls._from_basis(source, target, basis, bound, prod)._validate()

    @classmethod
    def _from_basis(cls, source, target, basis, bound, prod):
        """The global relation whose graph in ``prod`` has the Hermite basis
        [[I, 0], [V, K.basis]], unvalidated: K and V read off it."""
        r1 = source.rank
        kat = Subgroup(target, tuple(row[r1:] for row in basis[r1:]))
        return cls(source, kat, tuple(tuple(row[j] for row in basis[r1:]) for j in range(r1)), bound, prod)

    @classmethod
    def from_values(cls, source, kat: Subgroup, vals, bound):
        """The endogeny with katakernel ``kat`` whose value at the j-th
        generator of ``source`` is vals[j] + kat, validated.

        The values are well defined when d_j vals[j] lies in ``kat`` for
        every cyclic order d_j of the source; otherwise the fibre over 0 is
        larger than ``kat``.  Its graph is the Hermite basis that
        :meth:`from_pairs` computes from the pairs (e_j, vals[j]) and
        (0, k), k in ``kat``, written down without a kernel call."""
        tgt = kat.group
        if len(vals) != source.rank:
            raise InvalidInput(f"{len(vals)} values for a source of rank {source.rank}")
        for d, v in zip(source.moduli, vals):
            # contains rejects a value of the wrong length
            if not kat.contains([d * x for x in v]):
                raise InvalidInput(f"value {tuple(v)} at a generator of order {d} is not well defined modulo the katakernel")
        return cls._from_values(source, kat, vals, bound, product_group(source, tgt))._validate()

    @classmethod
    def _from_values(cls, source, kat: Subgroup, vals, bound, prod):
        """The endogeny with katakernel ``kat`` whose value at the j-th
        generator of ``source`` is vals[j] + kat, with graph in ``prod``,
        unvalidated.  Each column is box-reduced modulo ``kat``."""
        mods, kb = kat.group.moduli, kat.basis
        return cls(source, kat, tuple(box_reduce(mods, kb, v) for v in vals), bound, prod)

    @classmethod
    def from_morphism(cls, hom: Homomorphism, bound=None):
        src, tgt = hom.source, hom.target
        bound = bound or NegligibilityBound.zero(tgt)
        vals = [tuple(row[j] for row in hom.matrix) for j in range(src.rank)]
        triv, prod = Subgroup.trivial(tgt), product_group(src, tgt)
        return cls._from_values(src, triv, vals, bound, prod)._validate()

    @classmethod
    def identity(cls, group, bound=None):
        return cls.from_morphism(Homomorphism.identity(group), bound)

    @classmethod
    def zero(cls, group, bound=None):
        bound = bound or NegligibilityBound.zero(group)
        return cls.from_morphism(Homomorphism.zero(group, group), bound)

    @property
    def graph(self) -> Subgroup:
        """The graph in the product group, written when first read.  Its
        basis is the block matrix [[I, 0], [V, K.basis]]: each column of V is
        reduced into the box of K, so the matrix is lower triangular with
        every entry left of a pivot in [0, pivot), the canonical Hermite
        basis."""
        if self._graph is None:
            r1, r2, kb = self.source.rank, self.target.rank, self._kat.basis
            top = tuple(tuple(int(i == j) for j in range(r1)) + (0,) * r2 for i in range(r1))
            bottom = tuple(tuple(v[i] for v in self._vals) + tuple(kb[i]) for i in range(r2))
            self._graph = Subgroup(self.prod, top + bottom)
        return self._graph

    # -- value semantics ------------------------------------------------------

    def _key(self):
        # (K, V) is the graph's canonical basis
        return (self.source, self.target, self.kat(), self._values(), self.bound)

    def __eq__(self, other):
        return isinstance(other, Endogeny) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Endogeny({list(self.source.moduli)} -> {list(self.target.moduli)}, "
            f"kat order {self.kat().order})"
        )

    # -- structure ------------------------------------------------------------

    def kat(self) -> Subgroup:
        """Fiber over 0: the blur of the relation."""
        return self._kat

    def _values(self):
        """V: the value columns, the bottom-left block of the graph basis."""
        return self._vals

    def _rep(self, a):
        """V a, unreduced: a representative of the value at ``a``.  Most
        entries of ``a`` are zero (basis columns), so only the columns of V
        at nonzero entries are added."""
        out = [0] * self.target.rank
        for x, v in zip(a, self._values()):
            if x:
                for i, y in enumerate(v):
                    out[i] += x * y
        return out

    def im(self) -> Subgroup:
        if self._im is None:
            cols = list(self._values()) + self.kat().gen_columns()
            self._im = Subgroup._span(self.target, cols)
        return self._im

    def ker(self) -> Subgroup:
        """Inverse image of the katakernel."""
        if self._ker is None:
            self._ker = self.preimage(self.kat())
        return self._ker

    # -- evaluation -----------------------------------------------------------

    def apply(self, a) -> Coset:
        """Value at a group element: a coset of the katakernel."""
        b = self._rep(self.source.reduce(a))
        return Coset(self.target.reduce(b), self.kat())

    def apply_set(self, s: Subgroup) -> Subgroup:
        """Image of a subgroup of the source: V S + K.  Each image is kept,
        keyed by the subgroup's basis, so an equal subgroup finds it."""
        if s.group != self.source:
            raise AmbientMismatch("subgroup not in the source group")
        img = self._images.get(s.basis)
        if img is None:
            cols = [self._rep(col) for col in s.gen_columns()]
            if cols:
                img = Subgroup._span(self.target, cols + self.kat().gen_columns())
            else:
                img = self.kat()
            self._images[s.basis] = img
        return img

    def preimage(self, s: Subgroup) -> Subgroup:
        """Inverse image of a subgroup of the target: the a with V a in
        S + K, one Hermite form of the columns (v_j, e_j), (k, 0) and (s, 0)."""
        if s.group != self.target:
            raise AmbientMismatch("subgroup not in the target group")
        src, kat = self.source, self.kat()
        cols = [tuple(v) + e for v, e in zip(self._values(), src.generators())]
        cols += [col + src.zero for col in kat.gen_columns()]
        if s.basis != kat.basis:
            cols += [col + src.zero for col in s.gen_columns()]
        return Subgroup.pushforward(src, self.target.moduli, cols)


def _check_parallel(g1: Endogeny, g2: Endogeny):
    if g1.source != g2.source or g1.target != g2.target:
        raise AmbientMismatch("endogenies have different source/target")
    if g1.bound != g2.bound:
        raise AmbientMismatch("endogenies carry different negligibility bounds")


def endo_add(g1: Endogeny, g2: Endogeny, *, unchecked=False) -> Endogeny:
    """Pointwise sum: value at a is the sumset of the two values, so
    (K1 + K2, V1 + V2)."""
    _check_parallel(g1, g2)
    kat = g1.kat() | g2.kat()
    if not unchecked and not g1.bound.is_negligible(kat):
        raise KatakernelBound("katakernel of the sum exceeds the bound")
    vals = [[x + y for x, y in zip(v1, v2)] for v1, v2 in zip(g1._values(), g2._values())]
    return Endogeny._from_values(g1.source, kat, vals, g1.bound, g1.prod)


def endo_neg(g: Endogeny) -> Endogeny:
    vals = [[-x for x in v] for v in g._values()]
    return Endogeny._from_values(g.source, g.kat(), vals, g.bound, g.prod)


def endo_compose(g1: Endogeny, g2: Endogeny, *, unchecked=False) -> Endogeny:
    """Relational composite g1 after g2: the value at a is
    g1(V2 a + K2) = V1 V2 a + g1[K2], so (g1[K2], V1 V2)."""
    if g2.target != g1.source:
        raise AmbientMismatch("inner target differs from outer source")
    src, tgt = g2.source, g1.target
    kat = g1.apply_set(g2.kat())
    if not unchecked and not g1.bound.is_negligible(kat):
        raise KatakernelBound("katakernel of the composite exceeds the bound")
    vals = [g1._rep(v) for v in g2._values()]
    mods = src.moduli + tgt.moduli
    prod = next((e.prod for e in (g1, g2) if e.prod.moduli == mods), None)
    return Endogeny._from_values(src, kat, vals, g1.bound, prod or product_group(src, tgt))


def equivalent(g1: Endogeny, g2: Endogeny) -> bool:
    """Equality after blurring by F = kat(g1) + kat(g2).

    That particular F is the minimal witness, so a single comparison decides
    equivalence; both katakernels are negligible, hence so is F.  Blurred by
    F, each relation is (F, V mod F), so they agree exactly when V1 - V2 has
    every column in F.
    """
    _check_parallel(g1, g2)
    f = g1.kat() | g2.kat()
    return all(
        f.contains([x - y for x, y in zip(v1, v2)])
        for v1, v2 in zip(g1._values(), g2._values())
    )


def preceq(g1: Endogeny, g2: Endogeny) -> bool:
    """Graph containment up to the minimal blur, g1 <= g2 + {0} x F with
    F = kat g1 + kat g2; for global relations this is :func:`equivalent`.
    The fiber of g2 + {0} x F over e_j is V2 e_j + F, so it holds the pair
    (e_j, V1 e_j) of g1 only if V1 = V2 mod F; conversely then every pair
    (a, V1 a + k), k in K1 <= F, lies in (a, V2 a + F)."""
    return equivalent(g1, g2)


def sharp_commutes(g: Endogeny, d: Endogeny) -> bool:
    """im(gd - dg) <= kat g + kat d; the workable middle ground between
    commutation as relations and commutation modulo equivalence.

    gd - dg is (Vg Kd + Kg + Vd Kg + Kd, Vg Vd - Vd Vg), so with
    F = Kg + Kd the test is that F contains Vg Kd, Vd Kg and every column
    of Vg Vd - Vd Vg; one Hermite form (for F), the rest box reductions."""
    _check_parallel(g, d)
    if g.source != g.target:
        raise AmbientMismatch("inner target differs from outer source")
    kg, kd = g.kat(), d.kat()
    f = kg | kd
    cols = [g._rep(c) for c in kd.gen_columns()]
    cols += [d._rep(c) for c in kg.gen_columns()]
    cols += [
        [x - y for x, y in zip(g._rep(vd), d._rep(vg))]
        for vg, vd in zip(g._values(), d._values())
    ]
    return all(f.contains(c) for c in cols)


def weakly_invariant(b: Subgroup, g: Endogeny) -> bool:
    return g.apply_set(b).leq(b | g.kat())


def fully_invariant(b: Subgroup, g: Endogeny) -> bool:
    return g.apply_set(b).leq(b)


def restrict(g: Endogeny, b: Subgroup) -> Endogeny:
    """Restriction-corestriction to a weakly invariant subgroup.

    The result is an endogeny of the abstract group Bq isomorphic to ``b``
    (coordinates via :func:`subgroup_isomorphism`), with the bound cut down
    to ``n_max`` intersected with ``b``.  Its graph, the (x, y) in Bq x Bq
    with y in V x + K, is one Hermite form of the columns (-V e_i; e_i, 0)
    and (e_i; 0, e_i), e_i in Bq, and (k; 0, 0), k in K; weak invariance
    makes it global.
    """
    if g.source != g.target:
        raise InvalidInput("restriction needs an endogeny of a single group")
    if b.group != g.source:
        raise AmbientMismatch("subgroup not in the ambient group")
    if not weakly_invariant(b, g):
        raise NotWeaklyInvariant("subgroup is not weakly invariant")
    bq, to_b, from_b = subgroup_isomorphism(b)
    prod, zero = product_group(bq, bq), bq.zero
    cols = []
    for e in bq.generators():
        x = from_b(e)
        cols.append(tuple(-y for y in g._rep(x)) + e + zero)
        cols.append(x + zero + e)
    cols += [k + zero + zero for k in g.kat().gen_columns()]
    basis = Subgroup.pushforward(prod, g.source.moduli, cols).basis
    nb = Subgroup.from_generators(bq, [to_b(c) for c in (g.bound.n_max & b).gen_columns()])
    return Endogeny._from_basis(bq, bq, basis, NegligibilityBound(bq, nb), prod)


class EndogenySet:
    """A finite family of endogenies of one group under one bound; the
    generating data for prerings.  The katakernel fixpoint of
    :func:`global_kat` is computed once, when first asked, and the set
    remembers the last partner set its members were checked to commute
    sharply with (:func:`_check_cross_sharp`), holding the partner so that
    its identity is not reused."""

    __slots__ = ("ambient", "bound", "elements", "_kat", "_sharp_with")

    def __init__(self, ambient, bound, elements):
        self.ambient = ambient
        self.bound = bound
        self.elements = tuple(elements)
        self._kat = None
        self._sharp_with = None
        for e in self.elements:
            if e.source != ambient or e.target != ambient:
                raise AmbientMismatch("member is not an endogeny of the ambient group")
            if e.bound != bound:
                raise AmbientMismatch("member carries a different bound")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"EndogenySet({len(self.elements)} on {list(self.ambient.moduli)})"


def orbit_closure(b: Subgroup, endos) -> Subgroup:
    """The least subgroup containing ``b`` and stable under the image map of
    every endogeny in ``endos``."""
    while True:
        nxt = b
        for e in endos:
            nxt = nxt | e.apply_set(b)
        if nxt == b:
            return b
        b = nxt


def global_kat(gens: EndogenySet) -> Subgroup:
    """Katakernel of the prering generated by ``gens``: the least subgroup
    containing every generator's katakernel and stable under every
    generator's image map.  The fixpoint is justified by the katakernel
    identities for sums and composites, so the closure itself is never
    enumerated.  The fixpoint is kept on ``gens``; the bound is checked on
    every call."""
    k = gens._kat
    if k is None:
        k = Subgroup.trivial(gens.ambient)
        for g in gens:
            k = k | g.kat()
        k = gens._kat = orbit_closure(k, gens)
    if not gens.bound.is_negligible(k):
        raise KatakernelBound("global katakernel exceeds the bound")
    return k


def _check_cross_sharp(gamma: EndogenySet, delta: EndogenySet):
    """Every pair of ``gamma`` x ``delta`` commutes sharply, checked once per
    pair of sets: both are immutable, so the verdict is kept on ``gamma``."""
    if gamma._sharp_with is delta:
        return
    if gamma.ambient != delta.ambient or gamma.bound != delta.bound:
        raise AmbientMismatch("the two sets live on different data")
    for g in gamma:
        for d in delta:
            if not sharp_commutes(g, d):
                raise NotSharplyCommuting("generators fail pairwise sharp commutation")
    gamma._sharp_with = delta


def bikat(gamma: EndogenySet, delta: EndogenySet) -> Subgroup:
    """Joint katakernel Kat(gamma) + Kat(delta) of two sharply commuting
    generated prerings."""
    _check_cross_sharp(gamma, delta)
    return global_kat(gamma) | global_kat(delta)


def induced_action(gamma: EndogenySet, delta: EndogenySet):
    """Quotient by the joint katakernel and the induced honest endomorphisms.

    Returns ``(q, proj, gamma_homs, delta_homs)``; every induced map has
    trivial blur on the quotient (single-valuedness is exactly the full
    invariance of the joint katakernel) and the two families commute
    elementwise.
    """
    k = bikat(gamma, delta)
    amb = gamma.ambient
    q, proj = quotient(amb, k)
    out = []
    for fam in (gamma, delta):
        homs = []
        for g in fam:
            if not g.apply_set(k).leq(k):
                raise KatakernelBound("joint katakernel is not fully invariant")
            rows = [[0] * q.rank for _ in range(q.rank)]
            for j in range(q.rank):
                e = tuple(int(i == j) for i in range(q.rank))
                a = proj.lift(e)
                b = g.apply(a).rep
                img = proj(b)
                for i in range(q.rank):
                    rows[i][j] = img[i]
            homs.append(Homomorphism(q, q, rows))
        out.append(homs)
    ghoms, dhoms = out
    for h1 in ghoms:
        for h2 in dhoms:
            if h1.compose(h2) != h2.compose(h1):
                raise NotSharplyCommuting("induced endomorphisms fail to commute")
    return q, proj, ghoms, dhoms
