"""Additive relations with negligible blur, and their calculus.

An endogeny from A to B is a subgroup of A x B that projects onto all of A
and whose fiber over 0 (the katakernel) is negligible.  "Negligible" is a
configurable bound: a distinguished subgroup ``n_max`` of the target such
that exactly the subgroups of ``n_max`` count as small.  With ``n_max = 0``
endogenies are ordinary homomorphisms; larger bounds admit genuinely blurred
relations.

Values of an endogeny are cosets of the katakernel; sums and composites are
computed on the graphs by exact lattice arithmetic.  The failure of left
distributivity, the sharp-commutation calculus, weak/full invariance,
restriction, and the global katakernel of a generated closure all live here.
"""

from __future__ import annotations

from . import config
from .errors import (
    AmbientMismatch,
    CapExceeded,
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

    @classmethod
    def everything(cls, group):
        return cls(group, Subgroup.full(group))

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


def _cross_right(src: AbelianGroup, tgt: AbelianGroup, f: Subgroup) -> Subgroup:
    """{0} x F inside the product group: the block-diagonal basis
    diag(src.moduli) (+) F.basis, already canonical."""
    top = tuple(row + (0,) * tgt.rank for row in Subgroup.trivial(src).basis)
    bottom = tuple((0,) * src.rank + tuple(row) for row in f.basis)
    return Subgroup(product_group(src, tgt), top + bottom)


class Endogeny:
    """A validated additive relation with full first projection.

    Use :func:`endogeny_validate` (or the fixture constructors) to build one;
    the raw constructor only re-derives the cached katakernel.
    """

    __slots__ = ("source", "target", "graph", "bound", "_kat", "_im", "_ker")

    def __init__(self, source, target, graph: Subgroup, bound: NegligibilityBound, *, _checked=False):
        self.source = source
        self.target = target
        self.graph = graph
        self.bound = bound
        self._kat = None
        self._im = None
        self._ker = None
        if not _checked:
            if bound.group != target:
                raise AmbientMismatch("bound must live on the target group")
            if not self.is_global():
                raise NotGlobal("first projection of the graph is a proper subgroup")
            if not bound.is_negligible(self.kat()):
                raise KatakernelBound(
                    f"katakernel of order {self.kat().order} exceeds the bound"
                )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, source, target, pairs, bound):
        prod = product_group(source, target)
        gens = [source.reduce(a) + target.reduce(b) for a, b in pairs]
        graph = Subgroup._span(prod, gens)
        return cls(source, target, graph, bound)

    @classmethod
    def from_morphism(cls, hom: Homomorphism, bound=None):
        src, tgt = hom.source, hom.target
        bound = bound or NegligibilityBound.zero(tgt)
        pairs = [(e, hom(e)) for e in src.generators()]
        return cls.from_pairs(src, tgt, pairs, bound)

    @classmethod
    def identity(cls, group, bound=None):
        return cls.from_morphism(Homomorphism.identity(group), bound)

    @classmethod
    def zero(cls, group, bound=None):
        bound = bound or NegligibilityBound.zero(group)
        return cls.from_morphism(Homomorphism.zero(group, group), bound)

    @classmethod
    def blur(cls, f: Subgroup, bound):
        """The relation sending every element of the group to the coset F:
        as a set of pairs this is A x F."""
        g = f.group
        pairs = [(e, g.zero) for e in g.generators()]
        pairs += [(g.zero, col) for col in f.gen_columns()]
        return cls.from_pairs(g, g, pairs, bound)

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Endogeny)
            and self.source == other.source
            and self.target == other.target
            and self.graph == other.graph
            and self.bound == other.bound
        )

    def __hash__(self):
        return hash((self.source, self.target, self.graph, self.bound))

    def __repr__(self):
        return (
            f"Endogeny({list(self.source.moduli)} -> {list(self.target.moduli)}, "
            f"kat order {self.kat().order})"
        )

    # -- structure ------------------------------------------------------------

    def is_global(self):
        r1 = self.source.rank
        b = self.graph.basis
        return all(
            b[i][j] == (1 if i == j else 0) for i in range(r1) for j in range(r1)
        )

    def kat(self) -> Subgroup:
        """Fiber over 0: the blur of the relation."""
        if self._kat is None:
            r1, r2 = self.source.rank, self.target.rank
            block = tuple(
                tuple(self.graph.basis[r1 + i][r1 + j] for j in range(r2))
                for i in range(r2)
            )
            self._kat = Subgroup(self.target, block)
        return self._kat

    def im(self) -> Subgroup:
        if self._im is None:
            r1, r2 = self.source.rank, self.target.rank
            cols = [
                tuple(self.graph.basis[r1 + i][j] for i in range(r2))
                for j in range(r1 + r2)
            ]
            self._im = Subgroup._span(self.target, cols)
        return self._im

    def ker(self) -> Subgroup:
        """Inverse image of the katakernel."""
        if self._ker is None:
            self._ker = self.preimage(self.kat())
        return self._ker

    def is_morphism(self):
        return self.kat().is_trivial

    # -- evaluation -----------------------------------------------------------

    def apply(self, a) -> Coset:
        """Value at a group element: a coset of the katakernel."""
        a = self.source.reduce(a)
        r1 = self.source.rank
        b = [0] * self.target.rank
        for i in range(self.target.rank):
            row = self.graph.basis[r1 + i]
            s = 0
            for j in range(r1):
                s += row[j] * a[j]
            b[i] = s
        return Coset(self.target.reduce(b), self.kat())

    def apply_set(self, s: Subgroup) -> Subgroup:
        """Image of a subgroup of the source."""
        if s.group != self.source:
            raise AmbientMismatch("subgroup not in the source group")
        cols = self.graph.gen_columns()
        cols += [s.group.neg(col) + self.target.zero for col in s.gen_columns()]
        return Subgroup.pushforward(self.target, self.source.moduli, cols)

    def preimage(self, s: Subgroup) -> Subgroup:
        """Inverse image of a subgroup of the target."""
        if s.group != self.target:
            raise AmbientMismatch("subgroup not in the target group")
        r1 = self.source.rank
        cols = [col[r1:] + col[:r1] for col in self.graph.gen_columns()]
        cols += [s.group.neg(col) + self.source.zero for col in s.gen_columns()]
        return Subgroup.pushforward(self.source, self.target.moduli, cols)

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return endo_add(self, other)

    def __neg__(self):
        return endo_neg(self)

    def __sub__(self, other):
        return endo_add(self, endo_neg(other))

    def compose(self, other):
        return endo_compose(self, other)


def endogeny_validate(source, target, generators, bound) -> Endogeny:
    """Build and validate an endogeny from generating pairs.

    Raises :class:`NotGlobal` when the first projection is proper and
    :class:`KatakernelBound` when the fiber over 0 escapes the bound.
    """
    return Endogeny.from_pairs(source, target, generators, bound)


def _check_parallel(g1: Endogeny, g2: Endogeny):
    if g1.source != g2.source or g1.target != g2.target:
        raise AmbientMismatch("endogenies have different source/target")
    if g1.bound != g2.bound:
        raise AmbientMismatch("endogenies carry different negligibility bounds")


def _raw_add(g1: Endogeny, g2: Endogeny) -> Subgroup:
    """Graph of the pointwise sum: pairs (a, b1 + b2) with (a, b1) in g1
    and (a, b2) in g2."""
    src = g1.source
    r1 = src.rank
    cols = [col[:r1] + col for col in g1.graph.gen_columns()]
    cols += [
        src.neg(col[:r1]) + src.zero + col[r1:]
        for col in g2.graph.gen_columns()
    ]
    return Subgroup.pushforward(g1.graph.group, src.moduli, cols)


def endo_add(g1: Endogeny, g2: Endogeny, *, unchecked=False) -> Endogeny:
    """Pointwise sum: value at a is the sumset of the two values."""
    _check_parallel(g1, g2)
    graph = _raw_add(g1, g2)
    out = Endogeny(g1.source, g1.target, graph, g1.bound, _checked=True)
    if not unchecked and not g1.bound.is_negligible(out.kat()):
        raise KatakernelBound("katakernel of the sum exceeds the bound")
    return out


def endo_neg(g: Endogeny) -> Endogeny:
    src, tgt = g.source, g.target
    r1 = src.rank
    prod = product_group(src, tgt)
    gens = []
    for j in range(r1 + tgt.rank):
        col = [g.graph.basis[i][j] for i in range(r1)]
        col += [-g.graph.basis[r1 + i][j] for i in range(tgt.rank)]
        gens.append(col)
    graph = Subgroup._span(prod, gens)
    return Endogeny(src, tgt, graph, g.bound, _checked=True)


def endo_compose(g1: Endogeny, g2: Endogeny, *, unchecked=False) -> Endogeny:
    """Relational composite g1 after g2."""
    if g2.target != g1.source:
        raise AmbientMismatch("inner target differs from outer source")
    src, mid, tgt = g2.source, g2.target, g1.target
    ra, rb = src.rank, mid.rank
    # pairs (a, c) with (a, b) in g2 and (b, c) in g1
    cols = [col[ra:] + col[:ra] + tgt.zero for col in g2.graph.gen_columns()]
    cols += [
        mid.neg(col[:rb]) + src.zero + col[rb:]
        for col in g1.graph.gen_columns()
    ]
    graph = Subgroup.pushforward(product_group(src, tgt), mid.moduli, cols)
    out = Endogeny(src, tgt, graph, g1.bound, _checked=True)
    if not unchecked and not g1.bound.is_negligible(out.kat()):
        raise KatakernelBound("katakernel of the composite exceeds the bound")
    return out


def endo_sub_raw(g1: Endogeny, g2: Endogeny) -> Endogeny:
    """Difference without the bound check (internal; the result need not be
    an endogeny of the declared bound)."""
    return endo_add(g1, endo_neg(g2), unchecked=True)


def equivalent(g1: Endogeny, g2: Endogeny) -> bool:
    """Equality after blurring by F = kat(g1) + kat(g2).

    That particular F is the minimal witness, so a single comparison decides
    equivalence; both katakernels are negligible, hence so is F.
    """
    _check_parallel(g1, g2)
    f = g1.kat() | g2.kat()
    cross = _cross_right(g1.source, g1.target, f)
    return (g1.graph | cross) == (g2.graph | cross)


def preceq(g1: Endogeny, g2: Endogeny) -> bool:
    """Preorder refining equivalence: graph containment up to the minimal
    blur.  Its symmetrization coincides with :func:`equivalent`, and
    morphisms are minimal."""
    _check_parallel(g1, g2)
    f = g1.kat() | g2.kat()
    cross = _cross_right(g1.source, g1.target, f)
    return g1.graph.leq(g2.graph | cross)


def sharp_commutes(g: Endogeny, d: Endogeny) -> bool:
    """im(gd - dg) <= kat g + kat d; the workable middle ground between
    commutation as relations and commutation modulo equivalence."""
    _check_parallel(g, d)
    gd = endo_compose(g, d, unchecked=True)
    dg = endo_compose(d, g, unchecked=True)
    sigma = endo_sub_raw(gd, dg)
    return sigma.im().leq(g.kat() | d.kat())


def weakly_invariant(b: Subgroup, g: Endogeny) -> bool:
    return g.apply_set(b).leq(b | g.kat())


def fully_invariant(b: Subgroup, g: Endogeny) -> bool:
    return g.apply_set(b).leq(b)


def restrict(g: Endogeny, b: Subgroup) -> Endogeny:
    """Restriction-corestriction to a weakly invariant subgroup.

    The result is an endogeny of the abstract group isomorphic to ``b``
    (coordinates via :func:`subgroup_isomorphism`), with the bound cut down
    to ``n_max`` intersected with ``b``.
    """
    if g.source != g.target:
        raise InvalidInput("restriction needs an endogeny of a single group")
    if b.group != g.source:
        raise AmbientMismatch("subgroup not in the ambient group")
    if not weakly_invariant(b, g):
        raise NotWeaklyInvariant("subgroup is not weakly invariant")
    amb = g.source
    r = amb.rank
    prod = g.graph.group
    bq, to_b, _ = subgroup_isomorphism(b)
    # the part of the graph inside b x b
    cols = [col + col for col in g.graph.gen_columns()]
    for col in b.gen_columns():
        neg = amb.neg(col)
        cols.append(neg + amb.zero + prod.zero)
        cols.append(amb.zero + neg + prod.zero)
    inside = Subgroup.pushforward(prod, prod.moduli, cols)
    pairs = [(to_b(vec[:r]), to_b(vec[r:])) for vec in inside.gen_columns()]
    nb = Subgroup.from_generators(bq, [to_b(c) for c in (g.bound.n_max & b).gen_columns()])
    bound_b = NegligibilityBound(bq, nb)
    return Endogeny.from_pairs(bq, bq, pairs, bound_b)


class EndogenySet:
    """A finite family of endogenies of one group under one bound; the
    generating data for prerings."""

    __slots__ = ("ambient", "bound", "elements")

    def __init__(self, ambient, bound, elements):
        self.ambient = ambient
        self.bound = bound
        self.elements = tuple(elements)
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


def prering_closure(gens: EndogenySet) -> EndogenySet:
    """Closure of the generators (plus 0, 1, -1) under sum, negation, and
    composition.  Raises :class:`CapExceeded` past ``config.CLOSURE_CAP``
    elements and propagates :class:`KatakernelBound` if the closure escapes
    the bound."""
    cap = config.CLOSURE_CAP
    amb, bound = gens.ambient, gens.bound
    seed = [
        Endogeny.zero(amb, bound),
        Endogeny.identity(amb, bound),
        endo_neg(Endogeny.identity(amb, bound)),
    ]
    seen = {}
    for e in list(seed) + list(gens.elements):
        seen.setdefault(e.graph.basis, e)
    frontier = list(seen.values())
    members = dict(seen)
    while frontier:
        fresh = []

        def push(e):
            if e.graph.basis not in members:
                if len(members) >= cap:
                    raise CapExceeded(f"prering closure exceeded {cap} elements")
                members[e.graph.basis] = e
                fresh.append(e)

        for e in frontier:
            push(endo_neg(e))
        current = list(members.values())
        for e in frontier:
            for f in current:
                push(endo_add(e, f))
                push(endo_compose(e, f))
                push(endo_compose(f, e))
        frontier = fresh
    return EndogenySet(amb, bound, members.values())


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
    enumerated."""
    k = Subgroup.trivial(gens.ambient)
    for g in gens:
        k = k | g.kat()
    k = orbit_closure(k, gens)
    if not gens.bound.is_negligible(k):
        raise KatakernelBound("global katakernel exceeds the bound")
    return k


def _check_cross_sharp(gamma: EndogenySet, delta: EndogenySet):
    if gamma.ambient != delta.ambient or gamma.bound != delta.bound:
        raise AmbientMismatch("the two sets live on different data")
    for g in gamma:
        for d in delta:
            if not sharp_commutes(g, d):
                raise NotSharplyCommuting("generators fail pairwise sharp commutation")


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
