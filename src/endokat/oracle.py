"""Element-enumeration reference implementations.

Everything here works on explicit element sets, independent of the
lattice-based core; agreement between the two routes is what the
cross-validation suites assert.  All inputs are guarded by a hard cap.
This module holds what the audits call; the exhaustive searches the tests
compare against (every subgroup, homomorphism or endogeny of a small group)
live with the tests, in ``tests/oracle_enumeration.py``.

Elements are packed ints (see :class:`_Packing`): one int per element, all
coordinates added at once.  A relation is kept as its fibres: a dict from
each packed a to the nonempty frozenset of packed b with (a, b) in it.  No
empty fibre is stored, so two relations are equal exactly when their pair
sets are.  Element-set results compare with a core subgroup through
:func:`subgroup_set`.

Every relation the ``endog_*`` functions take must be a subgroup of G x H,
as :func:`graph_set` and those functions' own results are.  Its fibre over
a is then one coset b + K of its katakernel K, and two cosets of one
subgroup are equal or disjoint, so the joins add each shifted fibre once,
in one :meth:`_Packing.translate`, instead of element by element; each
result is still the literal join's set.

:func:`graph_set` walks the domain once, one coset at a time, and the
fibres over one coset of the relation's kernel are one shared frozenset,
built by a single ``translate`` of the katakernel.  A join's fibre over a
depends only on its input fibres over a, so each join computes every
distinct fibre (pair) once per call.  The sharing is a memo of equal sets:
no result depends on object identity.
"""

from __future__ import annotations

import functools

from . import config
from .errors import CapExceeded
from .groups import AbelianGroup, Subgroup


def _guard(group):
    if group.order > config.ORACLE_CAP:
        raise CapExceeded(f"group order {group.order} above the oracle cap ORACLE_CAP = {config.ORACLE_CAP}")


# Field width: a guarded group has order, hence every modulus, at most
# ORACLE_CAP <= 2**WIDTH.  Each coordinate gets WIDTH + 1 bits, the top one a
# guard bit, and every group the oracle packs uses the same width, so the
# packing of G x H is the packing of G followed by the packing of H.
WIDTH = (config.ORACLE_CAP - 1).bit_length()


class _Packing:
    """Group elements as single ints: coordinate i is a field of WIDTH + 1
    bits, coordinate 0 in the highest field.  Fields are independent digits,
    so int order is lexicographic tuple order."""

    __slots__ = ("moduli", "shifts", "C", "HIGH", "D")

    def __init__(self, moduli):
        w = WIDTH
        for d in moduli:
            if d > 1 << w:
                raise CapExceeded(
                    f"modulus {d} above 2**WIDTH = {1 << w} does not fit the oracle's packing: {list(moduli)}"
                )
        self.moduli = moduli
        self.shifts = tuple((w + 1) * i for i in reversed(range(len(moduli))))
        self.C = sum(((1 << w) - d) << s for d, s in zip(moduli, self.shifts))
        self.HIGH = sum(1 << (w + s) for s in self.shifts)
        self.D = sum(d << s for d, s in zip(moduli, self.shifts))

    def pack(self, t):
        """The packed element that the integer vector t reduces to."""
        x = 0
        for v, d in zip(t, self.moduli, strict=True):
            x = (x << (WIDTH + 1)) | (v % d)
        return x

    def add(self, x, y):
        w = WIDTH
        # Field i holds x_i + y_i <= 2d_i - 2 < 2**(w+1): no field carries
        # into the next.
        s = x + y
        # Adding 2**w - d_i keeps the field below 2**(w+1) (as d_i <= 2**w)
        # and sets its guard bit 2**w exactly when x_i + y_i >= d_i.
        h = (s + self.C) & self.HIGH
        # (h << 1) - (h >> w) is all ones on each flagged field (2**(w+1) - 1
        # per field, no borrow between fields), so the mask picks d_i there.
        return s - (((h << 1) - (h >> w)) & self.D)

    def translate(self, xs, y):
        """[x + y for x in xs]: :meth:`add` with its reduction inline, so
        that a whole coset costs one call."""
        w, high, dd = WIDTH, self.HIGH, self.D
        yc = y + self.C
        return [x + y - ((((h := (x + yc) & high) << 1) - (h >> w)) & dd) for x in xs]

    def neg(self, x):
        # Field i of D - x holds d_i - x_i in [1, d_i] (no borrow between
        # fields); add's reduction step maps d_i to 0 and keeps the rest.
        return self.add(self.D - x, 0)


@functools.lru_cache(maxsize=1024)
def _packing(moduli):
    return _Packing(moduli)


def packing(group: AbelianGroup) -> _Packing:
    """The packing of a guarded group, one per tuple of moduli."""
    _guard(group)
    return _packing(group.moduli)


class DenseGroup:
    """A guarded group on packed elements."""

    __slots__ = ("group", "packing")

    def __init__(self, group: AbelianGroup):
        self.group = group
        self.packing = packing(group)

    def close(self, gens):
        """Subgroup generated by packed elements, as a frozenset: the
        oracle's one closure routine."""
        add, translate = self.packing.add, self.packing.translate
        have = {0}
        for x in gens:
            # x in H: H + <x> = H.
            if x in have:
                continue
            # H + <x> is the union of the cosets H + kx, k = 0, 1, ...; they
            # are distinct until the first kx that lies in H.  That is also
            # the first kx in the grown set: if jx is not in H for 0 < j < k,
            # then kx in H + jx would put (k - j)x in H.
            base = list(have)
            step = x
            while step not in have:
                have.update(translate(base, step))
                step = add(step, x)
        return frozenset(have)


def subgroup_set(h: Subgroup) -> frozenset:
    """Packed element set of a core subgroup, from the core's enumeration."""
    pack = packing(h.group).pack
    return frozenset(map(pack, h.elements()))


# ---------------------------------------------------------------------------
# Dense relations: fibre maps, a -> nonempty frozenset of b.


def graph_set(e) -> dict:
    """Fibres of a core endogeny's graph, closed from its generators.

    The domain D is extended coset by coset, keeping one packed pair
    (a, b) per a in D: a generator x adds the cosets D + k x_a, each shifted
    by k x, until the first k x_a already in D.  There k x_b and the kept b
    over k x_a differ by an element of the katakernel K; these differences
    generate K, closed once at the end.  The fibre over a is then b + K,
    one set for every a in one coset of the kernel Z = {a : b in K}.
    |G| + |H| additions instead of closing and splitting |G| |K| pairs."""
    src, tgt = e.source, e.target
    # Each factor is guarded, not G x H: only one pair per a and the
    # katakernel's cosets are materialized.
    _guard(src)
    dk = DenseGroup(tgt)
    pk = _packing(src.moduli + tgt.moduli)
    add, neg, translate = pk.add, pk.neg, pk.translate
    # The packing of src x tgt is src's fields above tgt's, so a pair with
    # a = 0 is its b packed in tgt.
    shift = (WIDTH + 1) * tgt.rank
    pair = {0: 0}
    kat_gens = []
    for x in map(pk.pack, e.graph.gen_columns()):
        base = list(pair.values())
        step = x
        while (v := pair.get(step >> shift)) is None:
            pair.update({u >> shift: u for u in translate(base, step)})
            step = add(step, x)
        kat_gens.append(add(step, neg(v)))
    kat = dk.close(kat_gens)
    mask = (1 << shift) - 1
    shift_kat = dk.packing.translate
    # b -> the fibre b + K holding it, for the fibres built so far.
    fibre = dict.fromkeys(kat, kat)
    out = {}
    for a, v in pair.items():
        s = fibre.get(v & mask)
        if s is None:
            s = frozenset(shift_kat(kat, v & mask))
            fibre.update(dict.fromkeys(s, s))
        out[a] = s
    return out


def _per_fibre(join):
    """``join`` memoised for one call of a relation operation: it is a
    function of its fibre arguments, so each distinct fibre (pair) is
    joined once however many a share it."""
    memo = {}

    def call(*fibres):
        if fibres not in memo:
            memo[fibres] = join(*fibres)
        return memo[fibres]

    return call


def endog_apply(rel, a) -> frozenset:
    return rel.get(a, frozenset())


def endog_kat(rel) -> frozenset:
    # 0 packs the zero of every group.
    return endog_apply(rel, 0)


def endog_im(rel) -> frozenset:
    return frozenset().union(*rel.values())


def endog_add(rel1, rel2, tgt: AbelianGroup) -> dict:
    """Pairs (a, x + y) for (a, x) in rel1 and (a, y) in rel2.

    Over a, the fibres are S1_a = x0 + K1 and S2_a; the sets S1_a + y are
    cosets of K1, so two of them are equal or disjoint, and S1_a + y is
    already in the running sumset exactly when x0 + y is.  Each coset of
    K1 in S1_a + S2_a is added once: |S2_a| + |K1 + K2| additions for the
    |S1_a| |S2_a| of the literal join."""
    pk = packing(tgt)
    add, translate = pk.add, pk.translate

    @_per_fibre
    def join(s1, s2):
        x0 = next(iter(s1))
        fibre = set()
        for y in s2:
            if add(x0, y) not in fibre:
                fibre.update(translate(s1, y))
        return frozenset(fibre)

    return {a: join(s1, s2) for a, s1 in rel1.items() if (s2 := rel2.get(a)) is not None}


def endog_neg(rel, tgt: AbelianGroup) -> dict:
    neg = packing(tgt).neg
    join = _per_fibre(lambda s: frozenset(map(neg, s)))
    return {a: join(s) for a, s in rel.items()}


def endog_compose(rel1, rel2) -> dict:
    """rel1 after rel2: pairs (a, c) joined over b.

    Over a, the result's fibre is the union of rel1's fibres over the b
    in rel2's fibre.  rel1's fibres are cosets of its katakernel, so
    two of them are equal or disjoint, and a fibre is already in the
    union exactly when any one of its elements is."""

    @_per_fibre
    def join(s2):
        fibre = set()
        for b in s2:
            s = rel1.get(b)
            if s is not None and next(iter(s)) not in fibre:
                fibre.update(s)
        return frozenset(fibre)

    out = {}
    for a, s2 in rel2.items():
        if fibre := join(s2):
            out[a] = fibre
    return out


def endog_equivalent(rel1, rel2, tgt: AbelianGroup) -> bool:
    """Whether the two relations blurred by F, the subgroup their
    katakernels generate, are equal.

    A relation's fibre over a is b0 + K for any b0 in it, and K <= F, so
    its blurred fibre S_a + F is b0 + F: |F| additions, not |S_a| |F|.
    The blurs are compared fibre by fibre."""
    dgt = DenseGroup(tgt)
    translate = dgt.packing.translate
    f = dgt.close(endog_kat(rel1) | endog_kat(rel2))

    blur = _per_fibre(lambda s: frozenset(translate(f, next(iter(s)))))
    return {a: blur(s) for a, s in rel1.items()} == {a: blur(s) for a, s in rel2.items()}


def endog_sharp(rel_g, rel_d, g: AbelianGroup) -> bool:
    gd = endog_compose(rel_g, rel_d)
    dg = endog_compose(rel_d, rel_g)
    diff = endog_add(gd, endog_neg(dg, g), g)
    bound = DenseGroup(g).close(endog_kat(rel_g) | endog_kat(rel_d))
    return endog_im(diff) <= bound
