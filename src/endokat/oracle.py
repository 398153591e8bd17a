"""Element-enumeration reference implementations.

Everything here works on explicit element sets, independent of the
lattice-based core; agreement between the two routes is what the
cross-validation suites assert.  All inputs are guarded by a hard cap.

Elements are packed ints (see :class:`_Packing`): one int per element, all
coordinates added at once.  A relation is a frozenset of (a, b) pairs of
packed elements.  Element-set results compare with a core subgroup through
:func:`subgroup_set`.

Every relation the ``endog_*`` functions take must be a subgroup of G x H,
as :func:`graph_set` and those functions' own results are.  Its fibre over
a is then one coset b + K of its katakernel K, and two cosets of one
subgroup are equal or disjoint, so the joins add each shifted fibre once
instead of element by element; each result is still the literal join's
set.
"""

from __future__ import annotations

import functools
from itertools import product as _iproduct

from . import config
from .errors import CapExceeded
from .groups import AbelianGroup, Homomorphism, Subgroup, _prime_factorization, canonicalize_group


def _guard(group):
    if group.order > config.ORACLE_CAP:
        raise CapExceeded(f"oracle cap {config.ORACLE_CAP} exceeded by order {group.order}")


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
        if any(d > 1 << w for d in moduli):
            raise CapExceeded(f"modulus above 2**{w} does not fit the oracle's packing: {list(moduli)}")
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

    def unpack(self, x):
        mask = (1 << (WIDTH + 1)) - 1
        return tuple((x >> s) & mask for s in self.shifts)

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
    """A group, or the product of groups, on packed elements.

    Each factor is guarded, not the product: a relation's graph lives in
    G x H, and only the subgroups ``close`` returns are materialized there.
    """

    __slots__ = ("group", "packing", "_elements")

    def __init__(self, *factors: AbelianGroup):
        for f in factors:
            _guard(f)
        self.group = factors[0] if len(factors) == 1 else AbelianGroup(sum((f.moduli for f in factors), ()))
        self.packing = _packing(self.group.moduli)
        self._elements = None

    @property
    def elements(self):
        """Every element, sorted (built on first use)."""
        if self._elements is None:
            # Extending by the coordinates from 0 on, low digits varying
            # fastest, lists the elements in lexicographic, hence int, order.
            elems = [0]
            for d, s in zip(self.group.moduli, self.packing.shifts):
                elems = [e | (k << s) for e in elems for k in range(d)]
            self._elements = elems
        return self._elements

    def close(self, gens):
        """Subgroup generated by packed elements, as a frozenset: the
        oracle's one closure routine."""
        add = self.packing.add
        have = {0}
        for x in gens:
            # x in H: H + <x> = H.
            if x in have:
                continue
            # H + <x> is the union of the cosets H + kx, k = 0, 1, ...; they
            # are distinct until the first kx that lies in H.
            base = frozenset(have)
            step = x
            while step not in base:
                have.update([add(h, step) for h in base])
                step = add(step, x)
        return frozenset(have)

    def all_subgroup_sets(self):
        """Every subgroup as a frozenset, by closure under extensions."""
        triv = frozenset({0})
        seen = {triv}
        frontier = [triv]
        while frontier:
            nxt = []
            for s in frontier:
                for e in self.elements:
                    if e in s:
                        continue
                    s2 = self.close(list(s) + [e])
                    if s2 not in seen:
                        seen.add(s2)
                        nxt.append(s2)
            frontier = nxt
        return sorted(seen, key=lambda s: (len(s), sorted(s)))


def subgroup_set(h: Subgroup) -> frozenset:
    """Packed element set of a core subgroup, from the core's enumeration."""
    pack = packing(h.group).pack
    return frozenset(map(pack, h.elements()))


def invariant_factors_from_orders(orders):
    """Reconstruct invariant factors of a finite abelian group from the
    multiset of its element orders.

    For each prime p, the count of elements killed by p^j determines the
    conjugate of the partition of p-exponents; zipping the prime-power
    columns back together gives the chain.
    """
    prime_powers = []
    for p in sorted(_prime_factorization(len(orders))):
        # e_j = log_p #{x : p^j x = 0}; the increments of e_j form the
        # conjugate of the partition of p-exponents.
        exps = []
        j = 1
        prev = 0
        while True:
            nj = sum(1 for o in orders if p**j % o == 0)
            ej = 0
            t = nj
            while t > 1:
                t //= p
                ej += 1
            if ej == prev:
                break
            exps.append(ej - prev)
            prev = ej
            j += 1
        mults = exps  # mults[j-1] = number of parts >= j
        for idx in range(mults[0] if mults else 0):
            lam_i = sum(1 for m in mults if m > idx)
            prime_powers.append(p**lam_i)
    return canonicalize_group(prime_powers).invariant_factors


def coset_representatives(dg: DenseGroup, f_set) -> list:
    """The first element of each coset a + F, in sorted order."""
    add = dg.packing.add
    reps = []
    covered = set()
    for a in dg.elements:
        # a starts a new coset iff no earlier element lies in a + F; the
        # whole coset is marked at once, so each element is added once.
        if a not in covered:
            reps.append(a)
            covered.update([add(a, h) for h in f_set])
    return reps


def naive_quotient_factors(dg: DenseGroup, f_set) -> list:
    """Invariant factors of G/F computed from coset element orders only."""
    add = dg.packing.add
    orders = []
    for a in coset_representatives(dg, f_set):
        k = 1
        cur = a
        while cur not in f_set:
            cur = add(cur, a)
            k += 1
        orders.append(k)
    return invariant_factors_from_orders(orders)


# ---------------------------------------------------------------------------
# Dense relations: frozensets of (a, b) pairs of packed elements.


def graph_set(e) -> frozenset:
    """Element pairs of a core endogeny's graph, closed from its generators."""
    src, tgt = e.source, e.target
    dg = DenseGroup(src, tgt)
    span = dg.close(map(dg.packing.pack, e.graph.gen_columns()))
    # The packing of src x tgt is src's fields above tgt's.
    shift = (WIDTH + 1) * tgt.rank
    mask = (1 << shift) - 1
    return frozenset((v >> shift, v & mask) for v in span)


def _bucket(graph):
    """The fibres of a relation: a -> set of b with (a, b) in graph."""
    buckets = {}
    for a, b in graph:
        buckets.setdefault(a, set()).add(b)
    return buckets


def endog_apply(graph, a) -> frozenset:
    return frozenset(b for (x, b) in graph if x == a)


def endog_kat(graph, src: AbelianGroup) -> frozenset:
    # 0 packs the zero of every group.
    return endog_apply(graph, 0)


def endog_im(graph) -> frozenset:
    return frozenset(b for (_, b) in graph)


def endog_ker(graph, src: AbelianGroup, tgt: AbelianGroup) -> frozenset:
    kat = endog_kat(graph, src)
    return frozenset(a for (a, b) in graph if b in kat)


def endog_add(graph1, graph2, src: AbelianGroup, tgt: AbelianGroup) -> frozenset:
    """Pairs (a, x + y) for (a, x) in graph1 and (a, y) in graph2.

    Over a, the fibres are S1_a = x0 + K1 and S2_a; the sets S1_a + y are
    cosets of K1, so two of them are equal or disjoint, and S1_a + y is
    already in the running sumset exactly when x0 + y is.  Each coset of
    K1 in S1_a + S2_a is added once: |S2_a| + |K1 + K2| additions for the
    |S1_a| |S2_a| of the literal join."""
    add = packing(tgt).add
    b2 = _bucket(graph2)
    out = set()
    for a, s1 in _bucket(graph1).items():
        s2 = b2.get(a)
        if not s2:
            continue
        x0 = next(iter(s1))
        fibre = set()
        for y in s2:
            if add(x0, y) not in fibre:
                fibre.update([add(x, y) for x in s1])
        out.update([(a, b) for b in fibre])
    return frozenset(out)


def endog_neg(graph, tgt: AbelianGroup) -> frozenset:
    neg = packing(tgt).neg
    return frozenset((a, neg(b)) for (a, b) in graph)


def endog_compose(graph1, graph2, tgt: AbelianGroup) -> frozenset:
    """graph1 after graph2: pairs (a, c) joined over b.

    Over a, the result's fibre is the union of graph1's fibres over the b
    in graph2's fibre.  graph1's fibres are cosets of its katakernel, so
    two of them are equal or disjoint, and a fibre is already in the
    union exactly when any one of its elements is."""
    b1 = _bucket(graph1)
    out = set()
    for a, s2 in _bucket(graph2).items():
        fibre = set()
        for b in s2:
            s = b1.get(b)
            if s and next(iter(s)) not in fibre:
                fibre.update(s)
        out.update([(a, c) for c in fibre])
    return frozenset(out)


def endog_equivalent(graph1, graph2, src: AbelianGroup, tgt: AbelianGroup) -> bool:
    """Whether the two relations blurred by F, the subgroup their
    katakernels generate, are equal.

    A relation's fibre over a is b0 + K for any b0 in it, and K <= F, so
    its blurred fibre S_a + F is b0 + F: |F| additions, not |S_a| |F|.
    The blurs are compared fibre by fibre, and the katakernels are the
    fibres over 0."""
    f1, f2 = _bucket(graph1), _bucket(graph2)
    dgt = DenseGroup(tgt)
    add = dgt.packing.add
    # 0 packs the zero of every group.
    f = dgt.close(f1.get(0, set()) | f2.get(0, set()))

    def blur(fibres):
        return {a: frozenset([add(next(iter(s)), x) for x in f]) for a, s in fibres.items()}

    return blur(f1) == blur(f2)


def endog_sharp(graph_g, graph_d, g: AbelianGroup) -> bool:
    gd = endog_compose(graph_g, graph_d, g)
    dg = endog_compose(graph_d, graph_g, g)
    diff = endog_add(gd, endog_neg(dg, g), g, g)
    dgt = DenseGroup(g)
    bound = dgt.close(
        set(endog_kat(graph_g, g)) | set(endog_kat(graph_d, g))
    )
    return endog_im(diff) <= bound


# ---------------------------------------------------------------------------
# Enumeration.


def enumerate_homomorphisms(a: AbelianGroup, b: AbelianGroup):
    """All homomorphisms a -> b by assigning generator images of compatible
    order."""
    _guard(a)
    _guard(b)
    belems = sorted(b.elements())
    choices = []
    for d in a.moduli:
        choices.append([y for y in belems if all(d * yi % m == 0 for yi, m in zip(y, b.moduli))])
    out = []
    for combo in _iproduct(*choices):
        rows = [[combo[j][i] for j in range(a.rank)] for i in range(b.rank)]
        out.append(Homomorphism(a, b, rows, _trusted=True))
    return out


def _bounded_subgroups(a: AbelianGroup, n_max: Subgroup):
    """The dense group of a and its subgroups inside n_max, sorted."""
    dg = DenseGroup(a)
    nset = subgroup_set(n_max)
    return dg, [s for s in dg.all_subgroup_sets() if s <= nset]


def _morphism_choices(dg: DenseGroup, f) -> list:
    """Per generator of G, the coset representatives y of G/F with
    d y in F, d the generator's order: its admissible images."""
    a, pk = dg.group, dg.packing
    reps = [pk.unpack(y) for y in coset_representatives(dg, f)]
    return [[y for y in reps if pk.pack(a.scalar_mul(d, y)) in f] for d in a.moduli]


def enumerate_endogeny_pairs(a: AbelianGroup, n_max: Subgroup):
    """Generating pairs for every endogeny of ``a`` with katakernel bounded
    by ``n_max``, via the bijection with pairs (F <= n_max, morphism
    a -> a/F).  Yields (generating pair list, F element set), as tuples."""
    dg, subs = _bounded_subgroups(a, n_max)
    gens_a = a.generators()
    for f in subs:
        choices = _morphism_choices(dg, f)
        f_elems = frozenset(map(dg.packing.unpack, f))
        for combo in _iproduct(*choices):
            pairs = [(e, y) for e, y in zip(gens_a, combo)]
            pairs += [(a.zero, h) for h in f_elems]
            yield pairs, f_elems


def count_endogenies(a: AbelianGroup, n_max: Subgroup):
    dg, subs = _bounded_subgroups(a, n_max)
    total = 0
    for f in subs:
        per = 1
        for ok in _morphism_choices(dg, f):
            per *= len(ok)
        total += per
    return total
