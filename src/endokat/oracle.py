"""Element-enumeration reference implementations.

Everything here works on explicit element sets and literal set
comprehensions, independent of the lattice-based core; agreement between the
two routes is what the cross-validation suites assert.  All inputs are
guarded by a hard cap.
"""

from __future__ import annotations

from itertools import product as _iproduct

from . import config
from .errors import CapExceeded
from .groups import AbelianGroup, Homomorphism, Subgroup, _prime_factorization, canonicalize_group


def _guard(group):
    if group.order > config.ORACLE_CAP:
        raise CapExceeded(f"oracle cap {config.ORACLE_CAP} exceeded by order {group.order}")


class DenseGroup:
    """A group materialized as the list of its elements."""

    __slots__ = ("group", "elements")

    def __init__(self, group: AbelianGroup):
        _guard(group)
        self.group = group
        self.elements = sorted(group.elements())

    def close(self, gens):
        """Subgroup generated by gens, as a frozenset of elements."""
        g = self.group
        have = {g.zero}
        frontier = [g.zero]
        gens = [g.reduce(x) for x in gens]
        while frontier:
            nxt = []
            for a in frontier:
                for x in gens:
                    b = g.add(a, x)
                    if b not in have:
                        have.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(have)

    def all_subgroup_sets(self):
        """Every subgroup as a frozenset, by closure under extensions."""
        triv = frozenset({self.group.zero})
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
    """Element set of a core subgroup (for comparisons)."""
    return frozenset(h.elements())


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


def naive_quotient_factors(dg: DenseGroup, f_set) -> list:
    """Invariant factors of G/F computed from coset element orders only."""
    g = dg.group
    reps = []
    seen = set()
    for a in dg.elements:
        key = min(g.add(a, x) for x in f_set)
        if key not in seen:
            seen.add(key)
            reps.append(a)
    orders = []
    for a in reps:
        k = 1
        cur = a
        while cur not in f_set:
            cur = g.add(cur, a)
            k += 1
        orders.append(k)
    return invariant_factors_from_orders(orders)


# ---------------------------------------------------------------------------
# Dense relations: frozensets of (a, b) pairs.


def graph_set(e) -> frozenset:
    """Element pairs of a core endogeny's graph."""
    src, tgt = e.source, e.target
    r1 = src.rank
    out = set()
    for v in e.graph.elements():
        out.add((v[:r1], v[r1:]))
    return frozenset(out)


def _bucket(graph):
    buckets = {}
    for a, b in graph:
        buckets.setdefault(a, set()).add(b)
    return buckets


def endog_apply(graph, a) -> frozenset:
    return frozenset(b for (x, b) in graph if x == a)


def endog_kat(graph, src: AbelianGroup) -> frozenset:
    return endog_apply(graph, src.zero)


def endog_im(graph) -> frozenset:
    return frozenset(b for (_, b) in graph)


def endog_ker(graph, src: AbelianGroup, tgt: AbelianGroup) -> frozenset:
    kat = endog_kat(graph, src)
    return frozenset(a for (a, b) in graph if b in kat)


def endog_add(graph1, graph2, src: AbelianGroup, tgt: AbelianGroup) -> frozenset:
    b1 = _bucket(graph1)
    b2 = _bucket(graph2)
    out = set()
    for a, s1 in b1.items():
        s2 = b2.get(a)
        if not s2:
            continue
        for x in s1:
            for y in s2:
                out.add((a, tgt.add(x, y)))
    return frozenset(out)


def endog_neg(graph, tgt: AbelianGroup) -> frozenset:
    return frozenset((a, tgt.neg(b)) for (a, b) in graph)


def endog_compose(graph1, graph2, tgt: AbelianGroup) -> frozenset:
    """graph1 after graph2, literally: pairs (a, c) joined over b."""
    b1 = _bucket(graph1)
    out = set()
    for a, b in graph2:
        s = b1.get(b)
        if s:
            for c in s:
                out.add((a, c))
    return frozenset(out)


def endog_equivalent(graph1, graph2, src: AbelianGroup, tgt: AbelianGroup) -> bool:
    kat = set(endog_kat(graph1, src)) | set(endog_kat(graph2, src))
    dgt = DenseGroup(tgt)
    f = dgt.close(kat)
    blur1 = frozenset((a, tgt.add(b, x)) for (a, b) in graph1 for x in f)
    blur2 = frozenset((a, tgt.add(b, x)) for (a, b) in graph2 for x in f)
    return blur1 == blur2


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


def enumerate_endogeny_pairs(a: AbelianGroup, n_max: Subgroup):
    """Generating pairs for every endogeny of ``a`` with katakernel bounded
    by ``n_max``, via the bijection with pairs (F <= n_max, morphism
    a -> a/F).  Yields (generating pair list, F element set)."""
    dg = DenseGroup(a)
    nset = frozenset(n_max.elements())
    subs = [s for s in dg.all_subgroup_sets() if s <= nset]
    for f in subs:
        reps = []
        seen = set()
        for x in dg.elements:
            key = min(a.add(x, h) for h in f)
            if key not in seen:
                seen.add(key)
                reps.append(x)
        choices = []
        for d in a.moduli:
            ok = []
            for y in reps:
                if a.scalar_mul(d, y) in f:
                    ok.append(y)
            choices.append(ok)
        gens_a = a.generators()
        for combo in _iproduct(*choices):
            pairs = [(e, y) for e, y in zip(gens_a, combo)]
            pairs += [(a.zero, h) for h in f]
            yield pairs, f


def count_endogenies(a: AbelianGroup, n_max: Subgroup):
    dg = DenseGroup(a)
    nset = frozenset(n_max.elements())
    total = 0
    for f in (s for s in dg.all_subgroup_sets() if s <= nset):
        reps = {}
        for x in dg.elements:
            key = min(a.add(x, h) for h in f)
            reps.setdefault(key, x)
        per = 1
        for d in a.moduli:
            per *= sum(1 for y in reps.values() if a.scalar_mul(d, y) in f)
        total += per
    return total


def search_witness(predicate, candidates, budget):
    """First candidate satisfying the predicate within the budget.

    Returns ``(witness, exhausted)``: the witness (or None) and whether the
    whole candidate stream was inspected.  A budgeted miss is therefore never
    reported as a definite absence.
    """
    n = 0
    for c in candidates:
        if n >= budget:
            return None, False
        n += 1
        if predicate(c):
            return c, True
    return None, True
