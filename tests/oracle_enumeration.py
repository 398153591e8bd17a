"""The oracle's exhaustive enumerations, which only the tests compare
against: every element and subgroup of a small group, every homomorphism
and every endogeny under a bound, coset representatives, and invariant
factors read off element orders.

Like ``endokat.oracle`` it works on packed elements and borrows nothing
from the lattice core (``_kernel``, ``endogeny``, ``snf``, ``dimension``):
``groups`` supplies the group objects only.
"""

from itertools import product as _iproduct

from endokat.groups import AbelianGroup, Homomorphism, Subgroup, _prime_factorization, canonicalize_group
from endokat.oracle import WIDTH, DenseGroup, _guard, endog_kat, subgroup_set


def unpack(pk, x):
    """The element tuple that the packing ``pk`` packs to ``x``."""
    mask = (1 << (WIDTH + 1)) - 1
    return tuple((x >> s) & mask for s in pk.shifts)


class EnumeratedGroup(DenseGroup):
    """A dense group that lists its elements and its subgroups."""

    __slots__ = ("_elements",)

    def __init__(self, group: AbelianGroup):
        super().__init__(group)
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
    return list(canonicalize_group(prime_powers).moduli)


def coset_representatives(dg: EnumeratedGroup, f_set) -> list:
    """The first element of each coset a + F, in sorted order."""
    translate = dg.packing.translate
    reps = []
    covered = set()
    for a in dg.elements:
        # a starts a new coset iff no earlier element lies in a + F; the
        # whole coset is marked at once, so each element is added once.
        if a not in covered:
            reps.append(a)
            covered.update(translate(f_set, a))
    return reps


def naive_quotient_factors(dg: EnumeratedGroup, f_set) -> list:
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


def endog_ker(rel) -> frozenset:
    kat = endog_kat(rel)
    return frozenset(a for a, s in rel.items() if not kat.isdisjoint(s))


def enumerate_homomorphisms(a: AbelianGroup, b: AbelianGroup):
    """All homomorphisms a -> b by assigning generator images of compatible
    order."""
    _guard(a)
    _guard(b)
    belems = sorted(Subgroup.full(b).elements())
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
    dg = EnumeratedGroup(a)
    nset = subgroup_set(n_max)
    return dg, [s for s in dg.all_subgroup_sets() if s <= nset]


def _morphism_choices(dg: EnumeratedGroup, f) -> list:
    """Per generator of G, the coset representatives y of G/F with
    d y in F, d the generator's order: its admissible images."""
    a, pk = dg.group, dg.packing
    reps = [unpack(pk, y) for y in coset_representatives(dg, f)]
    return [[y for y in reps if pk.pack(a.scalar_mul(d, y)) in f] for d in a.moduli]


def enumerate_endogeny_pairs(a: AbelianGroup, n_max: Subgroup):
    """Generating pairs for every endogeny of ``a`` with katakernel bounded
    by ``n_max``, via the bijection with pairs (F <= n_max, morphism
    a -> a/F).  Yields (generating pair list, F element set), as tuples."""
    dg, subs = _bounded_subgroups(a, n_max)
    gens_a = a.generators()
    for f in subs:
        choices = _morphism_choices(dg, f)
        f_elems = frozenset(unpack(dg.packing, x) for x in f)
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
