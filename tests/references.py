"""Reference implementations that several test modules compare against and
the package does not call: every subgroup of a group by element-wise
extension, the image and kernel of a homomorphism, the elements of a coset,
every abelian group up to an order, the exhaustive search for the weak-invariance counterexample,
a second sharp-pair generator, the pair-based random subgroups, random
endogenies and split-group relations that the value-built generators
replaced, the invariant-subspace search that spins
every line of F_p^n, the Euclid-sweep Hermite form that the pure kernel's
extended-gcd elimination replaced, the entry-by-entry F_p matrix code on
tuples of row tuples that the packed kernel primitives replaced, and the
constructions the (K, V) calculus replaced: the blur A x F and the
everything-bound, the graph-based preimage and restriction, the repeated-add
polynomial and the p-part and T-part as Hermite forms of scaled
generators; and the check of a decomposition's idempotents, which restates
identities of the exact inverse that the package does not check again."""

from itertools import product

from endokat import config, fp
from endokat.endogeny import Endogeny, NegligibilityBound, endo_add, sharp_commutes, weakly_invariant
from endokat.errors import BudgetExceeded, CapExceeded, HypothesisViolation, KatakernelBound
from endokat.groups import (
    AbelianGroup,
    Coset,
    Homomorphism,
    Subgroup,
    _prime_factorization,
    canonicalize_group,
    quotient,
    subgroup_isomorphism,
)
from endokat.instances import polynomial, random_homomorphism, random_subgroup_of
from endokat.rng import SplitMix64

from oracle_enumeration import enumerate_endogeny_pairs


def all_subgroups(group: AbelianGroup):
    """Every subgroup, by closing the lattice under single-element extension.

    Exhaustive and correct for any finite abelian group; guarded by
    ``config.ORACLE_CAP`` since it enumerates elements.
    """
    if group.order > config.ORACLE_CAP:
        raise CapExceeded(f"group order {group.order} above the oracle cap ORACLE_CAP = {config.ORACLE_CAP}")
    elems = [group.reduce(e) for e in Subgroup.full(group).elements()]
    triv = Subgroup.trivial(group)
    seen = {triv.basis: triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for h in frontier:
            for e in elems:
                if h.contains(e):
                    continue
                h2 = Subgroup.from_generators(group, h.gen_columns() + [e])
                if h2.basis not in seen:
                    seen[h2.basis] = h2
                    nxt.append(h2)
        frontier = nxt
    return sorted(seen.values(), key=lambda s: (s.order, s.basis))


def image(hom: Homomorphism) -> Subgroup:
    cols = [tuple(row[j] for row in hom.matrix) for j in range(hom.source.rank)]
    return Subgroup._span(hom.target, cols)


def kernel(hom: Homomorphism) -> Subgroup:
    src = hom.source
    cols = [
        tuple(row[j] for row in hom.matrix) + e
        for j, e in enumerate(src.generators())
    ]
    return Subgroup.pushforward(src, hom.target.moduli, cols)


def coset_elements(c: Coset):
    g = c.subgroup.group
    for h in c.subgroup.elements():
        yield g.add(c.rep, h)


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def all_abelian_groups(max_order: int):
    """Every isomorphism class of abelian group of order <= max_order, in
    canonical form, ordered by (order, invariant factors)."""
    out = []
    for n in range(1, max_order + 1):
        shapes = [()]
        for p, e in sorted(_prime_factorization(n).items()):
            shapes = [
                s + tuple(p**part for part in parts)
                for s in shapes
                for parts in _partitions(e)
            ]
        for shape in shapes:
            out.append(canonicalize_group(shape))
    out.sort(key=lambda g: (g.order, g.moduli))
    return out


def weak_invariance_intersection_witness(max_order: int = 64):
    """Exhaustive search for two weakly invariant subgroups whose
    intersection is not weakly invariant.

    Iterates groups by ascending order; relations with trivial blur are
    skipped (weak and full invariance coincide there, and fully invariant
    subgroups intersect to fully invariant ones, so no witness can hide
    among them).  Returns ``(group, relation, b1, b2)`` or None.
    """
    for g in all_abelian_groups(max_order):
        if g.order > 512:
            continue  # enumeration of all relations stays desk-scale
        n_max = Subgroup.full(g)
        subs = all_subgroups(g)
        incomparable = [
            (b1, b2)
            for i, b1 in enumerate(subs)
            for b2 in subs[i + 1 :]
            if (b1 & b2) not in (b1, b2)
        ]
        if not incomparable:
            continue
        bound = NegligibilityBound(g, n_max)
        for pairs, fset in enumerate_endogeny_pairs(g, n_max):
            if len(fset) == 1:
                continue
            e = Endogeny.from_pairs(g, g, pairs, bound)
            for b1, b2 in incomparable:
                if (
                    weakly_invariant(b1, e)
                    and weakly_invariant(b2, e)
                    and not weakly_invariant(b1 & b2, e)
                ):
                    return g, e, b1, b2
    return None


def everything(group):
    """The bound under which every subgroup of ``group`` is negligible."""
    return NegligibilityBound(group, Subgroup.full(group))


def blur(f: Subgroup, bound):
    """The relation sending every element of the group to the coset F: as
    a set of pairs A x F, built as (F, 0) and validated."""
    g = f.group
    return Endogeny.from_values(g, f, [g.zero] * g.rank, bound)


def graph_preimage(e: Endogeny, s: Subgroup) -> Subgroup:
    """Inverse image of a subgroup of the target, from the graph: the
    first blocks of the graph pairs (a, b) with b in S."""
    r1 = e.source.rank
    cols = [col[r1:] + col[:r1] for col in e.graph.gen_columns()]
    cols += [s.group.neg(col) + e.source.zero for col in s.gen_columns()]
    return Subgroup.pushforward(e.source, e.target.moduli, cols)


def graph_restrict(e: Endogeny, b: Subgroup) -> Endogeny:
    """Restriction to a weakly invariant subgroup B from the graph: the
    part of the graph inside B x B, one Hermite form in the product group,
    pushed into coordinates of B and validated by ``from_pairs``."""
    amb, prod = e.source, e.prod
    r = amb.rank
    bq, to_b, _ = subgroup_isomorphism(b)
    cols = [col + col for col in e.graph.gen_columns()]
    for col in b.gen_columns():
        neg = amb.neg(col)
        cols.append(neg + amb.zero + prod.zero)
        cols.append(amb.zero + neg + prod.zero)
    inside = Subgroup.pushforward(prod, prod.moduli, cols)
    pairs = [(to_b(vec[:r]), to_b(vec[r:])) for vec in inside.gen_columns()]
    nb = Subgroup.from_generators(bq, [to_b(c) for c in (e.bound.n_max & b).gen_columns()])
    return Endogeny.from_pairs(bq, bq, pairs, NegligibilityBound(bq, nb))


def repeated_add_polynomial(base: Homomorphism, coeffs) -> Homomorphism:
    """sum_i coeffs[i] * base**i by repeated addition of matrices and
    ``compose``."""
    acc = Homomorphism.zero(base.source, base.source)
    power = Homomorphism.identity(base.source)
    for c in coeffs:
        for _ in range(c):
            rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(acc.matrix, power.matrix)]
            acc = Homomorphism(acc.source, acc.target, rows, _trusted=True)
        power = power.compose(base)
    return acc


def scaled_p_part(sg, h: Subgroup) -> Subgroup:
    """H_p = |T| H of a split group, as the Hermite form of the scaled
    generators of H."""
    amb = sg.ambient
    return Subgroup._span(amb, [amb.scalar_mul(sg.torsion.order, g) for g in h.gen_columns()])


def scaled_t_part(sg, h: Subgroup) -> Subgroup:
    """H_T = p^n H of a split group, as the Hermite form of the scaled
    generators of H."""
    amb = sg.ambient
    return Subgroup._span(amb, [amb.scalar_mul(sg.p**sg.n, g) for g in h.gen_columns()])


def random_sharp_pair(a: AbelianGroup, n_max: Subgroup, seed: int, budget: int = 64):
    """Two sharply commuting blurred relations: polynomials in one random
    endomorphism (which commute on the nose), each blurred by a random
    negligible subgroup; resampled until the sharp-commutation test passes."""
    rng = SplitMix64(seed)
    bound = NegligibilityBound(a, n_max)
    for _ in range(budget):
        base = random_homomorphism(a, a, rng)
        coeffs1 = [rng.below(4) for _ in range(3)]
        coeffs2 = [rng.below(4) for _ in range(3)]
        c = polynomial(base, coeffs1)
        d = polynomial(base, coeffs2)
        f1 = random_subgroup_of(n_max, rng)
        f2 = random_subgroup_of(n_max, rng)
        try:
            g = endo_add(Endogeny.from_morphism(c, bound), blur(f1, bound))
            h = endo_add(Endogeny.from_morphism(d, bound), blur(f2, bound))
        except KatakernelBound:
            continue
        if sharp_commutes(g, h):
            return g, h
    raise BudgetExceeded("no sharply commuting pair found within the budget")


def pair_random_subgroup_of(h: Subgroup, rng: SplitMix64) -> Subgroup:
    """``instances.random_subgroup_of`` as group elements: each random
    member is reduced as it is summed, then reduced again as a generator."""
    gens = []
    cols = h.gen_columns()
    if not cols:
        return h
    g = h.group
    for _ in range(1 + rng.below(len(cols) + 1)):
        v = g.zero
        for c in cols:
            v = g.add(v, g.scalar_mul(rng.below(g.exponent), c))
        gens.append(v)
    return Subgroup.from_generators(g, gens)


def pair_random_endogeny(a: AbelianGroup, n_max: Subgroup, seed: int) -> Endogeny:
    """``instances.random_endogeny`` from generating pairs: the Hermite form
    of the graph in the product group finds its katakernel again."""
    rng = SplitMix64(seed)
    bound = NegligibilityBound(a, n_max)
    f = pair_random_subgroup_of(n_max, rng)
    q, proj = quotient(a, f)
    g = random_homomorphism(a, q, rng)
    pairs = [(e, proj.lift(g(e))) for e in a.generators()]
    pairs += [(a.zero, c) for c in f.gen_columns()]
    return Endogeny.from_pairs(a, a, pairs, bound)


def pair_morphism_endogeny(sg, vmat, blur: Subgroup, bound: NegligibilityBound) -> Endogeny:
    """``instances._morphism_endogeny`` from generating pairs: e_i of V to
    column i of ``vmat``, T to 0, and 0 to the blur."""
    amb = sg.ambient
    pairs = []
    for i, img in enumerate(zip(*vmat)):
        e = tuple(int(i == j) for j in range(sg.n))
        pairs.append((sg._embed_v(e), sg._embed_v(img)))
    for i in range(sg.torsion.rank):
        vec = [0] * amb.rank
        vec[sg.n + i] = 1
        pairs.append((tuple(vec), amb.zero))
    for col in blur.gen_columns():
        pairs.append((amb.zero, col))
    return Endogeny.from_pairs(amb, amb, pairs, bound)


def all_vectors(p, n):
    """All vectors, first coordinate varying fastest (so e_1 precedes e_2)."""
    for t in product(*(range(p) for _ in range(n))):
        yield t[::-1]


def projective_vectors(p, n):
    """One representative per 1-dimensional subspace: first nonzero entry 1."""
    for v in all_vectors(p, n):
        j = next((i for i, x in enumerate(v) if x), None)
        if j is not None and v[j] == 1:
            yield v


def exhaustive_invariant_subspace(p, n, gens):
    """Spin every 1-dimensional seed; the first proper spin wins."""
    for v in projective_vectors(p, n):
        w = fp.spin_subspace(p, gens, fp.mat([v], p))
        if 0 < len(w) < n:
            return w
    return None


def euclid_hnf(mods, cols):
    """Canonical column Hermite form of span(cols) + diag(mods)*Z^r, by a
    Euclid sweep per row: the relation column mods[i]*e_i joins the working
    columns, and every live column is reduced by the one with the least
    nonzero entry at row i until one is left, the pivot."""
    r = len(mods)
    work = []
    for col in cols:
        c = list(col)
        for k in range(r):
            c[k] %= mods[k]
        if any(c):
            work.append(c)

    pivots = []
    for i in range(r):
        d = mods[i]
        fresh = [0] * r
        fresh[i] = d
        work.append(fresh)
        while True:
            live = [c for c in work if c[i]]
            if len(live) <= 1:
                break
            m = min(live, key=lambda c: c[i])
            mi = m[i]
            for c in live:
                if c is m:
                    continue
                q = c[i] // mi
                c[i] -= q * mi
                for k in range(i + 1, r):
                    c[k] = (c[k] - q * m[k]) % mods[k]
        piv = None
        for c in work:
            if c[i]:
                piv = c
                break
        work.remove(piv)
        for k in range(i + 1, r):
            piv[k] %= mods[k]
        pivots.append(piv)

    # Off-diagonal normalization: entries of earlier pivot columns at row i
    # are reduced into [0, pivots[i][i]).
    for i in range(r):
        pi = pivots[i]
        hii = pi[i]
        for j in range(i):
            pj = pivots[j]
            q = pj[i] // hii
            if q:
                pj[i] -= q * hii
                for k in range(i + 1, r):
                    pj[k] = (pj[k] - q * pi[k]) % mods[k]

    return tuple(zip(*pivots))[:r]


# ---------------------------------------------------------------------------
# F_p matrices as tuples of row tuples, entry by entry: the code the packed
# primitives of the pure kernel replaced, kept as their reference.  Entries
# may be any ints; every function reduces them mod p.


def tuple_mat_mul(p, a, b):
    m = len(b[0]) if b else 0
    out = []
    for ai in a:
        row = [0] * m
        for aik, bk in zip(ai, b):
            if aik:
                for j in range(m):
                    row[j] += aik * bk[j]
        out.append(tuple(v % p for v in row))
    return tuple(out)


def tuple_mat_vec(p, a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)


def tuple_rref(p, rows):
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    piv_cols = []
    rank = 0
    for c in range(ncols):
        pr = next((i for i in range(rank, nrows) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c] % p, -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(nrows):
            f = mat[i][c] % p
            if i != rank and f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        piv_cols.append(c)
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(r) for r in mat[:rank]), tuple(piv_cols)


def tuple_spin(p, gens, seeds):
    """The reduced echelon basis of the smallest subspace that holds the
    seeds and is closed under every matrix in gens, by spinning each new
    vector of a growing echelon basis."""
    n = len(seeds[0]) if seeds else 0
    basis, pivots, queue = [], [], []

    def insert(v):
        w = [x % p for x in v]
        for row, pc in zip(basis, pivots):
            x = w[pc]
            if x:
                w = [(a - x * b) % p for a, b in zip(w, row)]
        j = next((j for j, x in enumerate(w) if x), None)
        if j is None:
            return False
        inv = pow(w[j], -1, p)
        k = sum(pc < j for pc in pivots)
        basis.insert(k, tuple((x * inv) % p for x in w))
        pivots.insert(k, j)
        queue.append(tuple(x % p for x in v))
        return True

    for s in seeds:
        insert(s)
    while queue and len(basis) < n:
        v = queue.pop()
        for g in gens:
            if insert(tuple_mat_vec(p, g, v)) and len(basis) == n:
                break
    return tuple_rref(p, basis)[0] if basis else ()


def tuple_stack(mats):
    return tuple(row for m in mats for row in m)


def tuple_side_by_side(mats):
    return tuple(sum(rows, ()) for rows in zip(*mats))


def tuple_block(a, i, j, r, s):
    """Block (i, j) of a, in blocks of r rows and s columns."""
    return tuple(row[j * s : (j + 1) * s] for row in a[i * r : (i + 1) * r])


def tuple_transpose(a, ncols):
    """The transpose of a with ncols columns (a has no rows to count them)."""
    return tuple(zip(*a)) if a else ((),) * ncols


def tuple_add(p, a, b):
    return tuple(tuple((x + y) % p for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def tuple_scalar(p, c, a):
    return tuple(tuple((c * x) % p for x in row) for row in a)


def tuple_in_span(p, basis_rows, v):
    """Whether v lies in the span of reduced echelon rows, each row's pivot
    found by scanning it."""
    w = [x % p for x in v]
    for row in basis_rows:
        pc = next(j for j, x in enumerate(row) if x)
        if w[pc]:
            c = w[pc]
            w = [(x - c * y) % p for x, y in zip(w, row)]
    return not any(w)


def verify_decomposition(dec, delta):
    """Check the idempotents of a decomposition: each is idempotent with its
    line as image, they are orthogonal, sum to the identity, and commute
    with every matrix of ``delta``, the second family's generators."""
    p, n, pis = dec.p, dec.n, dec.projections
    prods = fp.products(p, pis, pis)
    total = fp.zero(p, n)
    for i, pi in enumerate(pis):
        total = fp.add(p, total, pi)
        if prods[i][i] != pi:
            raise HypothesisViolation("projection not idempotent", witness=pi)
        if fp.column_space(p, pi) != dec.lines[i].subspace:
            raise HypothesisViolation("projection image is not its line", witness=pi)
        for j, pij in enumerate(prods[i]):
            if i != j and any(pij.rows):
                raise HypothesisViolation("projections not orthogonal", witness=(i, j))
    if total != fp.identity(p, n):
        raise HypothesisViolation("projections do not sum to the identity", witness=total)
    bad = fp.noncommuting(p, pis, delta)
    if bad is not None:
        raise HypothesisViolation("projection fails to commute", witness=pis[bad[0]])
    return True
