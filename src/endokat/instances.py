"""Deterministic fixtures and seeded instance generators.

Every generator is a pure function of its parameters and a 64-bit seed
(SplitMix64 streams), validates its own output, and emits the same bytes for
the same spec.  The fixtures carry the hand-checkable corner cases: the
all-to-a-coset blur, and the blurred relation on Z/p (+) Z/p^2 that is
equivalent to no endomorphism at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fp
from .dimension import SplitGroup, is_minimal_bimodule
from .endogeny import (
    Endogeny,
    EndogenySet,
    NegligibilityBound,
    endo_add,
    endogeny_validate,
    sharp_commutes,
)
from .errors import BudgetExceeded, InvalidInput, KatakernelBound
from .groups import (
    AbelianGroup,
    FinAbGroup,
    Homomorphism,
    Subgroup,
    _prime_factorization,
    canonicalize_group,
    quotient,
    subgroup_from_generators,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class InstanceSpec:
    """Reproducible recipe: kind + seed + kind-specific parameters."""

    kind: str
    seed: int
    parameters: dict = field(default_factory=dict)

    KINDS = (
        "random_group",
        "random_endogeny",
        "sharp_pair",
        "split_bimodule",
        "matrix_bimodule",
        "fixture",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidInput(f"unknown instance kind {self.kind!r}")


def fixture_zF(a: AbelianGroup, f: Subgroup, bound: NegligibilityBound | None = None) -> Endogeny:
    """The endogeny with graph A x F (value F everywhere)."""
    if f.group != a:
        raise InvalidInput("subgroup not in the given group")
    bound = bound or NegligibilityBound(a, f)
    return Endogeny.blur(f, bound)


def fixture_nonliftable(p: int):
    """On A = Z/p (+) Z/p^2: the relation pulled back from the coordinate
    swap into A/<(0,p)>.

    Its blur is F = <(0,p)> and it is equivalent to no endomorphism of A:
    any equivalent endomorphism would have to lift a map Z/p -> Z/p^2
    against reduction mod p, which none does.  Returns ``(group, relation)``.
    """
    a = canonicalize_group([p, p * p])
    f = subgroup_from_generators(a, [(0, p)])
    bound = NegligibilityBound(a, f)
    pairs = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 0), (0, p))]
    return a, endogeny_validate(a, a, pairs, bound)


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
    from . import oracle
    from .endogeny import weakly_invariant
    from .groups import all_subgroups

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
        for pairs, fset in oracle.enumerate_endogeny_pairs(g, n_max):
            if len(fset) == 1:
                continue
            e = endogeny_validate(g, g, pairs, bound)
            for b1, b2 in incomparable:
                if (
                    weakly_invariant(b1, e)
                    and weakly_invariant(b2, e)
                    and not weakly_invariant(b1 & b2, e)
                ):
                    return g, e, b1, b2
    return None


def random_group(seed: int, max_order: int = 4096, max_rank: int = 3) -> FinAbGroup:
    """Seeded group of bounded order in canonical form."""
    rng = SplitMix64(seed)
    rank = 1 + rng.below(max_rank)
    factors = []
    budget = max_order
    for _ in range(rank):
        if budget < 2:
            break
        f = 2 + rng.below(min(budget, 16) - 1)
        factors.append(f)
        budget //= f
    return canonicalize_group(factors or [2])


def random_subgroup_of(h: Subgroup, rng: SplitMix64) -> Subgroup:
    """Random subgroup inside h: span of up to rank-many random members."""
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


def random_homomorphism(a: AbelianGroup, b: AbelianGroup, rng: SplitMix64) -> Homomorphism:
    """Uniform-ish seeded homomorphism: each generator image is drawn from
    the subgroup of elements its order must kill."""
    cols = []
    for d in a.moduli:
        # image y must satisfy d*y = 0: kernel of multiplication by d
        mult = Homomorphism(b, b, [[d if i == j else 0 for j in range(b.rank)] for i in range(b.rank)], _trusted=True)
        sol = mult.kernel()
        gens = sol.gen_columns()
        y = b.zero
        for c in gens:
            y = b.add(y, b.scalar_mul(rng.below(b.exponent), c))
        cols.append(y)
    rows = [[cols[j][i] for j in range(a.rank)] for i in range(b.rank)]
    return Homomorphism(a, b, rows)


def random_endogeny(a: AbelianGroup, n_max: Subgroup, seed: int) -> Endogeny:
    """Pullback of a random morphism into A/F for a random negligible F;
    every relation with katakernel F arises this way."""
    rng = SplitMix64(seed)
    bound = NegligibilityBound(a, n_max)
    f = random_subgroup_of(n_max, rng)
    q, proj = quotient(a, f)
    g = random_homomorphism(a, q, rng)
    pairs = [(e, proj.lift(g(e))) for e in a.generators()]
    pairs += [(a.zero, c) for c in f.gen_columns()]
    return endogeny_validate(a, a, pairs, bound)


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

        def poly(cs):
            acc = Homomorphism.zero(a, a)
            power = Homomorphism.identity(a)
            for c in cs:
                if c:
                    term = power
                    for _ in range(c - 1):
                        term = term.add(power)
                    acc = acc.add(term)
                power = power.compose(base)
            return acc

        c = poly(coeffs1)
        d = poly(coeffs2)
        f1 = random_subgroup_of(n_max, rng)
        f2 = random_subgroup_of(n_max, rng)
        try:
            g = endo_add(Endogeny.from_morphism(c, bound), Endogeny.blur(f1, bound))
            h = endo_add(Endogeny.from_morphism(d, bound), Endogeny.blur(f2, bound))
        except KatakernelBound:
            continue
        if sharp_commutes(g, h):
            return g, h
    raise BudgetExceeded("no sharply commuting pair found within the budget")


# ---------------------------------------------------------------------------
# Matrix and split bi-module instances.


def _block_embed(p, m, k, pos_i, pos_j, block):
    n = m * k
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            rows[pos_i * k + i][pos_j * k + j] = block[i][j]
    return fp.mat(rows, p)


def _random_invertible(p, n, rng: SplitMix64):
    while True:
        m = fp.mat([[rng.below(p) for _ in range(n)] for _ in range(n)], p)
        if fp.is_invertible(p, m):
            return m


def matrix_bimodule(p: int, k: int, m: int, twist_seed: int):
    """Generators of the full m x m matrix ring over the field of order p^k
    (in its regular representation) and of the scalar action, conjugated by
    a seeded random basis change.

    Returns a dict with the generators and the ground truth
    ``(field order, vector-space dimension) = (p**k, m)``.
    """
    if k < 1 or m < 1:
        raise InvalidInput("field degree and dimension must be positive")
    n = k * m
    poly = fp.lex_min_irreducible(p, k)
    c = fp.companion(p, poly)
    ident = fp.identity(k)
    gamma = []
    for i in range(m - 1):
        gamma.append(_block_embed(p, m, k, i, i + 1, ident))
        gamma.append(_block_embed(p, m, k, i + 1, i, ident))
    scalar = fp.mat(
        [
            [
                c[i % k][j % k] if i // k == j // k else 0
                for j in range(n)
            ]
            for i in range(n)
        ],
        p,
    )
    gamma.append(scalar)
    delta = [scalar]
    rng = SplitMix64(twist_seed)
    g = _random_invertible(p, n, rng)
    ginv = fp.inverse(p, g)
    gamma = [fp.mul(p, fp.mul(p, g, x), ginv) for x in gamma]
    delta = [fp.mul(p, fp.mul(p, g, x), ginv) for x in delta]
    return {
        "p": p,
        "n": n,
        "gamma_generators": gamma,
        "delta_generators": delta,
        "ground_truth": {"field_order": p**k, "vs_dimension": m},
    }


def _morphism_endogeny(sg: SplitGroup, vmat, blur: Subgroup, bound: NegligibilityBound) -> Endogeny:
    """Relation acting on V by the matrix, killing T, blurred by a subgroup
    of T."""
    amb = sg.ambient
    pairs = []
    for i in range(sg.n):
        e = tuple(int(i == j) for j in range(sg.n))
        img = fp.matvec(sg.p, vmat, e)
        pairs.append((sg._embed_v(e), sg._embed_v(img)))
    for i in range(sg.torsion.rank):
        vec = [0] * amb.rank
        vec[sg.n + i] = 1
        pairs.append((tuple(vec), amb.zero))
    for col in blur.gen_columns():
        pairs.append((amb.zero, col))
    return endogeny_validate(amb, amb, pairs, bound)


def split_bimodule(p: int, n: int, torsion, seed: int, plant_witness: bool = False):
    """Split-group bi-module: a matrix bi-module acting on V, zero on T,
    with seeded blurs by subgroups of T; cross-pairs commute sharply by
    construction and are re-validated.

    With ``plant_witness`` the V-action shares a planted invariant subspace
    (upper-triangular blocks), for negative minimality tests.  Returns
    ``(split_group, gamma_set, delta_set, info)``.
    """
    if isinstance(torsion, FinAbGroup):
        tor = torsion
    else:
        tor = canonicalize_group(torsion)
    sg = SplitGroup(p, n, tor)
    rng = SplitMix64(seed)
    info = {}
    if plant_witness:
        if n < 2:
            raise InvalidInput("planting needs rank at least 2")
        cut = 1 + rng.below(n - 1)
        mats = []
        for _ in range(2):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    if i < cut and j >= cut:
                        rows[i][j] = rng.below(p)
                    elif (i < cut) == (j < cut):
                        rows[i][j] = rng.below(p)
            mats.append(fp.mat(rows, p))
        gmats = mats
        dmats = [fp.identity(n)]
        info["planted_subspace"] = tuple(
            tuple(int(i == j) for j in range(n)) for i in range(cut)
        )
    else:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        k = divisors[rng.below(len(divisors))]
        inst = matrix_bimodule(p, k, n // k, rng.next_u64())
        gmats = inst["gamma_generators"]
        dmats = inst["delta_generators"]
        info["field_order"] = inst["ground_truth"]["field_order"]
        info["vs_dimension"] = inst["ground_truth"]["vs_dimension"]
    bound = sg.bound
    tpart = sg.t_part()
    gammas = []
    for mat_ in gmats:
        blur = random_subgroup_of(tpart, rng)
        gammas.append(_morphism_endogeny(sg, mat_, blur, bound))
    deltas = []
    for mat_ in dmats:
        blur = random_subgroup_of(tpart, rng)
        deltas.append(_morphism_endogeny(sg, mat_, blur, bound))
    for g in gammas:
        for d in deltas:
            if not sharp_commutes(g, d):
                raise BudgetExceeded("generated pair fails sharp commutation")
    gset = EndogenySet(sg.ambient, bound, gammas)
    dset = EndogenySet(sg.ambient, bound, deltas)
    if plant_witness:
        ok, witness = is_minimal_bimodule(sg, gset, dset)
        if ok:
            raise BudgetExceeded("planted witness was not detected")
        info["witness_order"] = witness.order
    return sg, gset, dset, info


def generate(spec: InstanceSpec):
    """Dispatch an :class:`InstanceSpec` to its generator."""
    p = spec.parameters
    if spec.kind == "random_group":
        return random_group(spec.seed, p.get("max_order", 4096), p.get("max_rank", 3))
    if spec.kind == "random_endogeny":
        a = canonicalize_group(p["group"])
        n_max = subgroup_from_generators(a, [tuple(g) for g in p.get("n_max", [])])
        return random_endogeny(a, n_max, spec.seed)
    if spec.kind == "sharp_pair":
        a = canonicalize_group(p["group"])
        n_max = subgroup_from_generators(a, [tuple(g) for g in p.get("n_max", [])])
        return random_sharp_pair(a, n_max, spec.seed)
    if spec.kind == "matrix_bimodule":
        return matrix_bimodule(p["p"], p["k"], p["m"], spec.seed)
    if spec.kind == "split_bimodule":
        return split_bimodule(
            p["p"], p["n"], p.get("torsion", []), spec.seed, p.get("plant_witness", False)
        )
    if spec.kind == "fixture":
        name = p.get("name")
        if name == "nonliftable":
            return fixture_nonliftable(p.get("p", 2))
        raise InvalidInput(f"unknown fixture {name!r}")
    raise InvalidInput(f"unknown kind {spec.kind!r}")
