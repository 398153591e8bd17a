"""Deterministic fixtures and seeded instance generators.

Every generator is a pure function of its parameters and a 64-bit seed
(SplitMix64 streams), validates its own output, and emits the same bytes for
the same parameters.  Random relations are drawn as their katakernel K and
value columns V and built by :meth:`Endogeny.from_values`, whose checks (V
well defined modulo K, K within the bound) validate them with no Hermite
form in the product group.  The fixture carries the hand-checkable corner
case: the blurred relation on Z/p (+) Z/p^2 that is equivalent to no
endomorphism at all (the all-to-a-coset blur A x F is ``from_values`` with
katakernel F and zero values).
Exhaustive searches over small groups are test references and live with
the tests.
"""

from __future__ import annotations

import math

from . import fp
from .dimension import SplitGroup, is_minimal_bimodule
from .endogeny import (
    Endogeny,
    EndogenySet,
    NegligibilityBound,
    endogeny_validate,
    sharp_commutes,
)
from .errors import BudgetExceeded, InvalidInput
from .groups import (
    AbelianGroup,
    FinAbGroup,
    Homomorphism,
    Subgroup,
    canonicalize_group,
    check_characteristic,
    quotient,
    subgroup_from_generators,
)
from .rng import SplitMix64


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
    """Random subgroup inside h: span of up to rank-many random members,
    each an integer combination of h's generators that the kernel reduces."""
    cols = h.gen_columns()
    if not cols:
        return h
    g = h.group
    exponent = g.exponent
    gens = []
    for _ in range(1 + rng.below(len(cols) + 1)):
        v = [0] * g.rank
        for c in cols:
            k = rng.below(exponent)
            if k:
                v = [x + k * y for x, y in zip(v, c)]
        gens.append(v)
    return Subgroup._span(g, gens)


def _torsion_columns(b: AbelianGroup, d):
    """Canonical generators of the d-torsion {y : d y = 0} of b: its
    canonical basis is diag(m_i / gcd(m_i, d)), so they are the columns
    (m_i / gcd(m_i, d)) e_i with gcd(m_i, d) > 1, in index order."""
    cols = []
    for i, m in enumerate(b.moduli):
        g = math.gcd(m, d)
        if g > 1:
            cols.append(tuple(m // g if j == i else 0 for j in range(b.rank)))
    return cols


def random_homomorphism(a: AbelianGroup, b: AbelianGroup, rng: SplitMix64) -> Homomorphism:
    """Uniform-ish seeded homomorphism: each generator image is drawn from
    the subgroup of elements its order must kill."""
    cols = []
    exponent = b.exponent
    for d in a.moduli:
        y = b.zero
        for c in _torsion_columns(b, d):
            y = b.add(y, b.scalar_mul(rng.below(exponent), c))
        cols.append(y)
    rows = [[cols[j][i] for j in range(a.rank)] for i in range(b.rank)]
    return Homomorphism(a, b, rows)


def polynomial(base: Homomorphism, coeffs) -> Homomorphism:
    """sum_i coeffs[i] * base**i, for an endomorphism ``base``, summed as
    one integer matrix and reduced once.  Row i of each power is kept
    reduced modulo the i-th cyclic order, which is all row i of the next
    power and of the sum depend on."""
    g, b = base.source, base.matrix
    mods, r = g.moduli, g.rank
    power = [[int(i == j) for j in range(r)] for i in range(r)]
    acc = [[0] * r for _ in range(r)]
    for i, c in enumerate(coeffs):
        if i:
            power = [[sum(x * b[k][j] for k, x in enumerate(row)) % m for j in range(r)] for row, m in zip(power, mods)]
        if c:
            acc = [[x + c * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
    return Homomorphism(g, g, acc, _trusted=True)


def random_endogeny(a: AbelianGroup, n_max: Subgroup, seed: int) -> Endogeny:
    """Pullback of a random morphism into A/F for a random negligible F;
    every relation with katakernel F arises this way."""
    rng = SplitMix64(seed)
    bound = NegligibilityBound(a, n_max)
    f = random_subgroup_of(n_max, rng)
    q, proj = quotient(a, f)
    g = random_homomorphism(a, q, rng)
    return Endogeny.from_values(a, f, [proj.lift(g(e)) for e in a.generators()], bound)


# ---------------------------------------------------------------------------
# Matrix and split bi-module instances.


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
    check_characteristic(p)
    if k < 1 or m < 1:
        raise InvalidInput("field degree and dimension must be positive")
    n = k * m
    unit = fp.identity(p, n)
    gamma = []
    for i in range(m - 1):
        # the identity of block row a placed in block column b
        for a, b in ((i, i + 1), (i + 1, i)):
            gamma.append(fp.Matrix(p, n, tuple(unit.rows[b * k + r % k] if r // k == a else 0 for r in range(n))))
    scalar = fp.block_diagonal([fp.companion(p, fp.lex_min_irreducible(p, k))] * m)
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
        "gamma_generators": [x.tuples() for x in gamma],
        "delta_generators": [x.tuples() for x in delta],
        "ground_truth": {"field_order": p**k, "vs_dimension": m},
    }


def _morphism_endogeny(sg: SplitGroup, vmat, blur: Subgroup, bound: NegligibilityBound) -> Endogeny:
    """Relation acting on V by the matrix, given by rows of entries in
    [0, p), killing T, blurred by a subgroup of T: e_i maps to column i."""
    amb = sg.ambient
    vals = [sg._embed_v(img) for img in zip(*vmat)] + [amb.zero] * sg.torsion.rank
    return Endogeny.from_values(amb, blur, vals, bound)


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
    if n < 1:
        raise InvalidInput("a split bi-module needs rank n >= 1")
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
            mats.append(tuple(map(tuple, rows)))
        gmats = mats
        dmats = [fp.identity(p, n).tuples()]
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
    tpart = bound.n_max
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
