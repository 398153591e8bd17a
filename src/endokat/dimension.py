"""Split groups: the exactly computable model of dimension and connectedness.

A split group is V (+) T with V elementary abelian of exponent p and T of
coprime order.  Every subgroup H then factors uniquely as H_p (+) H_T; the
p-part plays the role of the connected component, containment in T plays the
role of finiteness, and dim H = log_p |H_p|.  With the negligibility bound
set to T, the rank-nullity and connected-image laws of the relation calculus
hold exactly and are checked, not assumed.
"""

from __future__ import annotations

import math

from . import linearize
from .errors import AmbientMismatch, CapExceeded, Inconclusive, InvalidInput
from .groups import AbelianGroup, FinAbGroup, Subgroup, _prime_factorization
from .endogeny import Endogeny, EndogenySet, NegligibilityBound


class SplitGroup:
    """Ambient V (+) T in coordinates: the first n moduli are p, the rest
    are the torsion invariant factors."""

    __slots__ = ("p", "n", "torsion", "ambient", "bound")

    def __init__(self, p, n, torsion: FinAbGroup):
        if _prime_factorization(p) != {p: 1}:
            raise InvalidInput(f"{p} is not prime")
        if n < 0:
            raise InvalidInput("negative rank")
        if math.gcd(p, torsion.order) != 1:
            raise InvalidInput("torsion order must be coprime to p")
        self.p = p
        self.n = n
        self.torsion = torsion
        self.ambient = AbelianGroup((p,) * n + torsion.moduli)
        self.bound = NegligibilityBound(self.ambient, self.t_part())

    def __repr__(self):
        return f"SplitGroup(p={self.p}, n={self.n}, torsion={list(self.torsion.moduli)})"

    def __eq__(self, other):
        return (
            isinstance(other, SplitGroup)
            and self.p == other.p
            and self.n == other.n
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.p, self.n, self.torsion))

    def v_part(self) -> Subgroup:
        gens = [self._embed_v(tuple(int(i == j) for j in range(self.n))) for i in range(self.n)]
        return Subgroup.from_generators(self.ambient, gens)

    def t_part(self) -> Subgroup:
        r = self.torsion.rank
        gens = []
        for i in range(r):
            vec = [0] * (self.n + r)
            vec[self.n + i] = 1
            gens.append(tuple(vec))
        return Subgroup.from_generators(self.ambient, gens)

    def _embed_v(self, v):
        return tuple(v) + (0,) * self.torsion.rank

    def split(self, h: Subgroup):
        """Coprime factorization H = H_p (+) H_T, by scaling generators with
        the complementary order."""
        if h.group != self.ambient:
            raise AmbientMismatch("subgroup not in this split group")
        tq = self.torsion.order
        vq = self.p**self.n
        gens = h.gen_columns()
        hp = Subgroup.from_generators(self.ambient, [self.ambient.scalar_mul(tq, g) for g in gens])
        ht = Subgroup.from_generators(self.ambient, [self.ambient.scalar_mul(vq, g) for g in gens])
        return hp, ht

    def dim(self, h: Subgroup) -> int:
        hp, _ = self.split(h)
        order = hp.order
        d = 0
        while order > 1:
            order //= self.p
            d += 1
        return d

    def connected_component(self, h: Subgroup) -> Subgroup:
        return self.split(h)[0]

    def is_model_finite(self, h: Subgroup) -> bool:
        return self.split(h)[0].is_trivial

    def strictly_bigger(self, h1: Subgroup, h2: Subgroup) -> bool:
        """h1 >> h2: containment with a genuine dimension drop."""
        return h2.leq(h1) and self.dim(h1) > self.dim(h2)

    # -- law checks -----------------------------------------------------------

    def dimension_lemma_check(self, g: Endogeny):
        """dim ker + dim im = dim of the whole group; returns the triple and
        the verdict."""
        if g.source != self.ambient or g.target != self.ambient:
            raise AmbientMismatch("endogeny not on this split group")
        dk = self.dim(g.ker())
        di = self.dim(g.im())
        da = self.n
        return dk, di, da, dk + di == da

    def connectedness_lemma_check(self, g: Endogeny, b: Subgroup) -> bool:
        """image of the connected part = connected part of the image plus
        the blur."""
        bp, _ = self.split(b)
        lhs = g.apply_set(bp)
        img = g.apply_set(b)
        imgp, _ = self.split(img)
        rhs = imgp | g.kat()
        return lhs == rhs

    def v_action_matrix(self, g: Endogeny):
        """Induced p-linear action on V (well defined because the blur lies
        inside T)."""
        cols = []
        for i in range(self.n):
            e = self._embed_v(tuple(int(i == j) for j in range(self.n)))
            rep = g.apply(e).rep
            cols.append(tuple(x % self.p for x in rep[: self.n]))
        return tuple(tuple(cols[j][i] for j in range(self.n)) for i in range(self.n))

    def subgroup_from_v_subspace(self, rows, include_torsion=True) -> Subgroup:
        gens = [self._embed_v(v) for v in rows]
        if include_torsion:
            gens += self.t_part().gen_columns()
        return Subgroup.from_generators(self.ambient, gens)


def is_minimal_bimodule(sg: SplitGroup, gamma: EndogenySet, delta: EndogenySet):
    """No intermediate-dimension subgroup is weakly invariant under all
    generators of both families.

    Any witness decomposes as W (+) S with W a common invariant subspace of
    the induced V-actions, and then W (+) T itself is a witness; so the
    search reduces to the matrix side, which is exhaustive over seed vectors
    up to a cap (see the spin-up search).  Returns ``(True, None)`` or
    ``(False, witness_subgroup)``.
    """
    for fam in (gamma, delta):
        if fam.ambient != sg.ambient:
            raise AmbientMismatch("generator family not on this split group")
    mats = [sg.v_action_matrix(g) for g in gamma] + [sg.v_action_matrix(d) for d in delta]
    try:
        w = linearize.invariant_subspace(sg.p, sg.n, mats)
    except Inconclusive as exc:  # pragma: no cover - cap regime
        raise CapExceeded(str(exc)) from exc
    if w is None:
        return True, None
    witness = sg.subgroup_from_v_subspace(w, include_torsion=True)
    for g in list(gamma) + list(delta):
        img = g.apply_set(witness)
        if not img.leq(witness | g.kat()):
            raise InvalidInput("reduced witness unexpectedly fails weak invariance")
    return False, witness
