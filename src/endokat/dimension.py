"""Split groups: the exactly computable model of dimension and connectedness.

A split group is V (+) T with V elementary abelian of exponent p and T of
coprime order.  Every subgroup H then factors uniquely as H_p (+) H_T; the
p-part plays the role of the connected component, containment in T plays the
role of finiteness, and dim H = log_p |H_p|.  With the negligibility bound
set to T, the rank-nullity and connected-image laws of the relation calculus
hold exactly and are checked, not assumed.

Both parts are read off the canonical basis, with no Hermite form.  In the
coordinates of V (+) T the basis of H is lower triangular, so its V-block
(the first n rows and columns) is the canonical basis of the projection of H
to V, which is H_p; H_p's own basis is that block with diag(T's moduli) in
the T-block.  So dim H counts the unit pivots of the V-block.  Likewise the
T-block of H's basis is the canonical basis of H cap T, which is H_T; H_T's
own basis is that block with p on the V diagonal.
"""

from __future__ import annotations

import math

from . import linearize
from .errors import AmbientMismatch, InvalidInput
from .groups import AbelianGroup, FinAbGroup, Subgroup, check_characteristic
from .endogeny import Endogeny, EndogenySet, NegligibilityBound


class SplitGroup:
    """Ambient V (+) T in coordinates: the first n moduli are p, the rest
    are the torsion invariant factors."""

    __slots__ = ("p", "n", "torsion", "ambient", "bound")

    def __init__(self, p, n, torsion: FinAbGroup):
        check_characteristic(p)
        if n < 0:
            raise InvalidInput("negative rank")
        if math.gcd(p, torsion.order) != 1:
            raise InvalidInput("torsion order must be coprime to p")
        self.p = p
        self.n = n
        self.torsion = torsion
        self.ambient = AbelianGroup((p,) * n + torsion.moduli)
        r = torsion.rank
        t_gens = [(0,) * (n + i) + (1,) + (0,) * (r - 1 - i) for i in range(r)]
        self.bound = NegligibilityBound(self.ambient, Subgroup.from_generators(self.ambient, t_gens))

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

    def t_part(self) -> Subgroup:
        """T, the bound's ``n_max``, built once in ``__init__``."""
        return self.bound.n_max

    def _embed_v(self, v):
        return tuple(v) + (0,) * self.torsion.rank

    def split(self, h: Subgroup):
        """Coprime factorization H = H_p (+) H_T, both read off H's basis:
        H_T = H cap T is the rows of H's basis below the V-block with their
        first n entries zeroed, and p on the V diagonal."""
        hp, n, r = self.connected_component(h), self.n, self.ambient.rank
        vblock = tuple(tuple(self.p * (i == j) for j in range(r)) for i in range(n))
        return hp, Subgroup(self.ambient, vblock + tuple((0,) * n + row[n:] for row in h.basis[n:]))

    def dim(self, h: Subgroup) -> int:
        """log_p |H_p|: the unit pivots of the V-block of H's basis."""
        if h.group != self.ambient:
            raise AmbientMismatch("subgroup not in this split group")
        return sum(h.basis[i][i] == 1 for i in range(self.n))

    def connected_component(self, h: Subgroup) -> Subgroup:
        """The p-part H_p = |T| H: the V-block of H's basis, with the
        relation columns of T (|T| is a unit mod p)."""
        if h.group != self.ambient:
            raise AmbientMismatch("subgroup not in this split group")
        # rows of a lower-triangular basis above the T-block are zero there
        n, mods = self.n, self.ambient.moduli
        tblock = tuple(tuple(mods[i] * (i == j) for j in range(len(mods))) for i in range(n, len(mods)))
        return Subgroup(self.ambient, h.basis[:n] + tblock)

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
        lhs = g.apply_set(self.connected_component(b))
        rhs = self.connected_component(g.apply_set(b)) | g.kat()
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

    def subgroup_from_v_subspace(self, rows) -> Subgroup:
        """W (+) T for the subspace W of V spanned by ``rows``."""
        gens = [self._embed_v(v) for v in rows] + self.t_part().gen_columns()
        return Subgroup.from_generators(self.ambient, gens)


def is_minimal_bimodule(sg: SplitGroup, gamma: EndogenySet, delta: EndogenySet):
    """No intermediate-dimension subgroup is weakly invariant under all
    generators of both families.

    Any witness decomposes as W (+) S with W a common invariant subspace of
    the induced V-actions, and then W (+) T itself is a witness; so the
    search reduces to the matrix side, which the MeatAxe decides exactly
    (:func:`~endokat.linearize.invariant_subspace`).  Returns
    ``(True, None)`` or ``(False, witness_subgroup)``.
    """
    for fam in (gamma, delta):
        if fam.ambient != sg.ambient:
            raise AmbientMismatch("generator family not on this split group")
    mats = [sg.v_action_matrix(g) for g in gamma] + [sg.v_action_matrix(d) for d in delta]
    w = linearize.invariant_subspace(sg.p, sg.n, mats)
    if w is None:
        return True, None
    witness = sg.subgroup_from_v_subspace(w.tuples())
    for g in list(gamma) + list(delta):
        img = g.apply_set(witness)
        if not img.leq(witness | g.kat()):
            raise InvalidInput("reduced witness unexpectedly fails weak invariance")
    return False, witness
