"""Matrix-algebra machinery over F_p: commutants, minimal images, direct
decomposition into lines, transport between lines, lifting of local maps,
and extraction of the coefficient field of an irreducible bi-module.

The pipeline mirrors the constructive double-centralizer route: replace the
two commuting generator families by mutual centralizers, split the space
into minimal images ("lines") by orthogonal idempotents of the first
algebra, extract the coefficient field on one line recursively, and lift a
basis of it along invertible transporters.  Every step revalidates its
postconditions, so a hypothesis failure surfaces as a typed error with a
witness instead of a wrong report.
"""

from __future__ import annotations

from itertools import islice

from . import config, fp
from .errors import (
    CapExceeded,
    FieldTestFailure,
    HypothesisViolation,
    Inconclusive,
    InvalidInput,
    NoProjection,
    NotLocallyCentral,
    NoTransporter,
)


class MatrixAlgebra:
    """Unital subalgebra of Mat_n(F_p) with a canonical linear basis.

    ``basis`` is the reduced echelon basis of the algebra as a subspace of
    flattened matrices; two algebras are equal iff their bases are.
    """

    __slots__ = ("p", "n", "generators", "basis", "_commutant")

    def __init__(self, p, n, generators, basis):
        self.p = p
        self.n = n
        self.generators = tuple(generators)
        self.basis = tuple(basis)
        self._commutant = None  # filled by _commutant_of

    @property
    def dim(self):
        return len(self.basis)

    @property
    def size(self):
        return self.p**self.dim

    def __eq__(self, other):
        return (
            isinstance(other, MatrixAlgebra)
            and self.p == other.p
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.p, self.n, self.basis))

    def __repr__(self):
        return f"MatrixAlgebra(p={self.p}, n={self.n}, dim={self.dim})"

    def contains(self, m):
        return fp.in_span(self.p, [fp.flatten(b) for b in self.basis], fp.flatten(m))

    def leq(self, other):
        return all(other.contains(b) for b in self.basis)

    def elements(self, cap):
        """All p**dim elements, in the order of :func:`_combinations`.
        Errors above ``cap``; never truncates."""
        if self.size > cap:
            raise CapExceeded(f"algebra closure of size {self.size} above cap {cap}")
        return list(_combinations(self.p, self.basis, fp.zero(self.n)))

    def is_commutative(self):
        for i, a in enumerate(self.basis):
            for b in self.basis[i + 1 :]:
                if fp.mul(self.p, a, b) != fp.mul(self.p, b, a):
                    return False
        return True


def _combinations(p, basis, zero):
    """Every F_p-combination of the matrices in ``basis``, starting with
    ``zero``, in lexicographic order of the coefficient tuple (c_0 most
    significant).  Witnesses, intertwiners and transporters are the first
    hit in this order, so it is part of every output.

    The next tuple raises one digit c_j by one and wraps every later digit
    from p - 1 to 0; mod p both add the basis element once, so each step is
    one addition of the suffix sum b_j + ... + b_last.
    """
    d = len(basis)
    suffix = list(basis)
    for j in range(d - 2, -1, -1):
        suffix[j] = fp.add(p, basis[j], suffix[j + 1])
    coeffs = [0] * d
    m = zero
    yield m
    while True:
        j = d - 1
        while j >= 0 and coeffs[j] == p - 1:
            coeffs[j] = 0
            j -= 1
        if j < 0:
            return
        coeffs[j] += 1
        m = fp.add(p, m, suffix[j])
        yield m


def _combine(p, n, basis, coeffs):
    """The single combination sum c_i b_i."""
    m = fp.zero(n)
    for c, b in zip(coeffs, basis):
        if c:
            m = fp.add(p, m, fp.scalar(p, c, b))
    return m


def _nullspace(p, rows, width):
    """fp.nullspace, with every vector of the given width solving an empty
    system."""
    if not rows:
        return [tuple(int(s == t) for t in range(width)) for s in range(width)]
    return fp.nullspace(p, rows)


def _span_basis(p, mats):
    rows = [fp.flatten(m) for m in mats]
    red = fp.row_space(p, rows)
    n = len(mats[0]) if mats else 0
    return tuple(fp.unflatten(v, n) for v in red)


def algebra_closure(generators, p, n):
    """Unital closure of the generators under +, -, and product: the linear
    basis saturated under products (cheap, bounded by n^2)."""
    generators = tuple(generators)
    if n == 0:
        raise InvalidInput("zero-dimensional space has no unital matrix algebra here")
    mats = [fp.identity(n)] + [fp.mat(g, p) for g in generators]
    basis = list(_span_basis(p, mats))
    while True:
        fresh = []
        flat = [fp.flatten(b) for b in basis]
        for a in basis:
            for b in basis:
                ab = fp.mul(p, a, b)
                v = fp.flatten(ab)
                if not fp.in_span(p, fp.row_space(p, flat + [fp.flatten(x) for x in fresh]), v):
                    fresh.append(ab)
        if not fresh:
            break
        basis = list(_span_basis(p, basis + fresh))
    return MatrixAlgebra(p, n, generators, _span_basis(p, basis))


def _intertwiners(p, k, pairs):
    """Flattened k x k matrices X with B X = X A for every (A, B) in pairs,
    as the basis fp.nullspace returns."""
    rows = []
    for a, b in pairs:
        for i in range(k):
            for j in range(k):
                row = [0] * (k * k)
                for t in range(k):
                    row[t * k + j] = (row[t * k + j] + b[i][t]) % p
                for t in range(k):
                    row[i * k + t] = (row[i * k + t] - a[t][j]) % p
                rows.append(tuple(row))
    return _nullspace(p, rows, k * k)


def centralizer(mats, p, n) -> MatrixAlgebra:
    """Full commutant {X : XM = MX for all M} as an algebra with canonical
    basis, by solving the linear system directly."""
    mats = [fp.mat(m, p) for m in mats]
    basis = fp.row_space(p, _intertwiners(p, n, [(m, m) for m in mats]))
    mats_basis = tuple(fp.unflatten(v, n) for v in basis)
    return MatrixAlgebra(p, n, mats_basis, mats_basis)


def _commutant_of(alg: MatrixAlgebra) -> MatrixAlgebra:
    """Commutant of the algebra's generators (its basis if it has none),
    computed once per algebra object."""
    if alg._commutant is None:
        alg._commutant = centralizer(alg.generators or alg.basis, p=alg.p, n=alg.n)
    return alg._commutant


# ---------------------------------------------------------------------------
# Invariant subspaces.


def invariant_subspace(p, n, gens):
    """A nonzero proper subspace stable under every generator, or None.

    For p**n up to ``config.SPIN_EXHAUSTIVE_CAP`` the search spins up every
    1-dimensional seed and is therefore complete.  Above the cap, a
    deterministic seed set plus kernel seeds of singular elements is tried,
    backed by a null-space certificate; if neither a witness nor a
    certificate is found the search reports :class:`Inconclusive` rather than
    guessing.
    """
    cap = config.SPIN_EXHAUSTIVE_CAP
    gens = [fp.mat(g, p) for g in gens]
    if n <= 1:
        return None
    if not gens:
        return ((1,) + (0,) * (n - 1),)
    if p**n <= cap:
        for v in fp.projective_vectors(p, n):
            w = fp.spin_subspace(p, gens, [v], n)
            if 0 < len(w) < n:
                return w
        return None
    # Capped regime: seeds from unit vectors and kernels of singular elements.
    seeds = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    singulars = []
    for g in gens:
        if fp.rank(p, g) < n:
            singulars.append(g)
    for a in gens:
        for b in gens:
            ab = fp.mul(p, a, b)
            if 0 < fp.rank(p, ab) < n:
                singulars.append(ab)
    for z in singulars[:8]:
        seeds.extend(fp.nullspace(p, z)[:4])
    for v in seeds:
        if not any(v):
            continue
        w = fp.spin_subspace(p, gens, [v], n)
        if 0 < len(w) < n:
            return w
    # Null-space certificate: for a singular z, if every kernel vector of z
    # spins to the full space and some kernel vector of z^T spins to the
    # full space under the transposed generators, the module is irreducible.
    for z in singulars:
        kz = fp.nullspace(p, z)
        if not kz or p ** len(kz) > cap:
            continue
        for (v,) in islice(_combinations(p, [(kv,) for kv in kz], fp.zero(1, n)), 1, None):
            w = fp.spin_subspace(p, gens, [v], n)
            if len(w) < n:
                return w
        zt = fp.transpose(z)
        kt = fp.nullspace(p, zt)
        gt = [fp.transpose(g) for g in gens]
        wt = fp.spin_subspace(p, gt, [kt[0]], n)
        if len(wt) == n:
            return None
        # the annihilator of a proper dual submodule is a proper submodule
        ann = fp.nullspace(p, wt)
        return fp.row_space(p, ann)
    raise Inconclusive("invariant-subspace search capped without certificate")


def is_irreducible(alg: MatrixAlgebra):
    """(verdict, witness): witness is a proper invariant subspace if any."""
    w = invariant_subspace(alg.p, alg.n, alg.generators or alg.basis)
    return (w is None), w


def common_invariant_subspace(galg: MatrixAlgebra, dalg: MatrixAlgebra):
    """A subspace invariant under both algebras, or None."""
    gens = list(galg.generators or galg.basis) + list(dalg.generators or dalg.basis)
    return invariant_subspace(galg.p, galg.n, gens)


# ---------------------------------------------------------------------------
# Lines.


class Line:
    """A minimal nonzero image subspace of the algebra, with a witness
    element whose image it is."""

    __slots__ = ("subspace", "witness")

    def __init__(self, subspace, witness):
        self.subspace = tuple(subspace)
        self.witness = witness

    @property
    def dim(self):
        return len(self.subspace)

    def __eq__(self, other):
        return isinstance(other, Line) and self.subspace == other.subspace

    def __hash__(self):
        return hash(self.subspace)

    def __repr__(self):
        return f"Line(dim={self.dim}, basis={self.subspace})"


def _into_equations(alg: MatrixAlgebra, subspace):
    """Rows over the coefficients of alg.basis saying that the combination
    maps into span(subspace): y . (X e_j) = 0 for every annihilator y of the
    subspace and every column j."""
    p, n = alg.p, alg.n
    return [
        tuple(sum(y[i] * b[i][j] for i in range(n)) % p for b in alg.basis)
        for y in fp.nullspace(p, subspace)
        for j in range(n)
    ]


def _left_ideal_into(alg: MatrixAlgebra, subspace):
    """Basis of {X in alg : im X <= span(subspace)} as algebra elements."""
    sol = _nullspace(alg.p, _into_equations(alg, subspace), alg.dim)
    return _span_basis(alg.p, [_combine(alg.p, alg.n, alg.basis, coeffs) for coeffs in sol])


def _restricted_ideal(alg: MatrixAlgebra, subspace):
    """The left ideal of maps into ``subspace``, restricted to it."""
    return [_restricted(alg.p, x, subspace, subspace) for x in _left_ideal_into(alg, subspace)]


def _minimal_image(alg: MatrixAlgebra):
    """One inclusion-minimal nonzero image subspace with a witness, via
    left-ideal refinement.  Minimality is certified by full enumeration of
    the ideal of maps into the candidate."""
    p, n = alg.p, alg.n
    candidates = list(alg.basis)
    for i, a in enumerate(alg.basis):
        for b in alg.basis[i:]:
            candidates.append(fp.mul(p, a, b))
    best = None
    best_rank = n + 1
    for m in candidates:
        r = fp.rank(p, m)
        if 0 < r < best_rank:
            best, best_rank = m, r
    if best is None:
        raise InvalidInput("zero algebra has no nonzero image")
    if best_rank == n and alg.is_commutative():
        if is_field(alg):
            return fp.identity(n), fp.row_space(p, fp.identity(n))
        # commutative non-field: a zero divisor exists among all elements
        if alg.size <= config.FIELD_ENUM_CAP:
            for m in alg.elements(config.FIELD_ENUM_CAP):
                r = fp.rank(p, m)
                if 0 < r < best_rank:
                    best, best_rank = m, r
    if best_rank == n:
        # deterministic pseudo-random sweep for a singular element; a
        # non-commutative algebra over a finite field always has one
        state = 0x9E3779B97F4A7C15
        for _ in range(5000):
            coeffs = []
            for _ in range(alg.dim):
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                coeffs.append(state >> 33)
            m = _combine(p, n, alg.basis, [c % p for c in coeffs])
            r = fp.rank(p, m)
            if 0 < r < best_rank:
                best, best_rank = m, r
                break
        if best_rank == n:
            raise Inconclusive("no singular element found within the sweep budget")
    u = fp.column_space(p, best)
    while True:
        ideal = _left_ideal_into(alg, u)
        if p ** len(ideal) > config.CLOSURE_CAP:
            raise Inconclusive("image-minimality refinement above the closure cap")
        smaller = next((m for m in _combinations(p, ideal, fp.zero(n)) if 0 < fp.rank(p, m) < len(u)), None)
        if smaller is None:
            return best, u
        best = smaller
        u = fp.column_space(p, best)


def lines(alg: MatrixAlgebra):
    """All minimal nonzero image subspaces, each with a witness, in
    lexicographic order of their canonical bases.

    Up to ``config.CLOSURE_CAP`` elements the algebra is enumerated and the
    result is exact by definition.  Beyond the cap one minimal image is found
    and certified by ideal refinement and the remaining lines are enumerated
    through the restriction space (complete in the mutual-centralizer setting
    the pipeline verifies; see the design notes in the README).
    """
    cap = config.CLOSURE_CAP
    p, n = alg.p, alg.n
    if alg.size <= cap:
        found = {}
        k = n + 1
        for m in alg.elements(cap):
            r = fp.rank(p, m)
            if r == 0 or r > k:
                continue
            u = fp.column_space(p, m)
            if r < k:
                k = r
                found = {u: m}
            elif u not in found:
                found[u] = m
        if not found:
            raise InvalidInput("zero algebra has no lines")
        return [Line(u, w) for u, w in sorted(found.items())]
    witness, u = _minimal_image(alg)
    k = len(u)
    if k == n:
        return [Line(u, witness)]
    bcols = fp.transpose(u)
    rest = []
    for b in alg.basis:
        rest.append((fp.flatten(fp.mul(p, b, bcols)), b))
    indep = []
    span_rows = []
    for vec, b in rest:
        if not fp.in_span(p, fp.row_space(p, span_rows), vec):
            indep.append((vec, b))
            span_rows.append(vec)
    if p ** len(indep) > cap:
        raise Inconclusive("restriction space too large to enumerate lines")
    pi_u = _projection_into(alg, u)
    if pi_u is None:
        raise Inconclusive("no idempotent onto the minimal image outside the cap")
    found = {}
    phis = _combinations(p, [fp.unflatten(vec, n, k) for vec, _ in indep], fp.zero(n, k))
    ws = _combinations(p, [b for _, b in indep], fp.zero(n))
    for phi, w in zip(phis, ws):
        if fp.rank(p, phi) == k:
            u2 = fp.column_space(p, phi)
            if u2 not in found:
                # witness with image exactly u2: w after the idempotent onto u
                found[u2] = fp.mul(p, w, pi_u)
    out = [Line(us, w) for us, w in sorted(found.items())]
    if any(line.dim != k for line in out):
        raise HypothesisViolation("line dimensions disagree", witness=out)
    return out


def _projection_into(alg: MatrixAlgebra, subspace):
    """Solve for an idempotent in the algebra with image the subspace and
    restriction the identity; None when no such element exists."""
    p, n = alg.p, alg.n
    bcols = fp.transpose(subspace)
    k = len(subspace)
    d = alg.dim
    images = [fp.mul(p, b, bcols) for b in alg.basis]
    aug = [tuple(im[i][j] for im in images) + (bcols[i][j],) for i in range(n) for j in range(k)]
    aug += [row + (0,) for row in _into_equations(alg, subspace)]
    red, piv = fp.rref(p, aug)
    coeffs = [0] * d
    for row, pc in zip(red, piv):
        if pc == d:
            return None
        coeffs[pc] = row[d]
    return _combine(p, n, alg.basis, coeffs)


def projection_onto_line(line: Line, galg: MatrixAlgebra, dalg: MatrixAlgebra):
    """Idempotent in galg with image the line, commuting with dalg.

    Requires galg to be the full commutant of dalg (checked, once per dalg
    object); failure to solve signals that hypothesis broke down.
    """
    p = galg.p
    if _commutant_of(dalg) != galg:
        raise HypothesisViolation("first algebra is not the commutant of the second")
    pi = _projection_into(galg, line.subspace)
    if pi is None:
        raise NoProjection("no idempotent onto the line exists in the algebra")
    if fp.mul(p, pi, pi) != pi or fp.column_space(p, pi) != line.subspace:
        raise NoProjection("solved element fails the projection postconditions")
    for d in dalg.generators or dalg.basis:
        if fp.mul(p, pi, d) != fp.mul(p, d, pi):
            raise NoProjection("projection fails to commute with the second algebra")
    return pi


class Decomposition:
    """Orthogonal idempotents summing to the identity, one per line."""

    __slots__ = ("p", "n", "lines", "projections")

    def __init__(self, p, n, lines, projections):
        self.p = p
        self.n = n
        self.lines = list(lines)
        self.projections = list(projections)

    def verify(self, dalg=None):
        p, n = self.p, self.n
        total = fp.zero(n)
        for i, pi in enumerate(self.projections):
            total = fp.add(p, total, pi)
            if fp.mul(p, pi, pi) != pi:
                raise HypothesisViolation("projection not idempotent", witness=pi)
            if fp.column_space(p, pi) != self.lines[i].subspace:
                raise HypothesisViolation("projection image is not its line", witness=pi)
            for j, pj in enumerate(self.projections):
                if i != j and any(any(r) for r in fp.mul(p, pi, pj)):
                    raise HypothesisViolation("projections not orthogonal", witness=(i, j))
        if total != fp.identity(n):
            raise HypothesisViolation("projections do not sum to the identity", witness=total)
        if dalg is not None:
            for pi in self.projections:
                for d in dalg.generators or dalg.basis:
                    if fp.mul(p, pi, d) != fp.mul(p, d, pi):
                        raise HypothesisViolation("projection fails to commute", witness=pi)
        return True


def _subspace_leq(p, sub1, sub2):
    return all(fp.in_span(p, sub2, v) for v in sub1)


def decompose(galg: MatrixAlgebra, dalg: MatrixAlgebra) -> Decomposition:
    """Split the space into a direct sum of lines with orthogonal
    idempotents from galg, greedily inside the running complement."""
    p, n = galg.p, galg.n
    lam = lines(galg)
    chosen = []
    projections = []
    rho = fp.identity(n)
    produced = 0
    while True:
        covered = sum(line.dim for line in chosen)
        if covered >= n:
            break
        w = fp.column_space(p, rho)
        pick = None
        for line in lam:
            if _subspace_leq(p, line.subspace, w):
                pick = line
                break
        if pick is None:
            raise HypothesisViolation("no line inside the remaining complement", witness=w)
        pi_line = projection_onto_line(pick, galg, dalg)
        pi = fp.mul(p, pi_line, rho)
        chosen.append(pick)
        projections.append(pi)
        rho = fp.sub(p, rho, pi)
        produced += 1
        if produced > n:
            raise HypothesisViolation("decomposition failed to terminate")
    dec = Decomposition(p, n, chosen, projections)
    dec.verify(dalg)
    return dec


def _restricted(p, m, src, dst):
    """Coordinates of m as a map from the line src to the line dst (both
    given by basis rows); src == dst restricts m to one line."""
    mb = fp.mul(p, m, fp.transpose(src))
    b2 = fp.transpose(dst)
    cols = []
    for j in range(len(src)):
        sol = fp.solve(p, b2, tuple(row[j] for row in mb))
        if sol is None:
            raise InvalidInput("matrix does not map the line into the target line")
        cols.append(sol)
    return fp.transpose(cols)


def _coordinate_map(p, line_basis):
    """k x n matrix K with K * B = identity for B the column basis of the
    line; sends a vector of the line to its basis coordinates."""
    k = len(line_basis)
    bt = tuple(tuple(r) for r in line_basis)  # k x n, rows = basis vectors
    rows = []
    for j in range(k):
        e = tuple(int(i == j) for i in range(k))
        # y . (basis row i) = delta_ij  <=>  bt * y = e_j
        y = fp.solve(p, bt, e)
        rows.append(y)
    return tuple(rows)


def _delta_iso(l1: Line, l2: Line, dalg: MatrixAlgebra):
    """Invertible map of line coordinates intertwining the restricted action
    of dalg: the identity when l1 == l2, else the first one in walk order;
    None if only singular maps intertwine."""
    p = dalg.p
    k = l1.dim
    if l2.dim != k:
        return None
    # restricting before the l1 == l2 shortcut keeps the InvalidInput for a
    # dalg that does not preserve the lines
    pairs = [
        (_restricted(p, d, l1.subspace, l1.subspace), _restricted(p, d, l2.subspace, l2.subspace))
        for d in (dalg.generators or dalg.basis)
    ]
    if l1.subspace == l2.subspace:
        return fp.identity(k)
    sols = [fp.unflatten(s, k) for s in _intertwiners(p, k, pairs)]
    if p ** len(sols) > config.CLOSURE_CAP:
        raise CapExceeded("intertwiner space too large to sweep")
    for phi in islice(_combinations(p, sols, fp.zero(k)), 1, None):
        if fp.is_invertible(p, phi):
            return phi
    return None


def transporter(l1: Line, l2: Line, galg: MatrixAlgebra, dalg: MatrixAlgebra):
    """Invertible element of galg mapping l1 onto l2 and intertwining dalg;
    it induces the coordinate map :func:`_delta_iso` picks."""
    p, n = galg.p, galg.n
    k = l1.dim
    phi = _delta_iso(l1, l2, dalg)
    if phi is None:
        raise NoTransporter("no invertible intertwiner between the lines")
    b1 = fp.transpose(l1.subspace)
    b2 = fp.transpose(l2.subspace)
    k1 = _coordinate_map(p, l1.subspace)
    pi0 = projection_onto_line(l1, galg, dalg)
    t = fp.mul(p, pi0, b2)
    rank_t = fp.rank(p, t)
    phi_hat = fp.mul(p, fp.mul(p, b2, phi), fp.mul(p, k1, pi0))
    if rank_t == k:
        gamma = fp.add(p, phi_hat, fp.sub(p, fp.identity(n), pi0))
    elif rank_t == 0:
        pi2 = fp.mul(p, projection_onto_line(l2, galg, dalg), fp.sub(p, fp.identity(n), pi0))
        k2 = _coordinate_map(p, l2.subspace)
        inv_phi = fp.inverse(p, phi)
        psi = fp.mul(p, fp.mul(p, b1, inv_phi), fp.mul(p, k2, pi2))
        rest = fp.sub(p, fp.sub(p, fp.identity(n), pi0), pi2)
        gamma = fp.add(p, fp.add(p, phi_hat, psi), rest)
    else:
        raise NoTransporter("line meets the complement nontrivially")
    if not fp.is_invertible(p, gamma):
        raise NoTransporter("constructed transporter is singular")
    if fp.column_space(p, fp.mul(p, gamma, b1)) != l2.subspace:
        raise NoTransporter("transporter does not carry the line onto the target")
    for d in dalg.generators or dalg.basis:
        if fp.mul(p, gamma, d) != fp.mul(p, d, gamma):
            raise NoTransporter("transporter fails to commute with the second algebra")
    return gamma


def lift_endomorphism(phis, line: Line, dec: Decomposition, galg: MatrixAlgebra, dalg: MatrixAlgebra, gl):
    """Extend maps that are central in both restricted algebras on one line
    to the whole space: transport each to every line of the decomposition
    and sum the pieces through the idempotents.  ``gl`` is the restricted
    left ideal of ``line`` in galg (:func:`_restricted_ideal`), which the
    caller has already built.  Returns the lifts in the order of ``phis``;
    each transporter is built once for all of them."""
    p, n = galg.p, galg.n
    dl = [_restricted(p, d, line.subspace, line.subspace) for d in (dalg.generators or dalg.basis)]
    for phi in phis:
        for m in dl + gl:
            if fp.mul(p, m, phi) != fp.mul(p, phi, m):
                raise NotLocallyCentral("map is not central in the restricted algebras")
    # per line: its restricted left ideal, the transporter from ``line`` and
    # its inverse in line coordinates (None on ``line`` itself), and the
    # outer factors of the piece
    pieces = []
    for li, pi in zip(dec.lines, dec.projections):
        if li.subspace == line.subspace:
            xl, move = gl, None
        else:
            xl = _restricted_ideal(galg, li.subspace)
            t = _restricted(p, transporter(line, li, galg, dalg), line.subspace, li.subspace)
            move = (t, fp.inverse(p, t))
        kpi = fp.mul(p, _coordinate_map(p, li.subspace), pi)
        pieces.append((xl, move, fp.transpose(li.subspace), kpi))
    commuting = list(galg.generators or galg.basis) + list(dalg.generators or dalg.basis)
    out = []
    for phi in phis:
        hat = fp.zero(n)
        for xl, move, bi, kpi in pieces:
            phi_i = phi if move is None else fp.mul(p, fp.mul(p, move[0], phi), move[1])
            for xr in xl:
                if fp.mul(p, xr, phi_i) != fp.mul(p, phi_i, xr):
                    raise NotLocallyCentral("transported map depends on the transporter")
            hat = fp.add(p, hat, fp.mul(p, fp.mul(p, bi, phi_i), kpi))
        for g in commuting:
            if fp.mul(p, hat, g) != fp.mul(p, g, hat):
                raise NotLocallyCentral("lift fails to commute with the algebras")
        if _restricted(p, hat, line.subspace, line.subspace) != phi:
            raise NotLocallyCentral("lift does not restrict to the given map")
        out.append(hat)
    return out


def is_field(alg: MatrixAlgebra):
    """Field certificate: commutative, and some element's minimal polynomial
    is irreducible of degree equal to the linear dimension.

    Sweeps basis elements, then pairwise sums, then (up to
    ``config.FIELD_ENUM_CAP`` elements) the whole algebra; a singular nonzero
    element decides negatively at once.
    """
    p, n = alg.p, alg.n
    if alg.dim == 0:
        return False
    if not alg.is_commutative():
        return False

    def verdict(m):
        if not any(any(r) for r in m):
            return None
        if fp.rank(p, m) < n:
            return False
        mp = fp.minimal_polynomial(p, m)
        if len(mp) - 1 == alg.dim and fp.poly_is_irreducible(p, mp):
            return True
        return None

    tier1 = list(alg.basis)
    tier2 = []
    for i, a in enumerate(alg.basis):
        for b in alg.basis[i + 1 :]:
            tier2.append(fp.add(p, a, b))
    for m in tier1 + tier2:
        v = verdict(m)
        if v is not None:
            return v
    if alg.size > config.FIELD_ENUM_CAP:
        raise Inconclusive("field certificate sweep capped")
    for m in alg.elements(config.FIELD_ENUM_CAP):
        v = verdict(m)
        if v is not None:
            return v
    return False


class FieldReport:
    """Result of the field extraction: the coefficient field as matrices,
    its order, and a vector-space basis of the ambient space over it."""

    __slots__ = ("p", "n", "field_basis", "order", "vs_dimension", "k_basis_of_v")

    def __init__(self, p, n, field_basis, order, vs_dimension, k_basis_of_v):
        self.p = p
        self.n = n
        self.field_basis = tuple(field_basis)
        self.order = order
        self.vs_dimension = vs_dimension
        self.k_basis_of_v = tuple(k_basis_of_v)

    def __repr__(self):
        return f"FieldReport(order={self.order}, vs_dimension={self.vs_dimension})"

    def field_algebra(self):
        return MatrixAlgebra(self.p, self.n, self.field_basis, _span_basis(self.p, list(self.field_basis) + [fp.identity(self.n)]))

    def verify(self, gamma_gens, delta_gens):
        p, n = self.p, self.n
        alg = self.field_algebra()
        k = alg.dim
        if self.order != p**k:
            raise FieldTestFailure("reported order disagrees with the basis")
        if n != k * self.vs_dimension:
            raise FieldTestFailure("n != k * m")
        if not alg.is_commutative():
            raise FieldTestFailure("field basis is not commutative")
        for m in alg.elements(config.FIELD_ENUM_CAP):
            if any(any(r) for r in m) and not fp.is_invertible(p, m):
                raise FieldTestFailure("nonzero element is singular", element=m)
        for g in list(gamma_gens) + list(delta_gens):
            for b in self.field_basis:
                if fp.mul(p, fp.mat(g, p), b) != fp.mul(p, b, fp.mat(g, p)):
                    raise FieldTestFailure("algebra generator fails to commute with the field", element=b)
        # the flagged vectors really are a basis over the field
        vecs = []
        for v in self.k_basis_of_v:
            for b in alg.basis:
                vecs.append(fp.matvec(p, b, v))
        if len(fp.row_space(p, vecs)) != n:
            raise FieldTestFailure("flagged vectors do not span over the field")
        return True


def _k_basis_of_v(p, n, field_basis):
    """Greedy vector-space basis of F_p^n over the field spanned by the
    given commuting matrices."""
    have = ()
    out = []
    for v in fp.projective_vectors(p, n):
        if fp.in_span(p, have, v):
            continue
        out.append(v)
        vecs = list(have)
        for b in field_basis:
            vecs.append(fp.matvec(p, b, v))
        have = fp.row_space(p, vecs)
        if len(have) == n:
            break
    return out


def extract_field(p, n, gamma_gens, delta_gens) -> FieldReport:
    """Coefficient field of an irreducible commuting bi-module action.

    Replaces the two generator families by mutual commutants and decomposes
    the space into lines.  A single line is the base case: the commutant
    itself is certified to be a field equal to the double commutant.
    Otherwise the field of the first line is extracted recursively and
    lifted along transporters.
    """
    if n == 0:
        raise InvalidInput("empty space")
    gamma_gens = [fp.mat(g, p) for g in gamma_gens]
    delta_gens = [fp.mat(d, p) for d in delta_gens]
    if not gamma_gens or not delta_gens:
        raise InvalidInput("both generator families must be nonempty")
    return _extract_field(p, n, gamma_gens, delta_gens, centralizer(delta_gens, p=p, n=n))


def _extract_field(p, n, gamma_gens, delta_gens, galg):
    """:func:`extract_field` on reduced, nonempty generator families, given
    galg, the commutant of delta_gens."""
    for g in gamma_gens:
        for d in delta_gens:
            if fp.mul(p, g, d) != fp.mul(p, d, g):
                raise HypothesisViolation("generator families do not commute", witness=(g, d))
    w = invariant_subspace(p, n, gamma_gens + delta_gens)
    if w is not None:
        raise HypothesisViolation("bi-module action is reducible", witness=w)
    dalg = centralizer(galg.basis, p=p, n=n)

    dec = decompose(galg, dalg)
    line = dec.lines[0]
    k = line.dim
    if k == n:
        if not is_field(galg):
            raise FieldTestFailure("commutant with no proper lines is not a field")
        if dalg.basis != galg.basis:
            raise FieldTestFailure("double commutant differs from the commutant in the base case")
        field_basis = galg.basis
    else:
        gl = _restricted_ideal(galg, line.subspace)
        dl = [_restricted(p, d, line.subspace, line.subspace) for d in (dalg.generators or dalg.basis)]
        local_gamma = centralizer(dl, p=p, n=k)
        local_gamma_span = _span_basis(p, gl)
        if local_gamma.basis != local_gamma_span:
            raise HypothesisViolation(
                "restricted algebra is not the commutant of the restricted action",
                witness=(local_gamma.basis, local_gamma_span),
            )
        sub_report = _extract_field(p, k, gl, dl, local_gamma)
        lifted = lift_endomorphism(sub_report.field_basis, line, dec, galg, dalg, gl)
        field_basis = _span_basis(p, lifted + [fp.identity(n)])
        if len(field_basis) != len(sub_report.field_basis):
            raise FieldTestFailure("lifted field has the wrong dimension")
        flat = [fp.flatten(x) for x in field_basis]
        for a in field_basis:
            for b in field_basis:
                ab = fp.mul(p, a, b)
                if not fp.in_span(p, flat, fp.flatten(ab)):
                    raise FieldTestFailure("lifted span is not closed under products", element=ab)
        if not is_field(MatrixAlgebra(p, n, field_basis, field_basis)):
            raise FieldTestFailure("lifted algebra fails the field certificate")
    kdim = len(field_basis)
    if n % kdim:
        raise FieldTestFailure("field degree does not divide the dimension")
    report = FieldReport(
        p,
        n,
        field_basis,
        p**kdim,
        n // kdim,
        _k_basis_of_v(p, n, field_basis),
    )
    report.verify(gamma_gens, delta_gens)
    return report
