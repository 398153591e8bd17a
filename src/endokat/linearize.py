"""Matrix-algebra machinery over F_p: commutants, minimal images, direct
decomposition into lines, lifting of local maps, and extraction of the
coefficient field of an irreducible bi-module.

The pipeline mirrors the constructive double-centralizer route: replace
Delta by its commutant C(Delta), keep Delta's own generators as the second
family (their commutant is that of the double commutant, see
:func:`extract_field`), split the space into minimal images ("lines") of
C(Delta) by one basis change, and lift the local field of line 0, the
minimal image, through that basis change; no step recurses.  The lines are
phi_1(u), ..., phi_m(u) for a minimal image u and a basis phi_1..phi_m of
Hom(u, V) over the local field of u; P = [phi_1 | ... | phi_m] is
invertible, and the rows of P^-1 give the idempotents and the lifts.  A
step checks what its inputs do not already guarantee: the hypotheses on
entry, the lines and the basis change, the restricted commutant and the
lifts, and at the end the report, fact by fact, in
:meth:`FieldReport.verify`.  What an exact inverse makes true, such as the
idempotents summing to the identity, is not checked again.  A hypothesis
failure surfaces as a typed error with a witness instead of a wrong report.
A check or product over a family of matrices is one block product
(:func:`fp.products`, :func:`fp.noncommuting`), not one product per pair.
"""

from __future__ import annotations

from hashlib import blake2b
from itertools import chain

from . import config, fp
from .errors import (
    CapExceeded,
    FieldTestFailure,
    HypothesisViolation,
    InvalidInput,
    NotLocallyCentral,
)
from .groups import check_characteristic
from .rng import SplitMix64


class MatrixAlgebra:
    """Unital subalgebra of Mat_n(F_p) with a canonical linear basis.

    ``flat`` is the reduced echelon basis of the algebra as a subspace of
    flattened matrices, with its pivots (:func:`fp.row_space`); ``basis``
    holds its rows as n x n matrices.  Two algebras are equal iff their
    bases are.
    """

    __slots__ = ("p", "n", "basis", "flat")

    def __init__(self, p, n, flat):
        self.p = p
        self.n = n
        self.flat = flat
        stacked = fp.unflatten(flat, len(flat) * n, n)
        self.basis = tuple(stacked[i : i + n] for i in range(0, len(stacked), n))

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
            and self.flat == other.flat
        )

    def __hash__(self):
        return hash((self.p, self.n, self.flat))

    def __repr__(self):
        return f"MatrixAlgebra(p={self.p}, n={self.n}, dim={self.dim})"

    def contains(self, m):
        return fp.in_span(self.p, self.flat, fp.flatten([m]))

    def elements(self):
        """An iterator over all p**dim elements, in the order of
        :func:`_combinations`, holding one element at a time.  Errors above
        ``config.FIELD_ENUM_CAP`` when called; never truncates."""
        cap = config.FIELD_ENUM_CAP
        if self.size > cap:
            raise CapExceeded(f"algebra of {self.size} elements above FIELD_ENUM_CAP = {cap}")
        return _combinations(self.p, self.basis, fp.zero(self.p, self.n))

    def is_commutative(self):
        return fp.noncommuting(self.p, self.basis, self.basis) is None


def _combinations(p, basis, zero):
    """Every F_p-combination of the matrices in ``basis``, starting with
    ``zero``, in lexicographic order of the coefficient tuple (c_0 most
    significant).

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


def _span_basis(p, mats):
    """The echelon basis of the span of the flattened matrices."""
    return fp.row_space(p, fp.flatten(mats))


def _intertwiners(p, k, mats):
    """Flattened k x k matrices X with M X = X M for every M in mats, as the
    basis fp.nullspace returns for all the matrices' equations stacked.

    The first matrix's k^2 equations are solved directly.  Each later one is
    solved on the running solution space only: for its basis X_1..X_s,
    sum_t c_t (M X_t - X_t M) = 0 is k^2 equations in s unknowns.  That
    space holds the identity, so it is never empty.

    The basis and its order are the stacked system's.  fp.nullspace gives
    one vector per free column f, with a 1 at f and 0 at every other free
    column, and f is its last nonzero entry (else the row with pivot f would
    not vanish on it).  So the last nonzero entry of any solution is a free
    column.  A solution for all matrices solves the first ones too, so the
    free columns of the full system are among those of X_1..X_s, where X_t
    has the 1 at the t-th.  The coordinates c of X = sum_t c_t X_t are
    therefore X's entries at those columns, and the basis fp.nullspace
    gives in c maps onto the stacked system's, in its order.
    """
    if not mats:
        return fp.identity(p, k * k)  # every vector solves an empty system
    sols = fp.nullspace(p, _commuting_equations(p, k, mats[0]))
    for m in mats[1:]:
        eqs = fp.mul(p, _commuting_equations(p, k, m), fp.transpose(sols))
        sols = fp.mul(p, fp.nullspace(p, eqs), sols)
    return sols


def _commuting_equations(p, k, m):
    """The k^2 rows of M X - X M = 0 over the flattened entries of X: row
    (i, j) holds m[i][t] at t k + j, row i of M spread out with stride k and
    shifted by j, plus -m[t][j] at i k + t, row (i, j) of diag(-M^T, ...)."""
    bits, last = fp.slot_bits(p), k * k - 1
    spread = [sum(e << bits * (last - t * k) for t, e in enumerate(row)) for row in m.tuples()]
    mx = fp.Matrix(p, k * k, tuple(s >> bits * j for s in spread for j in range(k)))
    return fp.add(p, mx, fp.block_diagonal([fp.scalar(p, -1, fp.transpose(m))] * k))


def centralizer(mats, p, n) -> MatrixAlgebra:
    """Full commutant {X : XM = MX for all M} as an algebra with canonical
    basis, by solving the linear system directly."""
    mats = [fp.mat(m, p) for m in mats]
    return MatrixAlgebra(p, n, fp.row_space(p, _intertwiners(p, n, mats)))


# ---------------------------------------------------------------------------
# Invariant subspaces.


def _null_space_certificate(p, n, gens, y, v):
    """Given y = f(z) for an element z of the algebra, an irreducible f with
    dim ker y = deg f and a nonzero v in ker y: a proper invariant subspace,
    or None when the module is irreducible.  ker y is 1-dimensional over the
    field F_p[z]/(f), so a submodule that meets it holds v.  One that misses
    it is its own image under y, so ker y^T lies in its annihilator, a
    proper submodule of the dual under the transposed generators."""
    w = fp.spin_subspace(p, gens, v)
    if len(w) < n:
        return w
    wt = fp.spin_subspace(p, [fp.transpose(g) for g in gens], fp.nullspace(p, fp.transpose(y))[0:1])
    if len(wt) == n:
        return None
    return fp.row_space(p, fp.nullspace(p, wt))


def invariant_subspace(p, n, gens):
    """A nonzero proper subspace stable under every generator, or None, by
    the Holt-Rees MeatAxe (Holt & Rees 1994, J. Austral. Math. Soc. A 57).

    Las Vegas: always right, after a random number of rounds.  A pool of
    algebra elements starts as the generators and three steps a_i + a_j a_k
    of Holt and Rees's word walk; each round draws z = a + b c for random
    combinations a, b, c of the pool, and z joins it (:func:`_seeded_rng`
    of the input).  A good factor f of z's characteristic polynomial,
    dim ker f(z) = deg f, settles the question (:func:`_null_space_certificate`);
    one of multiplicity 1 is always good, so those are tried first.  Failing
    one, a random vector of each ker f(z), smallest first, is spun up
    (Ivanyos & Lux 2000: on U + U no factor is good, but such a vector may
    lie in a copy of U).  An irreducible module has good elements: its
    algebra is Mat_m(K), K its endomorphism field, and holds a generator of
    F_(p^n).  A reducible module may get any proper submodule as witness.
    """
    gens = [fp.mat(g, p) for g in gens]
    if n <= 1:
        return None
    if not gens:
        return fp.identity(p, n)[0:1]
    rng = _seeded_rng((p, gens))
    pool = list(gens)
    for _ in range(3):
        pool.append(fp.add(p, pool[rng.below(len(pool))], fp.mul(p, pool[rng.below(len(pool))], pool[rng.below(len(pool))])))
    pool = fp.flatten(pool)
    while True:
        a, b, c = (fp.unflatten(_random_combination(p, pool, rng), n) for _ in range(3))
        z = fp.add(p, a, fp.mul(p, b, c))
        pool = fp.stack([pool, fp.flatten([z])])
        kernels = []
        for f, _ in sorted(fp.poly_factors(p, fp.charpoly(p, z), rng), key=lambda fm: fm[1] > 1):
            y = fp.poly_at(p, f, z)
            kernel = fp.nullspace(p, y)
            if len(kernel) == len(f) - 1:
                return _null_space_certificate(p, n, gens, y, kernel[0:1])
            kernels.append(kernel)
        for kernel in sorted(kernels, key=len):
            w = fp.spin_subspace(p, gens, _random_combination(p, kernel, rng))
            if len(w) < n:
                return w


def _seeded_rng(value):
    """The SplitMix64 of a Las Vegas loop, seeded by the blake2b digest of
    its input's repr, so that its draws, and so its answer, depend on the
    input alone and not on the process (as hash() would)."""
    return SplitMix64(int.from_bytes(blake2b(repr(value).encode(), digest_size=8).digest(), "big"))


def _random_combination(p, vectors, rng):
    """A random combination of the rows of ``vectors``, coefficients not all zero."""
    coeffs = [0]
    while not any(coeffs):
        coeffs = [rng.below(p) for _ in range(len(vectors))]
    return fp.combination(p, coeffs, vectors)


# ---------------------------------------------------------------------------
# Lines.


class Line:
    """A minimal nonzero image subspace of the algebra, with ``basis``, an
    n x k matrix phi whose columns span it: :func:`lines` gives each line
    as phi(u) for one map phi in a K-basis of Hom(u, V) (see there).
    ``local`` is the echelon basis of the local field of u, in the
    coordinates of u (:func:`_minimal_image`); the lines of one call share
    it."""

    __slots__ = ("subspace", "basis", "local")

    def __init__(self, subspace, basis, local):
        self.subspace = subspace
        self.basis = basis
        self.local = local

    @property
    def dim(self):
        return len(self.subspace)

    def __eq__(self, other):
        return isinstance(other, Line) and self.subspace == other.subspace

    def __hash__(self):
        return hash(self.subspace)

    def __repr__(self):
        return f"Line(dim={self.dim}, basis={self.subspace})"


def _local_algebra(alg: MatrixAlgebra, u):
    """Echelon basis of the local algebra of the subspace u, in the
    coordinates of u: the maps X in alg with im X <= span(u), that is the
    combinations with y . (X e_j) = 0 for every annihilator y of u and every
    column j, restricted to u.  Row i of cols, the transposed flattened
    basis read as n rows, holds b_t[i][j] at column j d + t, so row r of
    ys cols holds the equation (r, j) at columns j d .. j d + d - 1; and the
    combinations are the rows of (coefficients) (flattened basis): one
    product each."""
    p, n, d = alg.p, alg.n, alg.dim
    ys = fp.nullspace(p, u)
    cols = fp.unflatten(fp.transpose(alg.flat), n, n * d)
    eqs = fp.unflatten(fp.mul(p, ys, cols), len(ys) * n, d) if len(ys) else fp.zero(p, 0, d)
    combos = fp.mul(p, fp.nullspace(p, eqs), alg.flat)
    return _span_basis(p, _restricted(p, [fp.unflatten(combos[i : i + 1], n) for i in range(len(combos))], u, u))


def _minimal_image(alg: MatrixAlgebra):
    """One inclusion-minimal nonzero image subspace u and the echelon basis
    of the local field E of u (:func:`_local_algebra`).

    ``alg`` is simple here (see :func:`lines`), so semisimple.  Let u = wV
    be the image of an element w.  The right ideal w*alg is e*alg for an
    idempotent e, so u = eV, the maps into u are e*alg, and restricted to u
    (where Xe and X agree) they give E = e*alg*e, which has e as its unit.
    If e = e1 + e2 for nonzero orthogonal idempotents, e1V is a smaller
    image; if e is primitive, e*alg is a minimal right ideal, so every
    nonzero X in it has XV = X*alg*V = eV.  So u is minimal exactly when e
    is primitive, that is when E is a division ring, and a finite division
    ring is a field (Wedderburn), which :func:`is_field` decides without a
    sweep.  Otherwise E has a singular nonzero element y = Y|_u for some Y
    in e*alg*e (a zero divisor of E, :func:`_zero_divisor`), and y(u), the
    image of Y, is a smaller nonzero image.

    The first u is the image of the first basis element, which an echelon
    basis guarantees is nonzero, and each round replaces u by y(u), the
    column space of u^T y, until E is a field: at most dim u rounds.  A
    commutative E that is not a field shows that ``alg`` is not simple; the
    zero algebra has no image to start from.
    """
    p = alg.p
    if not alg.dim:
        raise InvalidInput("zero algebra has no nonzero image")
    u = fp.column_space(p, alg.basis[0])
    while True:
        local = MatrixAlgebra(p, len(u), _local_algebra(alg, u))
        if is_field(local):
            return u, local.basis
        if local.is_commutative():
            raise HypothesisViolation("commutative algebra with lines is not a field, so not simple")
        u = fp.column_space(p, fp.mul(p, fp.transpose(u), _zero_divisor(p, local.basis)))


def _zero_divisor(p, basis):
    """A singular nonzero element of the algebra of k x k matrices spanned
    by ``basis``, which holds the identity and is not commutative, by a Las
    Vegas draw (Ronyai 1990, J. Symbolic Comput. 9; Eberly & Giesbrecht
    2000, J. Symbolic Comput. 29).

    Each round draws a random element x (:func:`_seeded_rng` of the input)
    and tries y = f(x) for each irreducible factor f of its characteristic
    polynomial.  f has a root among the eigenvalues of x, so y is singular,
    and y is zero only when f is the minimal polynomial of x.  When every
    factor gives zero, F_p[x] is a field; draw again.  Were that so for
    every x, each nonzero element would have its inverse in F_p[x], and the
    algebra would be a division ring, so commutative (Wedderburn).
    """
    rng = _seeded_rng((p, basis))
    k, flat = len(basis[0]), fp.flatten(basis)
    while True:
        x = fp.unflatten(_random_combination(p, flat, rng), k)
        for f, _ in fp.poly_factors(p, fp.charpoly(p, x), rng):
            y = fp.poly_at(p, f, x)
            if any(y.rows):
                return y


def lines(alg: MatrixAlgebra):
    """Minimal nonzero image subspaces that split the space directly: the
    images phi_1(u), ..., phi_m(u) of a K-basis of Hom(u, V), where u is a
    minimal image (:func:`_minimal_image`).  Line 0 is u itself, and each
    line carries the echelon basis of the local field of u as ``local``.

    ``alg`` must be simple.  :func:`decompose` passes the commutant C(Delta)
    of a bi-module that :func:`extract_field` has checked to be
    irreducible.  The radical J of the algebra Delta spans would give the
    proper sub-bi-module JV, and so would an isotypic component of V over
    Delta other than V; so V is a power u^m of one simple Delta-module and
    C(Delta) = Mat_m(K) for a finite field K.

    The restriction space R = {X|_u : X in alg} is Hom_Delta(u, V), and a
    right vector space over the local field K = E of u: X|_u Y|_u is
    (X Y)|_u for Y mapping into u.  A K-basis phi_1..phi_m is taken
    greedily, starting from the inclusion of u (the identity is in the
    algebra), and stops at m = n / dim u.  The Delta-map
    (x_i) -> sum_i phi_i x_i from u^m to V is then an isomorphism: a
    nonzero kernel would hold a copy of u, that is a K-relation among the
    phi_i, and both sides have dimension n.  On an algebra that is not
    simple the lines may not be direct; :func:`decompose` reports it.
    """
    p, n = alg.p, alg.n
    u, scalars = _minimal_image(alg)
    k = len(u)
    bcols = fp.transpose(u)
    maps = fp.mul(p, fp.stack(alg.basis), bcols)
    kbasis, span = [], fp.row_space(p, fp.zero(p, 0, n * k))
    for phi in chain([bcols], (maps[i * n : (i + 1) * n] for i in range(alg.dim))):
        if not fp.in_span(p, span, fp.flatten([phi])):
            kbasis.append(phi)
            if len(kbasis) * k == n:
                break
            (scaled,) = fp.products(p, [phi], scalars)
            span = fp.row_space(p, fp.stack([span, fp.flatten(scaled)]))
    return [Line(fp.column_space(p, phi), phi, scalars) for phi in kbasis]


def projection_onto_line(line: Line, coordinates, galg: MatrixAlgebra):
    """The idempotent phi C onto the line, for phi its basis and C the
    matching k rows of P^-1 (:func:`decompose`).

    The idempotent must lie in galg = C(Delta) (checked), so that it is a
    Delta-map.  That it is idempotent with the line as image, and
    orthogonal to the other lines' idempotents, are identities of the exact
    inverse P^-1, so they are not checked again.
    """
    pi = fp.mul(galg.p, line.basis, coordinates)
    if not galg.contains(pi):
        raise HypothesisViolation("idempotent onto the line is not in the first algebra", witness=pi)
    return pi


class Decomposition:
    """Orthogonal idempotents summing to the identity, one per line, and
    for each line the rows of P^-1 that give its coordinates."""

    __slots__ = ("p", "n", "lines", "projections", "coordinates")

    def __init__(self, p, n, lines, projections, coordinates):
        self.p = p
        self.n = n
        self.lines = list(lines)
        self.projections = list(projections)
        self.coordinates = list(coordinates)


def decompose(galg: MatrixAlgebra) -> Decomposition:
    """Split the space into the direct sum of the lines of galg by one
    basis change.  P = [phi_1 | ... | phi_m] puts the line bases side by
    side (:func:`lines`), and C_i, the rows of P^-1 for line i, gives the
    coordinates on it: P P^-1 = I makes the idempotents pi_i = phi_i C_i
    sum to the identity, and P^-1 P = I makes them orthogonal, each
    idempotent with image phi_i(u).  Each lies in galg
    (:func:`projection_onto_line`), so commutes with Delta.  A singular P
    means that the lines are not direct, so galg is not simple."""
    p, n = galg.p, galg.n
    lam = lines(galg)
    basis_change = fp.side_by_side([line.basis for line in lam])
    inv = fp.inverse(p, basis_change) if sum(line.dim for line in lam) == n else None
    if inv is None:
        raise HypothesisViolation("lines do not split the space directly", witness=[l.subspace for l in lam])
    coordinates = []
    projections = []
    start = 0
    for line in lam:
        coordinates.append(inv[start : start + line.dim])
        projections.append(projection_onto_line(line, coordinates[-1], galg))
        start += line.dim
    return Decomposition(p, n, lam, projections, coordinates)


def _restricted(p, mats, src, dst):
    """Coordinates of each matrix as a map from the line src to the line
    dst, both given by basis rows, dst's a reduced echelon basis with its
    pivots; src == dst restricts the matrices to one line.

    The images of src under m are the columns of m src^T.  A vector of
    span(dst) is the combination of dst's rows given by its entries at
    dst's pivot columns, so the coordinates are the rows of m src^T at
    those columns, and the images lie in dst exactly when dst^T maps the
    coordinates back onto them.  That is one product of the stacked
    matrices by src^T and one for the check of all of them."""
    if not mats:
        return []
    n = len(mats[0])
    images = fp.mul(p, fp.stack(mats), fp.transpose(src))
    blocks = [images[i * n : (i + 1) * n] for i in range(len(mats))]
    coords = [fp.Matrix(p, b.ncols, tuple(b.rows[q] for q in dst.pivots)) for b in blocks]
    if fp.mul(p, fp.transpose(dst), fp.side_by_side(coords)) != fp.side_by_side(blocks):
        raise InvalidInput("matrix does not map the line into the target line")
    return coords


def lift_endomorphism(phis, dec: Decomposition, galg: MatrixAlgebra, delta, dl):
    """Extend maps that are central in both restricted algebras on line 0 of
    the decomposition to the whole space, as sum_i phi_i f C_i for the line
    bases phi_i and coordinate rows C_i.  The restricted algebras are the
    local field of line 0, the basis :attr:`Line.local` that :func:`lines`
    found, and ``dl``, the second family's generators ``delta`` restricted
    to line 0, which the caller has already built.  Returns the lifts in
    the order of ``phis``.

    Line 0 is u and phi_0 its echelon basis, so a map f in the coordinates
    of u is in line-basis coordinates already.  The basis change P is a
    Delta-isomorphism u^m -> V (:func:`lines`), under which galg = C(Delta)
    is Mat_m(E) and every transport between lines is the identity.  So the
    lift is P diag(f, ..., f) P^-1, and it commutes with galg and delta
    exactly when f is central in the restricted algebras.

    Every family step is one block product (:func:`fp.products`): the
    centrality of all maps on line 0 is one pair of products, and so is
    the check of all lifts against galg's basis and delta.  The lifts take
    two: the blocks f C_i for every map f and coordinate rows C_i, stacked
    per f into diag(f, ..., f) P^-1, then P times all of those side by
    side.  One restriction of all lifts checks that each restricts to its
    map."""
    p = galg.p
    line = dec.lines[0]
    if fp.noncommuting(p, phis, [*dl, *line.local]) is not None:
        raise NotLocallyCentral("map is not central in the restricted algebras")
    diagonal = [fp.stack(fcs) for fcs in fp.products(p, phis, dec.coordinates)]
    (lifts,) = fp.products(p, [fp.side_by_side([li.basis for li in dec.lines])], diagonal)
    if fp.noncommuting(p, lifts, [*galg.basis, *delta]) is not None:
        raise NotLocallyCentral("lift fails to commute with the algebras")
    if _restricted(p, lifts, line.subspace, line.subspace) != list(phis):
        raise NotLocallyCentral("lift does not restrict to the given map")
    return lifts


def is_field(alg: MatrixAlgebra):
    """Whether the algebra, closed under products, is a field: it contains
    the identity, is commutative and its Frobenius map fixes only F_p.

    On a commutative A of dimension d, x -> x^p is F_p-linear.  It is
    injective exactly when A has no nonzero nilpotent; a reduced A is a
    product K_1 x ... x K_r of finite fields, whose Frobenius-fixed part is
    F_p^r.  So A is a field exactly when the Frobenius matrix F has rank d
    and F - I has rank d - 1.  Row i of F holds the coordinates of b_i^p in
    the echelon basis b, which are its entries at the basis' pivot columns:
    column j of F^T is row j of the transposed flattened powers.
    """
    p, n, d = alg.p, alg.n, alg.dim
    if d == 0 or not alg.contains(fp.identity(p, n)) or not alg.is_commutative():
        return False
    powers = fp.transpose(fp.flatten(fp.powers(p, alg.basis, p)))
    frob_t = fp.Matrix(p, d, tuple(powers.rows[j] for j in alg.flat.pivots))
    return fp.rank(p, frob_t) == d and fp.rank(p, fp.sub(p, frob_t, fp.identity(p, d))) == d - 1


class FieldReport:
    """Result of the field extraction: the coefficient field as a matrix
    algebra, ``field_algebra``, and a basis of the ambient space over it,
    the rows of ``k_basis``.  The order, the dimension over the field and
    the tuples of the report are read off those two."""

    __slots__ = ("field_algebra", "k_basis")

    def __init__(self, field_algebra: MatrixAlgebra, k_basis):
        self.field_algebra = field_algebra
        self.k_basis = k_basis

    @property
    def p(self):
        return self.field_algebra.p

    @property
    def n(self):
        return self.field_algebra.n

    @property
    def order(self):
        return self.field_algebra.size

    @property
    def vs_dimension(self):
        return self.n // self.field_algebra.dim

    @property
    def field_basis(self):
        return tuple(b.tuples() for b in self.field_algebra.basis)

    @property
    def k_basis_of_v(self):
        return self.k_basis.tuples()

    def __repr__(self):
        return f"FieldReport(order={self.order}, vs_dimension={self.vs_dimension})"

    def verify(self, gamma_gens, delta_gens):
        """Check each fact of the report once: the field algebra is closed
        under products, its degree divides n, it is a field
        (:func:`is_field`), it commutes with both generator families, and
        the k-basis spans the space over it.  Last, every nonzero element
        is checked to be invertible, by a sweep of the field."""
        alg, p, n = self.field_algebra, self.p, self.n
        for ab in chain.from_iterable(fp.products(p, alg.basis, alg.basis)):
            if not alg.contains(ab):
                raise FieldTestFailure("field span is not closed under products", element=ab)
        if n % alg.dim:
            raise FieldTestFailure("field degree does not divide the dimension")
        if not is_field(alg):
            raise FieldTestFailure("field algebra fails the field certificate")
        bad = fp.noncommuting(p, [fp.mat(g, p) for g in (*gamma_gens, *delta_gens)], alg.basis)
        if bad is not None:
            raise FieldTestFailure(
                "algebra generator fails to commute with the field", element=alg.basis[bad[1]].tuples()
            )
        # row r of block t of (vectors) (b_t^T) is b_t applied to vector r
        (images,) = fp.products(p, [self.k_basis], [fp.transpose(b) for b in alg.basis])
        if len(fp.row_space(p, fp.stack(images))) != n:
            raise FieldTestFailure("flagged vectors do not span over the field")
        for m in alg.elements():
            if any(m.rows) and not fp.is_invertible(p, m):
                raise FieldTestFailure("nonzero element is singular", element=m)
        return True


def _k_basis_of_v(p, n, field_basis):
    """Greedy vector-space basis of F_p^n over the field spanned by the
    given commuting matrices, walking the unit vectors e_1..e_n: the basis a
    greedy walk over one vector per line of F_p^n (first nonzero entry 1,
    first coordinate varying fastest) picks.  Once that walk has passed the
    vectors whose last nonzero entry is before j, its span W holds
    e_1..e_(j-1); those with last nonzero entry j are c e_j + w with w in W
    and come next, e_j first, so the walk takes e_j or none of them.
    """
    have = fp.row_space(p, fp.zero(p, 0, n))
    units, stacked, out = fp.identity(p, n), fp.stack(field_basis), []
    for j in range(n):
        v = units[j : j + 1]
        if fp.in_span(p, have, v):
            continue
        out.append(v)
        images = fp.matvec(p, stacked, v)
        have = fp.row_space(p, fp.stack([have, fp.unflatten(images, len(field_basis), n)]))
        if len(have) == n:
            break
    return fp.stack(out)


def check_matrix_bimodule(p, n, gamma_gens, delta_gens):
    """The input checks of :func:`extract_field`, which the reader of
    matrix instance files runs too: ``p`` is a prime within the order cap,
    ``n >= 1``, every generator is n x n, and both families are nonempty."""
    check_characteristic(p)
    if n < 1:
        raise InvalidInput(f"dimension n = {n} is not positive")
    for m in (*gamma_gens, *delta_gens):
        if len(m) != n or any(len(row) != n for row in m):
            raise InvalidInput(f"a generator is not {n} x {n}")
    if not gamma_gens or not delta_gens:
        raise InvalidInput("both generator families must be nonempty")


def extract_field(p, n, gamma_gens, delta_gens) -> FieldReport:
    """Coefficient field of an irreducible commuting bi-module action.

    Replaces Delta by galg = C(Delta), splits the space into the lines of
    galg by one basis change P (:func:`decompose`), and lifts the local
    field E of line 0, the minimal image u, through P.  E is the basis that
    :func:`lines` certified a field and keeps on each line
    (:attr:`Line.local`); it is checked to be C(dl) for dl Delta's
    generators restricted to u (u is the image of an element of C(Delta),
    so Delta-stable), and the lift
    P diag(f, ..., f) P^-1 of each f in E is checked to commute with galg
    and Delta.  With one line, u = V and C(dl) = C(Delta) = galg.  The
    lifted span is the report's field algebra, and
    :meth:`FieldReport.verify` checks each fact of the report once: closure,
    degree, the field certificate, commutation and the k-basis.

    Delta's generators stand in for the double commutant C(galg) in every
    check.  The radical argument of :func:`lines` makes the algebra
    F_p<Delta> semisimple once the bi-module is irreducible, so
    C(C(Delta)) = F_p<Delta> (double centralizer theorem), and a set of
    matrices has the commutant of the algebra it generates; restricted to
    u, F_p<Delta> is the algebra Delta's restrictions generate.

    What a second level on u and (E, dl) would compute is known already:

    - irreducible: W <= u stable under E and dl gives the bi-module galg W = V, so W = e galg W = u;
    - lines: E is a field, so u is its only line and its own minimal image;
    - is_field(E): :func:`_minimal_image` returns u only once is_field(E) holds;
    - k-basis and report verified on u: neither is part of the report on V;
    - C(E) == E: C(E) is Mat_r(E) for r = dim_E u, so it fails whenever r > 1.

    The report is the centre of C(Delta).  By Schur's lemma the joint
    commutant, of Gamma and Delta together, of an irreducible action is a
    field, and the two agree whenever the joint commutant is that centre: for
    instance when Gamma generates C(Delta), as on every
    :func:`~endokat.instances.matrix_bimodule` with the families in either
    order.  They need not agree otherwise, and this is not checked:
    Gamma = {companion of x^2 + x + 1} and Delta = {I} on F_2^2 report
    (2, 2), while the joint commutant is F_4.
    """
    check_matrix_bimodule(p, n, gamma_gens, delta_gens)
    gamma_gens = [fp.mat(g, p) for g in gamma_gens]
    delta_gens = [fp.mat(d, p) for d in delta_gens]
    bad = fp.noncommuting(p, gamma_gens, delta_gens)
    if bad is not None:
        raise HypothesisViolation(
            "generator families do not commute", witness=(gamma_gens[bad[0]], delta_gens[bad[1]])
        )
    w = invariant_subspace(p, n, gamma_gens + delta_gens)
    if w is not None:
        raise HypothesisViolation("bi-module action is reducible", witness=w)
    galg = centralizer(delta_gens, p=p, n=n)
    dec = decompose(galg)
    line = dec.lines[0]
    dl = _restricted(p, delta_gens, line.subspace, line.subspace)
    local_field = centralizer(dl, p=p, n=line.dim)
    if local_field.basis != line.local:
        raise HypothesisViolation(
            "restricted algebra is not the commutant of the restricted action",
            witness=(local_field.basis, line.local),
        )
    lifted = lift_endomorphism(local_field.basis, dec, galg, delta_gens, dl)
    field = MatrixAlgebra(p, n, _span_basis(p, lifted + [fp.identity(p, n)]))
    if field.dim != local_field.dim:
        raise FieldTestFailure("lifted field has the wrong dimension")
    report = FieldReport(field, _k_basis_of_v(p, n, field.basis))
    report.verify(gamma_gens, delta_gens)
    return report
