"""Exact solvers for the four invariants: domination, total domination,
semi-total domination, and the 2-packing number.

Two routes per invariant: ``solve_oracle`` enumerates subsets by cardinality
and is the correctness anchor (guarded to small graphs), ``solve_bnb`` is a
pruned branch-and-bound returning the same value on every input where both
run.  Witnesses always validate under the matching predicate; the oracle's
witness is the lexicographically least optimal set.

One branch-and-bound kernel serves gamma, gamma_t and gamma_t2: it optimises
from a greedy incumbent for ``solve_bnb``, answers budgeted feasibility
probes for ``lexleast_min_semitotal_set`` and collects every minimum set for
``enumerate_min_semitotal_sets``, pruning with a counting bound and a
disjoint-candidate bound.  The counting bound knows each invariant's cover
rows: a gamma member covers at most max degree + 1 vertices, a gamma_t member
at most max degree, and a gamma_t2 member at most max degree + 1/2 on
average, because members come with partners within distance 2 whose closed
neighbourhoods meet theirs.  Given a group of automorphisms of the graph
(``graphs.Symmetry``), ``solve_bnb`` branches over orbits, not vertices
(orbital branching, after Ostrowski, Linderoth, Rossi and Smriglio,
"Orbital branching", Math. Program. 126, 2011): at the root over the
group's orbits, and below each root branch over the orbits of the
stabiliser of the vertices chosen so far.  An automorphism moves some
minimum set into the branch of the first orbit it meets.  That keeps the
value, not the witness, so the kernel's label-dependent modes never take a
symmetry.  ``lexleast_min_semitotal_set`` reads one between its probes: a
probe that fails bars the orbit of its vertex under the automorphisms
that fix the vertices locked so far.  The packing number has its own
search.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .graphs import Graph, Symmetry, VertexSet, _bits

KINDS = ("gamma", "gamma_t", "gamma_t2", "rho")

ORACLE_VERTEX_LIMIT = 20


class IsolateError(ValueError):
    """Isolated vertex where an isolate-free graph is required."""


class OracleLimitError(ValueError):
    """Graph too large for the enumeration oracle."""


@dataclass(frozen=True)
class InvariantResult:
    kind: str
    value: int
    witness: VertexSet


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown invariant kind {kind!r}, expected one of {KINDS}")


def _check_isolate_free(g: Graph) -> None:
    for v in range(g.n):
        if g.adj[v] == 0:
            raise IsolateError(f"vertex {v} is isolated; invariant requires an isolate-free graph")


def _check_set(g: Graph, s: VertexSet) -> int:
    if s.n != g.n:
        raise ValueError("vertex set bound to a different graph order")
    return s.mask


def _dominating_mask(g: Graph, mask: int) -> bool:
    return mask | g.neighborhood(mask) == (1 << g.n) - 1


def _total_dominating_mask(g: Graph, mask: int) -> bool:
    return g.neighborhood(mask) == (1 << g.n) - 1


def _semitotal_dominating_mask(g: Graph, mask: int) -> bool:
    partners = g.partners
    return _dominating_mask(g, mask) and all(mask & partners[v] for v in _bits(mask))


def _two_packing_mask(g: Graph, mask: int) -> bool:
    partners = g.partners
    return not any(mask & partners[v] for v in _bits(mask))


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff N[S] covers every vertex."""
    return _dominating_mask(g, _check_set(g, s))


def is_total_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff N(S) covers every vertex (members need a neighbor in S too)."""
    return _total_dominating_mask(g, _check_set(g, s))


def is_semitotal_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff S dominates and every member has another member within distance 2."""
    mask = _check_set(g, s)
    _check_isolate_free(g)
    return _semitotal_dominating_mask(g, mask)


def is_two_packing(g: Graph, s: VertexSet) -> bool:
    """True iff all distinct members are at distance >= 3 (infinite included)."""
    return _two_packing_mask(g, _check_set(g, s))


_PREDICATES = {
    "gamma": _dominating_mask,
    "gamma_t": _total_dominating_mask,
    "gamma_t2": _semitotal_dominating_mask,
}


def solve_oracle(g: Graph, kind: str) -> InvariantResult:
    """Ground truth by subset enumeration in increasing cardinality.

    For the packing number the feasible sizes are downward closed, so the
    sweep stops at the first infeasible size and reports the one below.
    """
    _check_kind(kind)
    n = g.n
    if n > ORACLE_VERTEX_LIMIT:
        raise OracleLimitError(f"graph too large for oracle: {n} > {ORACLE_VERTEX_LIMIT} vertices")
    if kind == "rho":
        best_k, best_mask = 0, 0
        for k in range(1, n + 1):
            found = None
            for combo in combinations(range(n), k):
                mask = 0
                for v in combo:
                    mask |= 1 << v
                if _two_packing_mask(g, mask):
                    found = mask
                    break
            if found is None:
                break
            best_k, best_mask = k, found
        return InvariantResult("rho", best_k, VertexSet(n, best_mask))
    _check_isolate_free(g)
    predicate = _PREDICATES[kind]
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if predicate(g, mask):
                return InvariantResult(kind, k, VertexSet(n, mask))
    raise AssertionError("unreachable: the whole vertex set always qualifies")


def enumerate_min_semitotal_sets(g: Graph, *, gamma_t2: int | None = None) -> list[VertexSet]:
    """All minimum semi-total dominating sets, in lexicographic order.

    The search kernel collects every set within budget gamma_t2: each branch
    splits the sets by the first candidate they contain, so every minimum set
    is reached exactly once.  A caller that has solved gamma_t2(g) passes it
    as ``gamma_t2``; otherwise it is solved here.  There is no size guard;
    the callers' product caps bound the factors it sees.
    """
    value = solve_bnb(g, "gamma_t2").value if gamma_t2 is None else gamma_t2
    found: list[int] = []
    _search_kernel(g, _kernel_tables(g, "gamma_t2"), budget=value, collect=found)
    for mask in found:
        if mask.bit_count() != value or not _semitotal_dominating_mask(g, mask):
            raise AssertionError(f"enumeration returned an invalid minimum set {mask:#x}")
    return sorted((VertexSet(g.n, mask) for mask in found), key=VertexSet.vertices)


def _kernel_tables(g: Graph, kind: str) -> tuple:
    """Per-graph tables of the search kernel, built once per solver call:
    cover rows, the partner masks ``g.partners`` (gamma_t2 only), negated
    degrees (the branching order) and the counting bound's ratio (num, den):
    each member still to add covers at most den/num uncovered vertices on
    average (see ``_search_kernel``)."""
    cover = g.adj if kind == "gamma_t" else g.closed
    partners = g.partners if kind == "gamma_t2" else None
    negdeg = [-g.degree(v) for v in range(g.n)]
    delta = -min(negdeg)
    ratio = {"gamma": (1, delta + 1), "gamma_t": (1, delta), "gamma_t2": (2, 2 * delta + 1)}
    return cover, partners, negdeg, ratio[kind]


def _greedy_domination(g: Graph, tables: tuple) -> int:
    """Deterministic greedy upper bound used to seed the search incumbent."""
    cover, partners, _, _ = tables
    n = g.n
    full = (1 << n) - 1
    chosen = 0
    covered = 0
    while covered != full:
        best_v, best_gain = -1, -1
        for v in range(n):
            if chosen >> v & 1:
                continue
            gain = (cover[v] & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen |= 1 << best_v
        covered |= cover[best_v]
    if partners is not None:
        while True:
            lonely = [u for u in _bits(chosen) if not chosen & partners[u]]
            if not lonely:
                break
            u = lonely[0]
            best_v, best_fix = -1, -1
            for v in _bits(partners[u] & ~chosen):
                fix = sum(1 for w in lonely if partners[w] >> v & 1)
                if fix > best_fix:
                    best_v, best_fix = v, fix
            chosen |= 1 << best_v
    return chosen


def _search_kernel(
    g: Graph,
    tables: tuple,
    *,
    incumbent: int | None = None,
    budget: int = 0,
    chosen0: int = 0,
    excluded0: int = 0,
    collect: list | None = None,
    root: list[tuple[int, int]] | None = None,
    stabiliser: Callable[[int], list] | None = None,
) -> int | None:
    """Branch and bound over coverage, with partner repair for gamma_t2.

    Searches the sets that contain ``chosen0`` and avoid ``excluded0``.
    ``root``, a list of (vertex, mask) pairs, replaces the root's branches:
    branch i adds vertex i and avoids the masks of the branches before it
    (``_orbit_root`` passes one pair per orbit).  ``stabiliser(v)`` gives
    the stabiliser that root branch v carries (see below), called only when
    that branch's node gets past its bounds and branches.  Two
    modes: *optimise* (``incumbent`` given) returns a minimum set, or the
    incumbent when nothing smaller exists; *budgeted-feasible* returns the
    first set of at most ``budget`` vertices, or None.  With ``collect`` given,
    budgeted-feasible mode appends each set it reaches and searches on; at
    budget gamma_t2 these are exactly the minimum sets.

    Branches on the uncovered vertex with the fewest candidate dominators,
    candidates by degree descending.  Two lower bounds on the members still
    needed: the number of uncovered vertices with pairwise disjoint candidate
    sets, collected greedily in the scan that picks the branching vertex
    (each needs its own member), and the counting bound
    ceil(uncovered * num / den) with the table's (num, den).  For gamma a
    member covers at most max degree + 1 = den vertices, for gamma_t (open
    rows) at most max degree = den.

    For gamma_t2, (num, den) = (2, 2 max degree + 1).  Let F be the members
    still to add, U the uncovered vertices and D the max degree.  Give each f
    in F a partner p(f) within distance 2, so N[f] and N[p(f)] meet.  Add F
    in BFS order over the partner graph, starting from the chosen members.
    An f whose partner is already present shares a vertex with a closed
    neighbourhood that is covered or already counted, so it adds at most D
    vertices of U.  Only the first vertex of a component of F alone can add
    D + 1, and each such component has at least two members, so
    |U| <= D|F| + |F|/2, that is |F| >= 2|U| / (2D + 1).

    The bounds only prune and never reorder the search, so the incumbent
    sequence, the first feasible leaf and the collected sets do not depend
    on how strong they are.

    Orbital branching below the root.  A node may carry a stabiliser K:
    the elements other than the identity of a group of automorphisms that
    fix every chosen vertex.  With K empty the node runs the plain loop.
    Otherwise it branches over K's orbits on its candidates, in candidate
    order: the child for v carries the elements of K that fix v, and after
    it v's orbit, v and each p[v], joins the excluded set, so that a later
    candidate in it is skipped.  This keeps the value by ``_orbit_root``'s
    argument one level down.  The node's excluded set X is K-invariant: it
    is a union of root orbits, which every element maps onto themselves
    (``_orbit_root`` checks it), and of orbits of ancestors' stabilisers,
    which contain K.  K fixes the chosen set C and so the covered set.  A
    minimum set S of the node's region (S contains C and avoids X) meets
    the candidates, so it meets some of their orbits; let O_j be the first
    in branch order, v_j its candidate, w a vertex of S in O_j and k in K
    with k(w) = v_j.  Then k(S) is a set of S's kind and size that
    contains C and v_j and avoids X and O_1 ... O_{j-1}, which are
    K-invariant, so child j's region holds it.  Optimise mode therefore
    keeps the minimum value; the lexleast probes and the enumeration read
    labels and never take a stabiliser (lexleast reads its symmetry between
    probes, not in them).
    """
    n = g.n
    full = (1 << n) - 1
    cover, partners, negdeg, (num, den) = tables
    first = incumbent is None
    best = incumbent
    best_size = budget + 1 if first else incumbent.bit_count()

    def search(chosen: int, covered: int, excluded: int, size: int, stab) -> bool:
        nonlocal best, best_size
        uncovered = full & ~covered
        if uncovered:
            bound = (uncovered.bit_count() * num + den - 1) // den
            if size + bound >= best_size:
                return False
            avail, branch_count, used, disjoint = 0, n + 1, 0, 0
            rest = uncovered
            while rest:  # _bits(uncovered) inlined: this is the hot loop
                low = rest & -rest
                rest ^= low
                options = cover[low.bit_length() - 1] & ~excluded
                if not options:
                    return False  # dead branch: an uncovered vertex has no candidate left
                if not options & used:
                    used |= options
                    disjoint += 1
                count = options.bit_count()
                if count < branch_count:
                    avail, branch_count = options, count
            bound = max(bound, disjoint)
        else:
            lonely = -1
            if partners is not None:
                for u in _bits(chosen):
                    if not chosen & partners[u]:
                        lonely = u
                        break
            if lonely < 0:
                if size >= best_size:
                    return False
                if collect is not None:
                    collect.append(chosen)
                    return False
                best, best_size = chosen, size
                return first
            bound = 1
            avail = partners[lonely] & ~excluded & ~chosen
        if size + bound >= best_size:
            return False
        ex = excluded
        if stab and callable(stab):
            stab = stab()  # a root branch's stabiliser, built once its node branches
        if stab:  # one child per orbit of stab on the candidates
            for v in sorted(_bits(avail), key=negdeg.__getitem__):
                if ex >> v & 1:
                    continue  # in the orbit of an earlier candidate
                fix = [p for p in stab if p[v] == v]
                if search(chosen | 1 << v, covered | cover[v], ex, size + 1, fix):
                    return True
                ex |= 1 << v
                for p in stab:
                    ex |= 1 << p[v]
                if size + bound >= best_size:
                    return False
            return False
        for v in sorted(_bits(avail), key=negdeg.__getitem__):
            if search(chosen | 1 << v, covered | cover[v], ex, size + 1, stab):
                return True
            ex |= 1 << v
            if size + bound >= best_size:
                return False  # incumbent improved below this node's bound
        return False

    covered0 = 0
    for v in _bits(chosen0):
        covered0 |= cover[v]
    size0 = chosen0.bit_count()
    if root is None:
        search(chosen0, covered0, excluded0, size0, [])
    else:
        for v, mask in root:
            stab = partial(stabiliser, v)
            if search(chosen0 | 1 << v, covered0 | cover[v], excluded0, size0 + 1, stab):
                break
            excluded0 |= mask
    return best


def lexleast_min_semitotal_set(
    g: Graph, *, minimum: VertexSet | None = None, symmetry: Symmetry | None = None
) -> VertexSet:
    """The lexicographically least minimum semi-total dominating set.

    Canonical replay witness: agrees with the oracle's witness wherever the
    oracle runs, without the oracle's size guard.  Built by locking vertices
    in ascending order against budgeted-feasible searches; a probe that the
    current witness already answers is not searched.  The first witness is
    ``minimum``, a minimum semi-total dominating set the caller has solved
    for (``verify_pair`` passes its product solve's witness), or else the
    witness of ``solve_bnb(g, "gamma_t2")``; the set does not depend on which.

    The loop keeps the locked prefix C and ``barred``, the whole excluded
    set of each probe.  Let F be the minimum sets that contain C and avoid
    ``barred``.  Invariant: F holds exactly the sets the plain ascending
    scan searches, which avoid every vertex below the next probe but C's.
    ``barred`` holds those vertices and otherwise only vertices in no set
    of F, so each probe succeeds exactly when the plain scan's does, and a
    barred vertex is never probed.  Without ``symmetry`` a failed probe
    bars v alone, and ``barred`` is the plain scan's excluded set.

    With ``symmetry`` (as for ``solve_bnb``) a failed probe bars v's orbit
    under K, a group of automorphisms that fix C pointwise: A while C is
    empty, then the stabiliser in B of C's first vertex, then after each
    lock the elements of the level above that also fix the new vertex.
    Every k in K keeps ``barred``: it is a union of A's orbits until the
    first lock, the checked stabiliser elements keep A's orbits, and a
    union of K's orbits is one of each subgroup's.  So k maps F onto
    itself.  When the probe at v fails, no set of F contains v, and a set
    of F that contained k(v) would give, under k's inverse, one that
    contains v.  So v's orbit lies in no set of F, and barring it keeps F
    and the invariant; a lock only shrinks F and K.  The probes take no
    stabiliser: their witnesses may differ from the plain scan's, the set
    does not.  Orbits that do not partition the vertices raise
    ``ValueError``, and a stabiliser element that moves its point or an
    orbit ``AssertionError`` (``_read_symmetry``).
    """
    _check_isolate_free(g)
    if minimum is None:
        minimum = solve_bnb(g, "gamma_t2").witness
    elif not _semitotal_dominating_mask(g, minimum.mask):
        raise AssertionError(f"starting set {minimum.mask:#x} is not semi-total dominating")
    witness = minimum.mask
    value = witness.bit_count()
    tables = _kernel_tables(g, "gamma_t2")
    if symmetry is not None:
        orbit_of, stabiliser = _read_symmetry(g.n, symmetry)
    stab = None  # K's elements other than the identity, once C is not empty

    def orbit(v: int) -> int:  # v's orbit under K
        if stab is None:
            return 1 << v if symmetry is None else symmetry.orbits[orbit_of[v]]
        mask = 1 << v
        for p in stab:
            mask |= 1 << p[v]
        return mask

    chosen = barred = floor = 0
    for _ in range(value):
        for v in range(floor, g.n):
            if barred >> v & 1:
                continue
            probe = chosen | 1 << v
            if witness & ((1 << (v + 1)) - 1) != probe:
                found = _search_kernel(g, tables, budget=value, chosen0=probe, excluded0=barred)
                if found is None:
                    barred |= orbit(v)
                    continue
                witness = found
            chosen = probe
            floor = v + 1
            if symmetry is not None:
                stab = stabiliser(v) if stab is None else [p for p in stab if p[v] == v]
            break
        else:
            raise AssertionError("lexicographic extension must exist at the optimum size")
    if not _semitotal_dominating_mask(g, chosen):
        raise AssertionError(f"lexleast set {chosen:#x} is not semi-total dominating")
    return VertexSet(g.n, chosen)


def _max_two_packing_bnb(g: Graph) -> int:
    """Maximum independent set search on the distance-at-most-2 conflict
    graph, whose rows are ``g.partners``, from the greedy packing that takes
    each vertex in order when no earlier pick conflicts with it."""
    n = g.n
    conf = g.partners
    best_mask = 0
    for v in range(n):
        if not conf[v] & best_mask:
            best_mask |= 1 << v
    best_size = best_mask.bit_count()

    def search(candidates: int, chosen: int, size: int) -> None:
        nonlocal best_mask, best_size
        if size + candidates.bit_count() <= best_size:
            return
        if not candidates:
            best_mask, best_size = chosen, size
            return
        pick, pick_deg = -1, -1
        for v in _bits(candidates):
            d = (conf[v] & candidates).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        search(candidates & ~conf[pick] & ~(1 << pick), chosen | 1 << pick, size + 1)
        search(candidates & ~(1 << pick), chosen, size)

    search((1 << n) - 1, 0, 0)
    return best_mask


def _read_symmetry(n: int, symmetry: Symmetry) -> tuple[list[int], Callable[[int], list]]:
    """Check a symmetry on n vertices and give ``orbit_of``, the index of
    each vertex's orbit, and a checked ``stabiliser(r)``.

    Orbits that are not disjoint masks covering the vertices raise
    ``ValueError``.  Each element of a stabiliser must fix r and map every
    orbit onto itself, or ``stabiliser(r)`` raises ``AssertionError``: the
    searches that read it need the unions of orbits they exclude to stay
    invariant.  That the elements preserve adjacency is checked where they
    are built (``graphs.product_symmetry`` checks their factor
    permutations), at the factors' cost, not the product's.
    """
    orbits = symmetry.orbits
    union = 0
    for orbit in orbits:
        union |= orbit
    if union != (1 << n) - 1 or sum(o.bit_count() for o in orbits) != n:
        raise ValueError("orbits must be disjoint vertex masks that cover the graph")
    orbit_of = [0] * n
    for k, orbit in enumerate(orbits):
        for w in _bits(orbit):
            orbit_of[w] = k

    def stabiliser(r: int) -> list:
        perms = symmetry.stabiliser(r)
        for p in perms:
            if p[r] != r or [orbit_of[w] for w in p] != orbit_of:
                raise AssertionError(f"stabiliser of {r} holds {p}, which moves {r} or an orbit")
        return perms

    return orbit_of, stabiliser


def _orbit_root(g: Graph, tables: tuple, incumbent: int, symmetry: Symmetry) -> int:
    """Optimise from ``incumbent`` with the root's branches taken over the
    symmetry's orbits and each branch's node carrying its stabiliser.

    u is the vertex whose cover row meets the fewest orbits (least index on
    ties).  Every set in the search meets u's cover row, so it meets the
    orbits O_1, O_2, ... that the row meets, each represented by its first
    vertex r_i of the row in the kernel's candidate order.  Branch i
    searches the sets that contain r_i and avoid O_1 ... O_{i-1}, and the
    incumbent carries across branches.  An incumbent that meets the
    counting bound on all n vertices is minimum, and no branch runs, as the
    unrooted kernel prunes at its root.  The stabiliser of r_i is asked for
    only when branch i's node branches, and ``_read_symmetry`` checks it,
    which keeps O_1 ... O_{i-1} invariant as ``_search_kernel`` needs.
    """
    n = g.n
    orbits = symmetry.orbits
    orbit_of, stabiliser = _read_symmetry(n, symmetry)
    cover, _, negdeg, (num, den) = tables
    if incumbent.bit_count() <= (n * num + den - 1) // den:
        return incumbent
    meets = [0] * n  # meets[v]: the orbits that cover[v] meets
    for orbit in orbits:
        reach = 0  # cover rows are symmetric, so reach holds each v whose row meets the orbit
        for w in _bits(orbit):
            reach |= cover[w]
        for v in _bits(reach):
            meets[v] += 1
    u = meets.index(min(meets))
    root, excluded = [], 0
    for r in sorted(_bits(cover[u]), key=negdeg.__getitem__):
        orbit = orbits[orbit_of[r]]
        if not orbit & excluded:  # r is its orbit's first vertex in the row
            root.append((r, orbit))
            excluded |= orbit
    return _search_kernel(g, tables, incumbent=incumbent, root=root, stabiliser=stabiliser)


def solve_bnb(g: Graph, kind: str, *, symmetry: Symmetry | None = None) -> InvariantResult:
    """Fast exact solver; value always matches the oracle, witness validates.

    ``symmetry``, for the domination kinds, describes a group A of
    automorphisms of g: its orbits, disjoint vertex masks covering g, and
    the point stabilisers of a subgroup B of A (``graphs.product_symmetry``
    builds one for a product: A from each factor's shift, reversal and twin
    swaps, B from its shift and reversal).  The root then branches over
    orbits (``_orbit_root``): a minimum set S meets the cover row of the root
    vertex u, so it meets some orbit O_i of the row; take the first such i
    and an automorphism in A that maps a vertex of S in O_i onto r_i.  The
    image of S is minimum, contains r_i, and avoids O_1 ... O_{i-1} because
    they are A-invariant, so branch i reaches a set of the same size.
    Below branch i the same argument runs one level down
    (``_search_kernel``): the stabiliser of r_i in B fixes the chosen set
    and leaves the excluded set invariant, so it maps any minimum set of a
    node's region onto one inside the branch of the first of its orbits
    that set meets, and each child carries the elements that also fix its
    own vertex.  This keeps the value only: the witness may be another
    minimum set than the one the unrooted search returns, so the kernel's
    label-dependent searches (lexleast probes, the enumeration) take no
    symmetry; lexleast reads one only between probes, to bar the orbits of
    failed ones.  Singleton orbits and empty stabilisers give the
    unrooted search's branches and witness.  Orbits that do not partition
    the vertices raise ``ValueError``; a stabiliser element that moves its
    point or an orbit raises ``AssertionError``, as does, in
    ``product_symmetry``, one built from a permutation that is not a
    factor automorphism.  The symmetry is ignored for rho.
    """
    _check_kind(kind)
    if kind == "rho":
        mask = _max_two_packing_bnb(g)
        valid = _two_packing_mask(g, mask)
    else:
        _check_isolate_free(g)
        tables = _kernel_tables(g, kind)
        incumbent = _greedy_domination(g, tables)
        if symmetry is None:
            mask = _search_kernel(g, tables, incumbent=incumbent)
        else:
            mask = _orbit_root(g, tables, incumbent, symmetry)
        valid = _PREDICATES[kind](g, mask)
    if not valid:
        raise AssertionError(f"branch and bound returned an invalid {kind} witness {mask:#x}")
    return InvariantResult(kind, mask.bit_count(), VertexSet(g.n, mask))
