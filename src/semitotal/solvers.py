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
(``graphs.Symmetry``), ``solve_bnb`` branches over orbits, not vertices,
at the root and below it; ``lexleast_min_semitotal_set`` searches each
probe over the orbits of the group that fixes the probe's locked set, and
bars the orbit of each failed probe.  The packing number has its own
search.

Why orbits keep the value (orbital branching: Ostrowski, Linderoth, Rossi
and Smriglio, "Orbital branching", Math. Program. 126, 2011).  A group K
is read through ``orbit(v)``, v's orbit under K as a vertex mask, and
``fix(v)``, the subgroup fixing v, both read off the factor permutation
lists of K's rectangles (``graphs.Symmetry``).  Let R be the sets of one
kind that contain a set C and avoid a set X, and let K fix C pointwise
and map X onto itself; then every k in K maps R onto itself and keeps
sizes.

- Branching (``_search_kernel``).  Every set of R meets the node's
  candidates, which it takes in order, skipping each in the orbit O_i of
  an earlier candidate v_i, so every candidate lies in some O_j.  Child j
  searches the sets of R that contain v_j and avoid O_1 ... O_{j-1}.  A
  minimum set S of R meets a first O_j, at w say; for k in K with
  k(w) = v_j, k(S) is a minimum set of R that contains v_j and avoids
  O_1 ... O_{j-1}, which are K-invariant, so child j holds it.  The child
  carries ``fix(v_j)``, which fixes C and v_j and keeps X and each O_i, so
  the argument runs on down the tree; it builds that stabiliser once it
  branches, after its bounds, which read no group, fail to prune it.  The
  same holds for existence: a set S of R within a budget meets a first
  O_j, and k(S), of the same size, lies in child j; so a budgeted search
  over orbits finds a set exactly when the plain search does.
- Barring (``lexleast_min_semitotal_set``).  When no minimum set of R
  contains v, none contains k(v), since k's inverse would map it to one
  that contains v; so v's whole orbit can join X, which keeps R's minimum
  sets and keeps X K-invariant.

At the root C and X are empty and K is the symmetry's group; below it
each group is a stabiliser in it, the elements of its rectangles that fix
a point, so every union of the group's orbits is one of the stabiliser's.
Either use keeps the minimum and whether a set within budget exists, not
the witness: a group moves the search to other sets.  So lexleast, which
reads only its probes' answers, gives them groups, and the enumeration,
which must reach every set, takes none.
"""

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, Symmetry, VertexSet, _bits

KINDS = ("gamma", "gamma_t", "gamma_t2", "rho")

ORACLE_VERTEX_LIMIT = 20

# _BYTE_BITS[b] lists the set bit offsets of the byte b in ascending order
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


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


def _check_symmetry(g: Graph, symmetry: Symmetry | None) -> None:
    if symmetry is None:
        return
    if symmetry.n != g.n:
        raise ValueError(f"symmetry acts on {symmetry.n} vertices, the graph has {g.n}")
    if symmetry.adj != g.adj:
        raise ValueError(f"symmetry was built for another graph on {g.n} vertices")


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
    degrees, the counting bound ``need``, whose entry c = 0..n is the
    members still needed to cover c vertices (see ``_search_kernel``), and
    the ranked rows ``cover_ranked`` and ``partner_ranked``, whose entry u
    lists cover[u] or partners[u] by degree descending, least index on
    ties.  The kernel fills an entry when a node first walks u's row, since
    a small solve reads few of them; callers that share one tables (the
    lexleast probes) share the entries."""
    cover = g.adj if kind == "gamma_t" else g.closed
    partners = g.partners if kind == "gamma_t2" else None
    negdeg = [-row.bit_count() for row in g.adj]
    delta = -min(negdeg)
    ratio = {"gamma": (1, delta + 1), "gamma_t": (1, delta), "gamma_t2": (2, 2 * delta + 1)}
    num, den = ratio[kind]
    need = [(c * num + den - 1) // den for c in range(g.n + 1)]
    return cover, partners, negdeg, need, [None] * g.n, [None] * g.n


def _greedy_domination(g: Graph, tables: tuple) -> int:
    """Deterministic greedy upper bound used to seed the search incumbent."""
    cover, partners = tables[:2]
    n = g.n
    full = (1 << n) - 1
    chosen = 0
    covered = 0
    while covered != full:
        best_v, best_gain = -1, -1
        uncovered = full & ~covered
        for v in range(n):
            gain = (cover[v] & uncovered).bit_count()
            if gain > best_gain and not chosen >> v & 1:
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
    group: Symmetry | None = None,
) -> int | None:
    """Branch and bound over coverage, with partner repair for gamma_t2.

    Searches the sets that contain ``chosen0`` and avoid ``excluded0``.  Two
    modes: *optimise* (``incumbent`` given) returns a minimum set, or the
    incumbent when nothing smaller exists; *budgeted-feasible* returns the
    first set of at most ``budget`` vertices, or None.  With ``collect`` given,
    budgeted-feasible mode appends each set it reaches and searches on; at
    budget gamma_t2 these are exactly the minimum sets.

    Branches on the uncovered vertex with the fewest candidate dominators
    or, once all are covered, on the first lonely member (one with no
    chosen partner), whose candidates are its partners.  A node walks that
    vertex's ranked row (``_kernel_tables``) and skips each candidate set in
    ``ex``, which starts as the node's excluded set and gains each tried
    candidate or its orbit; so it tries the row less the excluded set, by
    degree descending.  No candidate is chosen already: a lonely member has
    no chosen partner, and rows are symmetric, so a chosen v, which covers
    cover[v], lies in no uncovered vertex's row.  Two lower bounds on the
    members still needed: the counting bound ``need[|U|]`` on the |U|
    uncovered vertices, and the number of uncovered vertices with pairwise
    disjoint candidate sets, collected greedily in the scan that picks the
    branching vertex (each needs its own member).  The scan walks the
    uncovered mask a byte at a time and reads each nonzero byte's set bits
    from ``_BYTE_BITS``, so it visits the uncovered vertices in ascending
    order, as ``_bits`` does, and returns as soon as that number leaves no
    room under the incumbent or the budget.  A vertex with no candidate
    left counts as disjoint; a scan that goes on past it branches on it (no
    count is lower), with no child.

    A node with uncovered vertices whose counting bound leaves room for one
    more member decides it in one row walk, with no scan, no stabiliser and
    no child: it walks the ranked row of its lowest uncovered vertex, skips
    each excluded v, each v that leaves a vertex uncovered and, for
    gamma_t2, each v that leaves a member of ``chosen | 1 << v`` with no
    partner in it, and takes each v left as a leaf.  These are the sets
    that branching reaches, in its order: a completing v covers every
    uncovered vertex, so it lies in every uncovered vertex's row, and all
    rows are ranked by one key; the node's group fixes ``chosen`` pointwise,
    so it keeps the uncovered set, the orbit of a failing candidate holds
    no completing one, and skipping orbits saved only time; ``collect``
    runs with no group.

    ``need[c]`` is ceil(c * num / den).  For gamma (num, den) is
    (1, max degree + 1), since a member covers at most den vertices, and
    for gamma_t (open rows) (1, max degree).  For gamma_t2 it is
    (2, 2 max degree + 1).  Let F be the members still to add, U the
    uncovered vertices and D the max degree.  Give each f in F a partner
    p(f) within distance 2, so N[f] and N[p(f)] meet.  Add F in BFS order
    over the partner graph, starting from the chosen members.  An f whose
    partner is already present shares a vertex with a closed neighbourhood
    that is covered or already counted, so it adds at most D vertices of U.
    Only the first vertex of a component of F alone can add D + 1, and each
    such component has at least two members, so |U| <= D|F| + |F|/2, that
    is |F| >= 2|U| / (2D + 1).

    The bounds only prune and never reorder the search, so the incumbent
    sequence, the first feasible leaf and the collected sets do not depend
    on how strong they are.

    ``group``, a ``graphs.Symmetry`` that fixes ``chosen0`` and keeps
    ``excluded0``, is the root's; a node with a group, the root included,
    takes one child per orbit of it among its candidates and skips a
    candidate in the orbit of an earlier one.  The child for v searches
    with the group ``fix(v)``, None when nothing but the identity fixes v,
    and builds it from its parent's group once its bounds fail to prune
    it and it walks a row, so a child that a bound prunes builds none.
    The root uses ``group`` as it is.  None is the trivial group.  A group
    keeps the minimum in optimise mode and the answer in budgeted-feasible
    mode, not the witness (module docstring), so both take one;
    ``collect``, which must reach every set, takes none.
    """
    n = g.n
    full = (1 << n) - 1
    nbytes = (n + 7) // 8
    cover, partners, negdeg, need, cover_ranked, partner_ranked = tables
    first = incumbent is None
    best = incumbent
    best_size = budget + 1 if first else incumbent.bit_count()

    def search(chosen: int, covered: int, excluded: int, size: int, group, pivot: int) -> bool:
        nonlocal best, best_size
        uncovered = full & ~covered
        if uncovered:
            room = best_size - size  # members this node may still add, plus one
            bound = need[uncovered.bit_count()]
            if bound >= room:
                return False
            if room == 2:  # one member left: walk one row, no scan, no child
                u = (uncovered & -uncovered).bit_length() - 1
                order = cover_ranked[u]
                if order is None:
                    order = cover_ranked[u] = sorted(_bits(cover[u]), key=negdeg.__getitem__)
                for v in order:
                    if excluded >> v & 1 or uncovered & ~cover[v]:
                        continue
                    last = chosen | 1 << v
                    if partners is not None and any(not last & partners[w] for w in _bits(last)):
                        continue  # a member left with no partner
                    if collect is None:
                        best, best_size = last, size + 1
                        return first
                    collect.append(last)
                return False
            keep = ~excluded
            branch, branch_count, used, disjoint = -1, n + 1, 0, 0
            base = -8  # the hot loop: each byte's set bits from a table, ascending
            for byte in uncovered.to_bytes(nbytes, "little"):
                base += 8
                if not byte:
                    continue
                for u in _BYTE_BITS[byte]:
                    u += base
                    options = cover[u] & keep
                    if not options & used:  # also a vertex with no candidate left
                        used |= options
                        disjoint += 1
                        if disjoint >= room:
                            return False
                    count = options.bit_count()
                    if count < branch_count:
                        branch, branch_count = u, count
            if disjoint > bound:
                bound = disjoint
            ranked, rows = cover_ranked, cover
        else:
            branch = -1
            if partners is not None:
                rest = chosen
                while rest:  # _bits(chosen) inlined
                    low = rest & -rest
                    rest ^= low
                    u = low.bit_length() - 1
                    if not chosen & partners[u]:
                        branch = u  # a lonely member: no chosen partner
                        break
            if branch < 0:
                if size >= best_size:
                    return False
                if collect is not None:
                    collect.append(chosen)
                    return False
                best, best_size = chosen, size
                return first
            bound = 1
            if size + bound >= best_size:
                return False
            ranked, rows = partner_ranked, partners
        if pivot >= 0 and group is not None:
            group = group.fix(pivot)  # built only by a node that branches
        order = ranked[branch]
        if order is None:
            order = ranked[branch] = sorted(_bits(rows[branch]), key=negdeg.__getitem__)
        ex = excluded
        for v in order:
            if ex >> v & 1:
                continue  # excluded, or in the orbit of an earlier candidate
            if search(chosen | 1 << v, covered | cover[v], ex, size + 1, group, v):
                return True
            ex |= 1 << v if group is None else group.orbit(v)
            if size + bound >= best_size:
                return False  # incumbent improved below this node's bound
        return False

    covered0 = 0
    for v in _bits(chosen0):
        covered0 |= cover[v]
    search(chosen0, covered0, excluded0, chosen0.bit_count(), group, -1)
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
    witness of ``solve_bnb(g, "gamma_t2", symmetry=symmetry)``; the set does
    not depend on which.

    ``minimum`` must be bound to g (``ValueError`` otherwise) and
    semi-total dominating (``AssertionError`` otherwise); that it is
    minimum is trusted, not checked.  A larger start returns the least set
    of its own size: {0, 1, 2, 4} on P6 from {1, 2, 3, 4}, where
    gamma_t2 = 3.

    The loop keeps the locked prefix C and ``barred``, the whole excluded
    set of each probe.  Let F be the minimum sets that contain C and avoid
    ``barred``.  Invariant: F holds exactly the sets the plain ascending
    scan searches, which avoid every vertex below the next probe but C's.
    ``barred`` holds those vertices and otherwise only vertices in no set
    of F, so each probe succeeds exactly when the plain scan's does, and a
    barred vertex is never probed.  Without ``symmetry`` a failed probe
    bars v alone, and ``barred`` is the plain scan's excluded set.

    With ``symmetry`` (as for ``solve_bnb``) a failed probe bars v's orbit
    under a group K, a ``graphs.Symmetry``: the symmetry's group while C
    is empty, then ``fix`` of each locked vertex in turn, the elements of
    K's rectangles that fix it, so that K fixes C.  Every union of orbits
    of K is one of each group below it, so K keeps ``barred``, and barring
    an orbit keeps F (module docstring, barring); a lock only shrinks F and
    K.  The probe for v searches with K's subgroup ``fix(v)``, which fixes
    C and v and keeps ``barred``, a union of orbits of K and so of it: that
    is the setting of the branching argument, so the probe finds a set
    within budget exactly when the plain search does.  Its witness may
    differ from the plain search's; that changes which later probes the
    witness answers without a search, not any probe's answer, and so not
    the set.
    """
    _check_symmetry(g, symmetry)
    _check_isolate_free(g)
    if minimum is None:
        minimum = solve_bnb(g, "gamma_t2", symmetry=symmetry).witness
    elif not _semitotal_dominating_mask(g, _check_set(g, minimum)):
        raise AssertionError(f"starting set {minimum.mask:#x} is not semi-total dominating")
    witness = minimum.mask
    value = witness.bit_count()
    tables = _kernel_tables(g, "gamma_t2")
    group = symmetry
    chosen = barred = floor = 0
    for _ in range(value):
        for v in range(floor, g.n):
            if barred >> v & 1:
                continue
            probe = chosen | 1 << v
            fixed = None if group is None else group.fix(v)
            if witness & ((1 << (v + 1)) - 1) != probe:
                found = _search_kernel(
                    g, tables, budget=value, chosen0=probe, excluded0=barred, group=fixed
                )
                if found is None:
                    barred |= 1 << v if group is None else group.orbit(v)
                    continue
                witness = found
            chosen = probe
            floor = v + 1
            group = fixed
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

    def pack(candidates: int, chosen: int, size: int) -> None:
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
        pack(candidates & ~conf[pick] & ~(1 << pick), chosen | 1 << pick, size + 1)
        pack(candidates & ~(1 << pick), chosen, size)

    pack((1 << n) - 1, 0, 0)
    return best_mask


def solve_bnb(g: Graph, kind: str, *, symmetry: Symmetry | None = None) -> InvariantResult:
    """Fast exact solver; value always matches the oracle, witness validates.

    ``symmetry``, for the domination kinds, is a group of automorphisms of
    g held as rectangles of factor permutations, a ``graphs.Symmetry``
    (``graphs.Symmetry(prod)`` builds one for a product from each factor's
    shift and reversal).  The search then branches over the group's orbits
    at the root and over stabilisers' orbits below it (``_search_kernel``),
    which keeps the value (module docstring).  The witness may be another
    minimum set than the plain search's; the identity alone gives the plain
    search's witness.  A symmetry built for another graph than g, of g's
    order or not, raises ``ValueError``; ``Symmetry`` raises
    ``AssertionError`` for a factor permutation that is not an
    automorphism.  The symmetry is ignored for rho.
    """
    _check_kind(kind)
    _check_symmetry(g, symmetry)
    if kind == "rho":
        mask = _max_two_packing_bnb(g)
        valid = _two_packing_mask(g, mask)
    else:
        _check_isolate_free(g)
        tables = _kernel_tables(g, kind)
        mask = _search_kernel(g, tables, incumbent=_greedy_domination(g, tables), group=symmetry)
        valid = _PREDICATES[kind](g, mask)
    if not valid:
        raise AssertionError(f"branch and bound returned an invalid {kind} witness {mask:#x}")
    return InvariantResult(kind, mask.bit_count(), VertexSet(g.n, mask))
