"""Generic backtracking enumeration over a candidate space.

This is the "enumeration phase" shared by all preprocessing-enumeration
matchers (GraphQL, CFL, CFQL).  Given complete candidate vertex sets Φ and
a matching order, it extends partial embeddings depth by depth; for the
vcFV verification step it is invoked with ``limit=1`` so it "returns
immediately after finding the first subgraph isomorphism" (Section III-B).

Two kernels implement the same contract:

:func:`enumerate_embeddings` (the kernel every caller runs)
    An explicit-stack kernel over the flat arrays of a compiled order
    (:class:`repro.matching.plan.CompiledOrder`).  The used-vertex set is
    an int bitmap, deadline polls are strided over units of work rather
    than per frame, the partial intersection Φ(u) ∩ N(...) over backward
    neighbors *below the parent* is memoized per stack frame and shared by
    sibling subtrees (GraphMini-style reuse), the deepest level is counted
    with a single popcount instead of a per-candidate loop, and every
    frame returns a DAF-style *failing set* — the positions whose images
    explain why nothing below it matched — so a parent that is not in its
    child's failing set drops its remaining siblings instead of failing
    under each for the same reason (docs/ALGORITHMS.md has the argument).

:func:`enumerate_embeddings_recursive`
    The original recursive kernel, kept verbatim as the reference
    implementation for the randomized parity suite.

The matching order must be *connected*: every vertex except the first needs
at least one neighbor earlier in the order.  All orders produced in this
library satisfy that for connected query graphs, and the precondition is
checked eagerly — once per compiled plan rather than once per data graph
when a :class:`~repro.matching.plan.QueryPlan` is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.labeled_graph import Graph
from repro.matching.candidates import CandidateSets
from repro.matching.plan import QueryPlan, compile_order
from repro.utils.bitset import bit_list
from repro.utils.timing import Deadline

__all__ = [
    "EnumerationResult",
    "enumerate_embeddings",
    "enumerate_embeddings_recursive",
]

#: Units of enumeration work between deadline polls.  One unit is one
#: candidate considered (popped from a pool or counted at the deepest
#: level), so expiry is detected within ~`_CHECK_STRIDE` candidates just
#: like the recursive kernel's per-call polling, at a fraction of the cost.
_ENUM_STRIDE = 64

#: The failing set of a subtree that produced an embedding: all ones, so
#: it contains every position (never prunes) and absorbs every union.
_FOUND = -1


@dataclass
class EnumerationResult:
    """Outcome of one enumeration run.

    ``completed`` is ``False`` when the search stopped early because
    ``limit`` embeddings were found; a deadline expiry raises
    :class:`~repro.utils.errors.TimeLimitExceeded` instead of returning.
    ``recursion_calls`` counts the search nodes visited and ``pruned`` the
    candidates a failing-set cut skipped without visiting.
    """

    num_embeddings: int = 0
    embeddings: list[dict[int, int]] = field(default_factory=list)
    recursion_calls: int = 0
    completed: bool = True
    pruned: int = 0

    @property
    def found(self) -> bool:
        return self.num_embeddings > 0


def _validate_order(query: Graph, order: tuple[int, ...]) -> list[list[int]]:
    """Check the order covers all vertices connectedly; return, for each
    position, the query neighbors that appear earlier in the order.

    Compat shim: plan compilation (:func:`repro.matching.plan.compile_order`)
    performs this validation once per query; this wrapper remains for the
    recursive reference kernel and any external callers.
    """
    compiled = compile_order(query, tuple(order))
    return [
        [compiled.order[p] for p in positions] for positions in compiled.backward
    ]


def enumerate_embeddings(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    order: tuple[int, ...] | list[int],
    limit: int | None = None,
    collect: bool = False,
    deadline: Deadline | None = None,
    plan: QueryPlan | None = None,
) -> EnumerationResult:
    """Enumerate subgraph isomorphisms from ``query`` to ``data``.

    Parameters
    ----------
    candidates:
        A *complete* candidate vertex set (Definition III.1).  Correctness
        only needs completeness; tighter sets just prune more.
    order:
        Connected matching order over the query vertices.
    limit:
        Stop after this many embeddings (``1`` = the verification step).
    collect:
        Keep the embeddings themselves (as ``{query vertex: data vertex}``
        dicts) rather than only counting.
    plan:
        Optional compiled :class:`~repro.matching.plan.QueryPlan`; when
        given, the order's validation and backward structure come from the
        plan's memo instead of being rebuilt for this data graph.
    """
    order = tuple(order)
    result = EnumerationResult()
    if not order:
        # The empty query has exactly one (empty) embedding.
        result.num_embeddings = 1
        if collect:
            result.embeddings.append({})
        return result
    compiled = (
        plan.compiled_order(order) if plan is not None else compile_order(query, order)
    )
    ordv = compiled.order
    prefixes = compiled.prefix_positions
    extends = compiled.extends_previous
    ancestors = compiled.ancestors
    phi = candidates.bitmaps
    n = len(ordv)

    if n == 1:
        result.recursion_calls = 1
        pool = phi[ordv[0]]
        cnt = pool.bit_count()
        if deadline is not None:
            deadline.check_every(cnt + 1)
        take = cnt if limit is None else min(cnt, limit)
        result.num_embeddings = take
        if limit is not None and cnt >= limit:
            result.completed = False
        if collect and take:
            u0 = ordv[0]
            result.embeddings = [{u0: v} for v in bit_list(pool)[:take]]
        return result

    last = n - 1
    nbr = data.neighbor_bitmaps()
    mapping_v = [0] * n  # data vertex committed at each depth
    pools = [0] * n  # un-tried candidate bits per live frame
    # Sibling-shared prefix memo: child_local[d] caches the *local*
    # candidates Φ(order[d]) ∩ ⋂ N(image of backward positions < d-1) and
    # child_prefix[d] the same minus the used vertices; both are valid for
    # the lifetime of frame d-1 (everything they read is fixed until that
    # frame is popped and re-created).  The search walks the masked value;
    # a failure decodes its injectivity conflicts from the unmasked one.
    child_local = [0] * n
    child_prefix = [-1] * n
    # Failing sets (position bitmasks): fs[d] accumulates what the tried
    # candidates of live frame d failed on; _FOUND once one of them led to
    # an embedding.  Zero whenever frame d is not live.
    fs = [0] * n
    used = 0
    work = 0
    calls = 1
    found = 0
    pruned = 0

    pools[0] = phi[ordv[0]]
    depth = 0
    while depth >= 0:
        if deadline is not None and work >= _ENUM_STRIDE:
            deadline.check_every(work)
            work = 0
        pool = pools[depth]
        if pool:
            low = pool & -pool
            pools[depth] = pool ^ low
            work += 1
            v = low.bit_length() - 1
            child = depth + 1
            pref = child_prefix[child]
            if pref < 0:
                local = phi[ordv[child]]
                for p in prefixes[child]:
                    local &= nbr[mapping_v[p]]
                child_local[child] = local
                child_prefix[child] = pref = local & ~used
            # No self loops, so N(v) already excludes v itself.
            cpool = pref & nbr[v] if extends[child] else pref & ~low
            if child == last:
                # Deepest level: the pool *is* the embedding set — count it
                # with one popcount instead of materialising each extension.
                calls += 1
                if cpool:
                    cnt = cpool.bit_count()
                    work += cnt
                    if collect:
                        base = {ordv[i]: mapping_v[i] for i in range(depth)}
                        base[ordv[depth]] = v
                        u_last = ordv[last]
                        take = cnt if limit is None else min(cnt, limit - found)
                        for w in bit_list(cpool)[:take]:
                            emb = dict(base)
                            emb[u_last] = w
                            result.embeddings.append(emb)
                    if limit is not None and found + cnt >= limit:
                        found = limit
                        result.completed = False
                        break
                    found += cnt
                    fs[depth] = _FOUND
                    continue
            elif cpool:
                mapping_v[depth] = v
                used |= low
                pools[child] = cpool
                child_prefix[child + 1] = -1
                depth = child
                calls += 1
                continue
            # order[child] has no candidate under this prefix: step into
            # its (empty) frame so one path below handles every failure.
            mapping_v[depth] = v
            used |= low
            depth = child
            failing = ancestors[child]
        else:
            failing = fs[depth]
            fs[depth] = 0
        # Frame `depth` is done and `used` covers exactly the positions
        # below it.  Unless an embedding was found under it, the local
        # candidates an earlier position holds failed too: each blames its
        # owner's ancestors.  (`used` includes the parent's own image,
        # which a child not adjacent to the parent can collide with.)
        below = (1 << depth) - 1
        if failing & below != below:
            conflict = child_local[depth] & used
            if conflict and extends[depth]:
                conflict &= nbr[mapping_v[depth - 1]]
            while conflict:
                bit = conflict & -conflict
                conflict ^= bit
                failing |= ancestors[mapping_v.index(bit.bit_length() - 1, 0, depth)]
        # Return the failing set to the parent.  A set that does not name
        # the parent's position fails identically under every sibling, so
        # the rest of the parent's pool is dropped and the set travels on.
        while True:
            depth -= 1
            if depth < 0:
                break
            used ^= 1 << mapping_v[depth]
            if failing >> depth & 1:
                fs[depth] |= failing
                break
            pruned += pools[depth].bit_count()
            pools[depth] = 0
            fs[depth] = 0
    result.num_embeddings = found
    result.recursion_calls = calls
    result.pruned = pruned
    return result


def enumerate_embeddings_recursive(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    order: tuple[int, ...] | list[int],
    limit: int | None = None,
    collect: bool = False,
    deadline: Deadline | None = None,
    plan: QueryPlan | None = None,
) -> EnumerationResult:
    """The original recursive kernel, kept as the parity-test reference.

    ``plan`` is accepted for signature compatibility; the reference always
    re-validates the order itself.
    """
    del plan  # the reference deliberately takes the slow, obvious path
    order = tuple(order)
    result = EnumerationResult()
    if not order:
        # The empty query has exactly one (empty) embedding.
        result.num_embeddings = 1
        if collect:
            result.embeddings.append({})
        return result
    backward = _validate_order(query, order)
    n = len(order)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates_at(i: int) -> list[int]:
        """Data vertices consistent with the partial embedding at depth i.

        The pool is Φ(u) ∩ N(image) over every already-mapped query
        neighbor — one bitmap AND per neighbor, decoded once at the end.
        """
        u = order[i]
        if i == 0:
            return list(candidates[u])
        pool = candidates.bits(u)
        for u2 in backward[i]:
            pool &= data.neighbor_bitmap(mapping[u2])
            if not pool:
                return []
        return bit_list(pool)

    def recurse(i: int) -> bool:
        """Extend the embedding at depth ``i``; returns False to abort."""
        result.recursion_calls += 1
        if deadline is not None:
            deadline.check()
        u = order[i]
        for v in candidates_at(i):
            if v in used:
                continue
            if i + 1 == n:
                result.num_embeddings += 1
                if collect:
                    final = dict(mapping)
                    final[u] = v
                    result.embeddings.append(final)
                if limit is not None and result.num_embeddings >= limit:
                    result.completed = False
                    return False
            else:
                mapping[u] = v
                used.add(v)
                keep_going = recurse(i + 1)
                del mapping[u]
                used.discard(v)
                if not keep_going:
                    return False
        return True

    recurse(0)
    return result
