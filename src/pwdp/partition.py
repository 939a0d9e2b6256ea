"""Canonical set-partition labels (restricted growth strings) and
path-fragment labels.

A sequence of class labels is canonical when, ignoring frozen sentinel
values, each new label is exactly one larger than the largest label seen
so far, starting at 1.  Two label sequences describe the same partition
iff they normalize to the same canonical sequence.

Path-fragment labels give each bag vertex on a path a value: a lone
sentinel for a one-vertex fragment, a settled sentinel once both of its
path edges are chosen, or a positive id shared by the two endpoints of a
longer fragment.  Sentinels are at most 0; the caller picks them.
"""
from __future__ import annotations

from math import comb
from typing import Iterable, Sequence, Tuple


def normalize_partition(labels: Sequence[int], frozen: Iterable[int] = ()) -> Tuple[int, ...]:
    """Relabel left to right with first-use order 1, 2, 3, ...

    Values in frozen pass through unchanged and do not consume labels.
    """
    frozen = frozenset(frozen)
    mapping = {}
    out = []
    nxt = 1
    for x in labels:
        if x in frozen:
            out.append(x)
            continue
        if x not in mapping:
            mapping[x] = nxt
            nxt += 1
        out.append(mapping[x])
    return tuple(out)


def is_canonical(labels: Sequence[int], frozen: Iterable[int] = ()) -> bool:
    return tuple(labels) == normalize_partition(labels, frozen)


def restricted_growth_strings(n: int, max_classes: int = None):
    """Yield all canonical label sequences of length n.

    With max_classes set, only partitions into at most that many classes
    are produced.  Order is lexicographic.
    """
    if n == 0:
        yield ()
        return
    cap = n if max_classes is None else min(max_classes, n)
    if cap < 1:
        return
    seq = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(seq)
            return
        hi = min(used + 1, cap)
        for c in range(1, hi + 1):
            seq[i] = c
            yield from rec(i + 1, max(used, c))

    yield from rec(0, 0)


def fragment_states(nv, frozen_vals, pair_only):
    """All canonical tuples over frozen values plus fragment ids.

    Ids appear at most twice; with pair_only, states where an id ended
    up unpaired are dropped (both endpoints of an open cycle must stay
    in the bag).
    """
    state = [0] * nv

    def rec(i, open_ids, closed_max):
        if i == nv:
            if not pair_only or not open_ids:
                yield tuple(state)
            return
        for v in frozen_vals:
            state[i] = v
            yield from rec(i + 1, open_ids, closed_max)
        for pid in sorted(open_ids):
            state[i] = pid
            yield from rec(i + 1, open_ids - {pid}, closed_max)
        fresh = closed_max + 1
        state[i] = fresh
        yield from rec(i + 1, open_ids | {fresh}, fresh)

    yield from rec(0, frozenset(), 0)


def count_fragment_states(nv, frozen_vals, pair_only, noncrossing=False):
    """How many tuples fragment_states(nv, frozen_vals, pair_only)
    yields, in closed form; with noncrossing, how many do not cross.

    C(nv, q) ways pick the q positions that carry ids, the rest take a
    frozen value, and f(q) ways group the q ends, by the fate of the
    first: it ends alone (not with pair_only), or pairs with any of the
    other q - 1, or, without crossing, with the one at k + 2, splitting
    the rest into k inside and q - 2 - k outside.  So f counts
    involutions or pairings, and without crossing Motzkin or Catalan.
    """
    f = [1]
    for q in range(1, nv + 1):
        n = 0 if pair_only else f[q - 1]
        if noncrossing:
            n += sum(f[k] * f[q - 2 - k] for k in range(q - 1))
        elif q > 1:
            n += (q - 1) * f[q - 2]
        f.append(n)
    return sum(comb(nv, q) * len(frozen_vals) ** (nv - q) * f[q]
               for q in range(nv + 1))


def extend_fragment(labels, j, lone, settled):
    """Labels after a new vertex joins the fragment end at position j,
    with the new vertex appended; None when j is not an endpoint."""
    lj = labels[j]
    if lj > 0:
        return labels[:j] + (settled,) + labels[j + 1:] + (lj,)
    if lj != lone:
        return None
    pid = max(0, *labels) + 1
    return labels[:j] + (pid,) + labels[j + 1:] + (pid,)


def join_fragments(labels, j, k, lone, settled):
    """Labels after a new vertex links the fragment ends at positions j
    and k, with the new vertex appended settled; None when either is not
    an endpoint or both end the same fragment (that would close a cycle).
    """
    lj, lk = labels[j], labels[k]
    if (lj <= 0 and lj != lone) or (lk <= 0 and lk != lone):
        return None
    out = list(labels)
    if lj == lone and lk == lone:
        pid = max(0, *labels) + 1
        out[j] = pid
        out[k] = pid
    elif lj == lone:
        out[j] = lk
        out[k] = settled
    elif lk == lone:
        out[k] = lj
        out[j] = settled
    else:
        if lj == lk:
            return None
        partner = next((t for t, x in enumerate(labels)
                        if x == lk and t != k), None)
        if partner is not None:
            out[partner] = lj
        out[j] = settled
        out[k] = settled
    out.append(settled)
    return tuple(out)


def _open_pairs(labels):
    """Bag positions (1-based) of ids occurring exactly twice, as (a, b)."""
    occ = {}
    for pos, s in enumerate(labels, start=1):
        if s > 0:
            occ.setdefault(s, []).append(pos)
    return [tuple(ps) for ps in occ.values() if len(ps) == 2]


def crosses(labels) -> bool:
    """Whether two fragments' endpoint pairs interleave in bag order."""
    pairs = _open_pairs(labels)
    for i in range(len(pairs)):
        a, b = pairs[i]
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            if not (b < c or d < a or (a < c and d < b) or (c < a and b < d)):
                return True
    return False


def count_partitions(n: int, max_classes: int = None) -> int:
    """Number of partitions of an n-set into at most max_classes classes.

    Sum of Stirling numbers of the second kind; the Bell number when
    max_classes is n or unset.
    """
    if n == 0:
        return 1
    cap = n if max_classes is None else min(max_classes, n)
    if cap < 1:
        return 0
    # S[k] = S(i, k) built rowwise: S(i, k) = k*S(i-1, k) + S(i-1, k-1)
    prev = [0] * (cap + 1)
    prev[0] = 1
    for _ in range(n):
        cur = [0] * (cap + 1)
        for k in range(1, cap + 1):
            cur[k] = k * prev[k] + prev[k - 1]
        prev = cur
    return sum(prev[1:])
