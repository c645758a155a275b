"""n-small roots, dominance bookkeeping, and type classification.

The table of n-small roots is grown breadth-first from the simple roots.
A depth-increasing reflection step s(beta) (one with B(a_s, beta) < 0)
transports the dominated set and picks up a_s exactly when
B(a_s, beta) <= -1; the root survives while it strictly dominates at most
n positive roots.  The pairwise dominance criterion and this closure rule
come from the small-root literature rather than being re-derived here, so
both are cross-checked against the affine dominance oracle and an
exhaustive recount; the criterion, the depth and the oracle with its
radical live with those tests, in ``tests/conftest.py``.
"""

from __future__ import annotations

import enum
from array import array
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .elements import _mask_bits
from .errors import BudgetExceeded, InternalInvariant, InvalidGroupSpec
from .scalars import Scalar
from .system import CoxeterSystem

NEGATIVE = -1  # theta(s) marker: beta = a_s, reflection goes negative
EXIT = -2      # theta(s) marker: s(beta) is not n-small

# Dominance pairs (root, strictly dominated root) of one table.  ~A2 holds
# 3n(n+1) of them at level n, so 270,900 at n = 300, and passes this budget
# at n = 408 after 0.7 s at 44 MB peak RSS; triangle(4,4,4) passes it after
# 5.5 s at 71 MB (Python 3.11).  With no budget, a huge n grows the table of
# an infinite group without end.
DOMINANCE_BUDGET = 500_000

# Bytes of the action table of SmallRootTable, about 4 * rank * |table|^2,
# predicted before it is built: A40 116 MB (its first ``images`` raised peak
# RSS from 19 to 130 MB), A60 0.8 GB, A30 28 MB, ~D5 at level 1 0.3 MB.
IMAGE_TABLE_BUDGET = 64_000_000


class Classification(enum.Enum):
    FINITE = "finite"
    AFFINE = "affine"
    INDEFINITE = "indefinite"


# ---------------------------------------------------------------------------
# Type classification by one exact elimination
#
# Gauss-Jordan on a symmetric matrix without row exchanges meets, as its k-th
# pivot, the ratio d_k / d_{k-1} of consecutive leading principal minors.  By
# Sylvester's criterion the matrix is positive definite iff every pivot is
# positive.  A connected Gram matrix is affine iff it is singular and every
# proper principal submatrix is positive definite (Kac, *Infinite-dimensional
# Lie algebras*, Thm 4.3 and Lemma 4.5); by Cauchy interlacing it is enough
# that one proper principal submatrix, the leading one, is.  The reduced rows
# of an affine matrix then hold its radical.

def _leading_pivots(mat: Sequence[Sequence[Scalar]]
                    ) -> tuple[list[Scalar], list[list[Scalar]]]:
    """Pivots and reduced rows of Gauss-Jordan without row exchanges.

    Stops right after the first pivot that is <= 0, leaving its column
    uneliminated; the rows are not normalized, so m[r][r] is the r-th pivot.
    """
    m = [list(row) for row in mat]
    n = len(m)
    pivots: list[Scalar] = []
    for k in range(n):
        pivot = m[k][k]
        pivots.append(pivot)
        if pivot.sign() <= 0:
            break
        inv = pivot.inverse()
        for r in range(n):
            if r != k and not m[r][k].is_zero():
                factor = m[r][k] * inv
                for c in range(k, n):
                    m[r][c] = m[r][c] - factor * m[k][c]
    return pivots, m


def classify_type(sys: CoxeterSystem, subset: Iterable[int]) -> Classification:
    """Finite / affine / indefinite type of the standard parabolic on subset.

    A reducible subset is finite iff every component is.  A connected subset
    of size k is FINITE iff all k pivots of its Gram submatrix are positive
    (Sylvester), AFFINE iff the first k-1 are positive and the k-th is
    exactly zero (Kac), and INDEFINITE otherwise.
    """
    nodes = sorted(set(subset))
    if not nodes:
        raise InvalidGroupSpec("empty subset")
    comps = sys.matrix.components(nodes)
    if len(comps) > 1:
        if all(classify_type(sys, comp) is Classification.FINITE for comp in comps):
            return Classification.FINITE
        return Classification.INDEFINITE
    pivots, _ = _leading_pivots([[sys.gram[i][j] for j in nodes] for i in nodes])
    last = pivots[-1].sign()
    if last > 0:
        return Classification.FINITE
    if last == 0 and len(pivots) == len(nodes):
        return Classification.AFFINE
    return Classification.INDEFINITE


def classify_system(sys: CoxeterSystem) -> Classification:
    """:func:`classify_type` of the whole system, made once per system."""
    if sys._classification is None:
        sys._classification = classify_type(sys, range(sys.rank))
    return sys._classification


# ---------------------------------------------------------------------------
# The small-root table

class SmallRootNode(NamedTuple):
    rid: int                     # interned root id in the parent system
    dp: int                      # depth
    dominated: frozenset[int]    # node ids of roots strictly dominated
    support: frozenset[int]
    spherical: bool
    theta: tuple[int, ...]       # per generator: node id, NEGATIVE or EXIT

    @property
    def dp_inf(self) -> int:
        return len(self.dominated)


class SmallRootTable:
    """All n-small roots of a system with their reflection transitions.

    A set of n-small roots, such as Sigma_n(w), is an int node mask: bit
    ``nid`` is set iff node ``nid`` is in the set.  Simple roots are nodes
    0 to rank - 1, so the low ``rank`` bits of Sigma_n(w) hold the left
    descents of w, as in an inversion set.
    """

    def __init__(self, nodes: list[SmallRootNode], node_by_rid: dict[int, int]):
        self.nodes = nodes
        self.node_by_rid = node_by_rid
        self._nbytes = (len(nodes) + 7) // 8  # of a node mask
        self._field = (1 << len(nodes)) - 1  # one letter's packed image
        self._shifts = tuple(range(0, len(nodes) * len(nodes[0].theta),
                                   len(nodes)))
        # a packed image with a_s in the field of each letter s
        self._with_roots = sum(1 << shift + s
                               for s, shift in enumerate(self._shifts))
        # per letter s, the node mask of the roots whose image under s is
        # not n-small
        self.exits = [sum(1 << nid for nid, node in enumerate(nodes)
                          if node.theta[s] == EXIT)
                      for s in range(len(nodes[0].theta))]

    def __len__(self) -> int:
        return len(self.nodes)

    def small_part(self, mask: int) -> int:
        """The node mask of the table's roots among those set in a root-id
        mask: Sigma_n(w) for the inversion set N(w)."""
        get = self.node_by_rid.get
        out = 0
        for rid in _mask_bits(mask):
            nid = get(rid)
            if nid is not None:
                out |= 1 << nid
        return out

    def images(self, mask: int) -> list[int]:
        """s(A) restricted to the table, as a node mask, for a node mask A
        and every letter s; a_s, which s sends negative, adds nothing.

        The images of a node under all letters are packed into one int,
        letter s in the len(self) bits from ``_shifts[s]`` up.  Per byte of
        a mask, a table built on first use holds the OR of those ints over
        the nodes of each byte value, so the images take one lookup per
        byte of A, about len(self) / 8, and no walk over its nodes.
        """
        packed = 0
        for part, b in zip(self._slices,
                           mask.to_bytes(self._nbytes, "little")):
            packed |= part[b]
        field = self._field
        return [packed >> shift & field for shift in self._shifts]

    def canonical_walk(self, budget: int) -> tuple[list[int], array]:
        """The states of the n-canonical automaton and their rows.

        A state is a node mask; the move by s is defined iff bit s (a_s) is
        clear and sends A to {a_s} union s(A).  States are found from
        the empty set in BFS order, letters in order.  The rows are laid
        end to end in one ``array('i')``: entry q * rank + s is the target
        of state q by letter s, -1 for none.  More than ``budget`` states
        raise ``BudgetExceeded``.

        A state costs one packed lookup, as in :meth:`images`, whose start
        value already holds bit s in letter s's field, so each target is a
        shift and a mask of it.  The letters a state reads depend on its
        low ``rank`` bits alone, and are listed once per pattern of them.
        """
        slices, nbytes, field = self._slices, self._nbytes, self._field
        with_roots = self._with_roots
        letters = list(enumerate(self._shifts))
        descents = (1 << len(letters)) - 1
        readable: dict[int, list[tuple[int, int]]] = {}
        blank = [-1] * len(letters)
        state_ids = {0: 0}
        get = state_ids.get
        masks = [0]
        flat = array("i")
        # states are numbered as they are found, so a scan of the growing
        # list of masks expands them in BFS order
        for mask in masks:
            packed = with_roots
            for part, b in zip(slices, mask.to_bytes(nbytes, "little")):
                packed |= part[b]
            low = mask & descents
            moves = readable.get(low)
            if moves is None:
                moves = readable[low] = [(s, shift) for s, shift in letters
                                         if not low >> s & 1]
            row = blank[:]
            for s, shift in moves:
                target_mask = packed >> shift & field
                target = get(target_mask)
                if target is None:
                    target = len(masks)
                    if target >= budget:
                        raise BudgetExceeded(
                            f"canonical automaton outgrew the state budget "
                            f"of {budget:,}")
                    state_ids[target_mask] = target
                    masks.append(target_mask)
                row[s] = target
            flat.fromlist(row)
        return masks, flat

    def blocking_sets(self, head: Sequence[int],
                      after: Sequence[int]) -> list[int]:
        """Bad(q) of each state q of a trim automaton that reads the reduced
        words of the table's system, as a node mask.

        The automaton's moves into state t are the chain ``head[t],
        after[head[t]], ...`` up to -1, each coded p * rank + s for the
        move from p by letter s.  Bad is the least family of sets in which
        Bad(p) holds a_s and s(Bad(t)) for each move p -> t by s, s(.) the
        action of :meth:`images`.  Unrolled, beta is in Bad(q) iff some
        word w is read from q, then some letter s, and w carries beta onto
        a_s.  So Bad(q) depends only on the words read from q.

        On the n-canonical automaton, n the table's level, the move by s
        sends A to {a_s} union s(A), and s(.) is a partial involution on
        the small roots that distributes over unions.  So a word is read
        from A iff it is read from the empty set and, for every beta in A,
        no image of beta along a prefix is the root a_s of the next letter
        s.  Bad(A) is disjoint from A (such a beta would stop that s).  So
        two states read the same words iff their blocking sets are equal:
        a shortest word read from A but not from A' ends in a letter
        stopped by some beta in A', and beta then lies in Bad(A) but not in
        Bad(A').  In any other trim automaton of these words, a state
        reached by a word u reads the words that the canonical state
        reached by u reads, so it has that state's blocking set, and the
        same holds.

        The fixpoint is a worklist over the predecessors of each state,
        deepest states first.  A visit takes one packed lookup of the
        images of Bad(t) under all letters, started, as in
        :meth:`canonical_walk`, with a_s in letter s's field, so each move
        into t adds a_s and s(Bad(t)) to Bad(p) by a shift and a mask.
        """
        slices, nbytes, field = self._slices, self._nbytes, self._field
        shifts, with_roots = self._shifts, self._with_roots
        n, rank = len(head), len(shifts)
        bad = [0] * n
        work = array("i", range(n))
        queued = bytearray(b"\x01") * n
        while work:
            t = work.pop()
            queued[t] = 0
            packed = with_roots
            for part, b in zip(slices, bad[t].to_bytes(nbytes, "little")):
                packed |= part[b]
            code = head[t]
            while code >= 0:
                p, s = divmod(code, rank)
                old = bad[p]
                new = old | packed >> shifts[s] & field
                if new != old:
                    bad[p] = new
                    if not queued[p]:
                        queued[p] = 1
                        work.append(p)
                code = after[code]
        return bad

    @cached_property
    def _slices(self) -> list[list[int]]:
        rank, size = len(self._shifts), len(self)
        # 256 entries per mask byte: a list slot, an int of rank * size bits
        predicted = 256 * self._nbytes * (32 + 4 * -(-rank * size // 30))
        if predicted > IMAGE_TABLE_BUDGET:
            raise BudgetExceeded(
                f"the action table of {size:,} small roots under {rank} "
                f"letters would take about {predicted:,} bytes, over the "
                f"table budget of {IMAGE_TABLE_BUDGET:,} bytes")
        return _byte_slices([sum(1 << nid + self._shifts[s]
                                 for s, nid in enumerate(node.theta)
                                 if nid >= 0)
                             for node in self.nodes])


def _byte_slices(image: list[int]) -> list[list[int]]:
    """Per byte j of a mask, the table whose entry b is the OR of
    image[8j + i] over the bits i of b.

    Each table is built by doubling: the entries with bit i set are those
    without it, ORed with the image of bit i.  The last table only covers
    the bits that a mask can hold.
    """
    slices = []
    for j in range(0, len(image), 8):
        row = [0]
        for bit in image[j:j + 8]:
            row += [m | bit for m in row]
        slices.append(row)
    return slices


def build_small_roots(sys: CoxeterSystem, level: int) -> SmallRootTable:
    """The n-small roots of the system, built once per level and cached.

    A table holding more than ``DOMINANCE_BUDGET`` dominance pairs raises
    ``BudgetExceeded``.
    """
    if level < 0:
        raise InvalidGroupSpec("level must be a natural number")
    tables = sys._small_root_tables
    if level in tables:
        return tables[level]
    rank = sys.rank
    dominated_rids: list[frozenset[int]] = []  # by rids during construction
    dps: list[int] = []
    rids: list[int] = []
    node_by_rid: dict[int, int] = {}
    thetas: list[list[int | None]] = []
    pairs = 0

    for s in range(rank):
        node_by_rid[s] = s
        rids.append(s)
        dps.append(1)
        dominated_rids.append(frozenset())
        thetas.append([None] * rank)

    i = 0
    while i < len(rids):
        rid = rids[i]
        coords = sys.root_coords(rid)
        for s in range(rank):
            if rid == s:
                thetas[i][s] = NEGATIVE
                continue
            b = sys.bilinear_simple(s, coords)
            sgn = b.sign()
            if sgn == 0:
                thetas[i][s] = i
                continue
            _, image = sys.reflect_id(s, rid, b)
            if sgn > 0:
                target = node_by_rid.get(image)
                if target is None:
                    raise InternalInvariant(
                        "depth-decreasing image missing from the table")
                thetas[i][s] = target
                continue
            dom = set()
            for drid in dominated_rids[i]:
                sg, dimg = sys.reflect_id(s, drid)
                if sg < 0:
                    raise InternalInvariant("dominated root went negative")
                dom.add(dimg)
            if (b + 1).sign() <= 0:
                dom.add(s)
            if len(dom) > level:
                thetas[i][s] = EXIT
                continue
            existing = node_by_rid.get(image)
            if existing is not None:
                if dominated_rids[existing] != frozenset(dom):
                    raise InternalInvariant(
                        "inconsistent dominated sets for one root")
                thetas[i][s] = existing
            else:
                pairs += len(dom)
                if pairs > DOMINANCE_BUDGET:
                    raise BudgetExceeded(
                        f"{level}-small roots outgrew the dominance budget "
                        f"of {DOMINANCE_BUDGET:,} pairs")
                node_by_rid[image] = len(rids)
                thetas[i][s] = len(rids)
                rids.append(image)
                dps.append(dps[i] + 1)
                dominated_rids.append(frozenset(dom))
                thetas.append([None] * rank)
        i += 1

    # supports of a finite system, proper ones of an affine one, are spherical
    whole = classify_system(sys)
    spherical = {frozenset(range(rank)): whole is Classification.FINITE}
    nodes: list[SmallRootNode] = []
    for i, rid in enumerate(rids):
        dom_nodes = frozenset(node_by_rid[drid] for drid in dominated_rids[i])
        if len(dom_nodes) != len(dominated_rids[i]):
            raise InternalInvariant("dominated root missing from the table")
        supp = sys.root_support(rid)
        if supp not in spherical:
            spherical[supp] = (whole is not Classification.INDEFINITE or
                               classify_type(sys, supp) is Classification.FINITE)
        nodes.append(SmallRootNode(
            rid=rid, dp=dps[i], dominated=dom_nodes, support=supp,
            spherical=spherical[supp], theta=tuple(thetas[i])))
    table = tables[level] = SmallRootTable(nodes, node_by_rid)
    return table


def spherical_analysis(table: SmallRootTable) -> tuple[frozenset[int], bool]:
    """Spherical node ids and whether every root in the table is spherical.

    On a level-0 table, the boolean is exactly the hypothesis "all small
    roots have finite support", since spherical roots are always small.
    """
    sph = frozenset(i for i, node in enumerate(table.nodes) if node.spherical)
    return sph, len(sph) == len(table.nodes)

