"""n-small roots, dominance bookkeeping, and type classification.

The table of n-small roots is grown breadth-first from the simple roots.
A depth-increasing reflection step s(beta) (one with B(a_s, beta) < 0)
transports the dominated set and picks up a_s exactly when
B(a_s, beta) <= -1; the root survives while it strictly dominates at most
n positive roots.  The pairwise dominance criterion and this closure rule
come from the small-root literature rather than being re-derived here, so
both are cross-checked by tests against the affine dominance oracle and an
exhaustive recount.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .elements import _mask_bits
from .errors import BudgetExceeded, InternalInvariant, InvalidGroupSpec
from .scalars import Scalar
from .system import CoxeterSystem, affine_candidates, matrices_isomorphic

NEGATIVE = -1  # theta(s) marker: beta = a_s, reflection goes negative
EXIT = -2      # theta(s) marker: s(beta) is not n-small

# Dominance pairs (root, strictly dominated root) of one table.  ~A2 holds
# 3n(n+1) of them at level n, so 270,900 at n = 300, and passes this budget
# at n = 408 after 0.7 s at 44 MB peak RSS; triangle(4,4,4) passes it after
# 5.5 s at 71 MB (Python 3.11).  With no budget, a huge n grows the table of
# an infinite group without end.
DOMINANCE_BUDGET = 500_000


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


# ---------------------------------------------------------------------------
# Depth and dominance

def depth_of_root(sys: CoxeterSystem, rid: int) -> int:
    """dp(beta): minimal word length sending beta negative, by greedy descent."""
    d = 1
    while rid >= sys.rank:
        coords = sys.root_coords(rid)
        for s in range(sys.rank):
            if sys.bilinear_simple(s, coords).sign() > 0:
                _, rid = sys.reflect_id(s, rid)
                d += 1
                break
        else:
            raise InternalInvariant("positive non-simple root with no descent")
    return d


def dominates(sys: CoxeterSystem, rid_a: int, rid_b: int) -> bool:
    """a dominates-or-equals b ordering: a <= b in dominance.

    Criterion: equality, or B(a, b) >= 1 with dp(a) < dp(b).
    """
    if rid_a == rid_b:
        return True
    b = sys.bilinear(sys.root_coords(rid_a), sys.root_coords(rid_b))
    if (b - 1).sign() < 0:
        return False
    return depth_of_root(sys, rid_a) < depth_of_root(sys, rid_b)


# ---------------------------------------------------------------------------
# The small-root table

@dataclass
class SmallRootNode:
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
        self._slices: list[list[list[int]]] | None = None  # see image_slices
        # per letter s, the node mask of the roots whose image under s is
        # not n-small
        self.exits = [sum(1 << nid for nid, node in enumerate(nodes)
                          if node.theta[s] == EXIT)
                      for s in range(len(nodes[0].theta))]

    def __len__(self) -> int:
        return len(self.nodes)

    def root_ids(self) -> frozenset[int]:
        return frozenset(node.rid for node in self.nodes)

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

    def image_slices(self) -> list[list[list[int]]]:
        """Per letter s and byte j of a node mask, the table whose entry b is
        the node mask of the images under s, inside the table, of the nodes
        of byte value b in byte j; built once.

        So s(A) restricted to the table is the OR of one entry per byte of A.
        """
        if self._slices is None:
            rank = len(self.nodes[0].theta)
            self._slices = [
                _byte_slices([1 << node.theta[s] if node.theta[s] >= 0 else 0
                              for node in self.nodes])
                for s in range(rank)]
        return self._slices


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
            if thetas[i][s] is not None:
                continue
            if rid == s:
                thetas[i][s] = NEGATIVE
                continue
            b = sys.bilinear_simple(s, coords)
            sgn = b.sign()
            if sgn == 0:
                thetas[i][s] = i
                continue
            _, image = sys.reflect_id(s, rid)
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

    nodes: list[SmallRootNode] = []
    for i, rid in enumerate(rids):
        dom_nodes = frozenset(node_by_rid[drid] for drid in dominated_rids[i])
        if len(dom_nodes) != len(dominated_rids[i]):
            raise InternalInvariant("dominated root missing from the table")
        supp = sys.root_support(rid)
        spherical = classify_type(sys, supp) is Classification.FINITE
        nodes.append(SmallRootNode(
            rid=rid, dp=dps[i], dominated=dom_nodes, support=supp,
            spherical=spherical, theta=tuple(thetas[i])))
    table = tables[level] = SmallRootTable(nodes, node_by_rid)
    return table


def spherical_analysis(table: SmallRootTable) -> tuple[frozenset[int], bool]:
    """Spherical node ids and whether every root in the table is spherical.

    On a level-0 table, the boolean is exactly the hypothesis "all small
    roots have finite support", since spherical roots are always small.
    """
    sph = frozenset(i for i, node in enumerate(table.nodes) if node.spherical)
    return sph, len(sph) == len(table.nodes)


# ---------------------------------------------------------------------------
# Affine systems: radical, Coxeter number, dominance oracle

@dataclass(frozen=True)
class AffineStructure:
    family: str
    delta: tuple[Scalar, ...]   # positive radical generator, delta[0] scaled to 1
    coxeter_number: int
    finite_rank: int


def affine_structure(sys: CoxeterSystem) -> AffineStructure:
    """Radical generator and Coxeter-number data of an affine system.

    The radical delta is read off the elimination that classified the
    system: the first n-1 pivots are positive and the n-th is zero, so
    delta_r = -m[r][n-1] / m[r][r] for r < n-1 and delta_{n-1} = 1, then
    scaled to delta_0 = 1 (positive by Kac, Thm 4.3).  The Coxeter number of
    the underlying finite Weyl group is recovered by matching the Coxeter
    graph against the catalog of affine diagrams.
    """
    if classify_type(sys, range(sys.rank)) is not Classification.AFFINE:
        raise InvalidGroupSpec("system is not of irreducible affine type")
    match = None
    for name, mat, h, finite_rank in affine_candidates(sys.rank):
        if matrices_isomorphic(sys.matrix, mat):
            match = (name, h, finite_rank)
            break
    if match is None:
        raise InternalInvariant("affine system missing from the type catalog")
    name, h, finite_rank = match

    # The last pivot is zero, so each reduced row r < n-1 reads
    # pivot_r * x_r + m[r][n-1] * x_{n-1} = 0.
    _, m = _leading_pivots(sys.gram)
    last = sys.rank - 1
    delta = [-m[r][last] / m[r][r] for r in range(last)] + [sys.ctx.one]
    scale = delta[0].inverse()
    delta = tuple(d * scale for d in delta)
    for d in delta:
        if d.sign() <= 0:
            raise InternalInvariant("radical generator is not positive")
    return AffineStructure(family=name, delta=delta,
                           coxeter_number=h, finite_rank=finite_rank)


def affine_dominance_oracle(sys: CoxeterSystem, beta, beta_prime,
                            structure: AffineStructure | None = None) -> bool:
    """beta dominated-by beta_prime in affine type: beta' - beta in R>=0 delta."""
    if structure is None:
        structure = affine_structure(sys)
    bcoords = sys.root_coords(beta) if isinstance(beta, int) else tuple(beta)
    pcoords = (sys.root_coords(beta_prime) if isinstance(beta_prime, int)
               else tuple(beta_prime))
    diff = [p - b for b, p in zip(bcoords, pcoords)]
    if all(d.is_zero() for d in diff):
        return True
    factor = diff[0] / structure.delta[0]
    if factor.sign() < 0:
        return False
    return all((d - factor * sd).is_zero()
               for d, sd in zip(diff, structure.delta))
