"""Coxeter matrices, presets, and systems with their geometric representation.

A :class:`CoxeterSystem` carries the Gram matrix of the classical Tits form
(B(a_s, a_t) = -cos(pi/m_st), and -1 for an infinite label) over the exact
scalar field, plus an interning table for the positive roots touched by a
computation.  Roots are handed around as small integer ids; reflections of
interned roots are cached, which keeps all downstream set arithmetic on
plain ints.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidGroupSpec, InvalidLabel
from .scalars import FieldContext, Scalar, make_field_context

INFINITY = math.inf

Label = float  # an int >= 1 or math.inf


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of edge labels; m(s,s) = 1, off-diagonal >= 2 or oo."""

    rows: tuple[tuple[Label, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise InvalidGroupSpec("empty Coxeter matrix")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise InvalidGroupSpec("Coxeter matrix is not square")
            if row[i] != 1:
                raise InvalidGroupSpec(f"diagonal entry m({i + 1},{i + 1}) must be 1")
            for j, v in enumerate(row):
                if i == j:
                    continue
                if v != self.rows[j][i]:
                    raise InvalidGroupSpec(
                        f"asymmetric entries m({i + 1},{j + 1}) != m({j + 1},{i + 1})")
                if not math.isinf(v) and (not float(v).is_integer() or v < 2):
                    raise InvalidLabel(
                        f"label m({i + 1},{j + 1}) must be an integer >= 2 or inf")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def m(self, i: int, j: int) -> Label:
        return self.rows[i][j]

    def finite_labels(self) -> set[int]:
        out = set()
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                v = self.rows[i][j]
                if not math.isinf(v):
                    out.add(int(v))
        return out

    def components(self, subset: Sequence[int] | None = None) -> list[tuple[int, ...]]:
        """Connected components of the Coxeter graph restricted to subset."""
        nodes = list(range(self.rank)) if subset is None else list(subset)
        remaining = set(nodes)
        comps = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                i = frontier.pop()
                for j in remaining - comp:
                    if self.rows[i][j] != 2:
                        comp.add(j)
                        frontier.append(j)
            comps.append(tuple(sorted(comp)))
            remaining -= comp
        return comps

    @staticmethod
    def from_entries(rank: int, entries: dict[tuple[int, int], Label]) -> "CoxeterMatrix":
        """Build from 0-indexed sparse off-diagonal entries; default label 2."""
        rows = [[2.0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = 1
        for (i, j), v in entries.items():
            rows[i][j] = v
            rows[j][i] = v
        normalized = tuple(
            tuple(INFINITY if math.isinf(v) else int(v) for v in row) for row in rows)
        return CoxeterMatrix(normalized)


# ---------------------------------------------------------------------------
# Presets

def _path(labels: Sequence[Label]) -> CoxeterMatrix:
    n = len(labels) + 1
    return CoxeterMatrix.from_entries(
        n, {(i, i + 1): labels[i] for i in range(n - 1)})


def _preset_finite(family: str, n: int) -> CoxeterMatrix:
    if family == "A" and n >= 1:
        return _path([3] * (n - 1)) if n > 1 else CoxeterMatrix.from_entries(1, {})
    if family in ("B", "C") and n >= 2:
        return _path([3] * (n - 2) + [4])
    if family == "D" and n >= 4:
        entries = {(i, i + 1): 3 for i in range(n - 2)}
        entries[(n - 3, n - 1)] = 3
        return CoxeterMatrix.from_entries(n, entries)
    if family == "E" and n in (6, 7, 8):
        entries = {(i, i + 1): 3 for i in range(n - 2)}
        entries[(2, n - 1)] = 3
        return CoxeterMatrix.from_entries(n, entries)
    if family == "F" and n == 4:
        return _path([3, 4, 3])
    if family == "G" and n == 2:
        return _path([6])
    if family == "H" and n in (3, 4):
        return _path([5] + [3] * (n - 2))
    raise InvalidGroupSpec(f"unknown finite preset {family}{n}")


def _preset_affine(family: str, n: int) -> CoxeterMatrix:
    """Affine diagram of X~n; rank is n + 1."""
    if family == "A" and n == 1:
        return CoxeterMatrix.from_entries(2, {(0, 1): INFINITY})
    if family == "A" and n >= 2:
        entries = {(i, i + 1): 3 for i in range(n)}
        entries[(0, n)] = 3
        return CoxeterMatrix.from_entries(n + 1, entries)
    if family in ("B",) and n >= 3:
        entries = {(0, 2): 3, (1, 2): 3}
        entries.update({(i, i + 1): 3 for i in range(2, n - 1)})
        entries[(n - 1, n)] = 4
        return CoxeterMatrix.from_entries(n + 1, entries)
    if family == "C" and n >= 2:
        return _path([4] + [3] * (n - 2) + [4])
    if family == "D" and n >= 4:
        entries = {(0, 2): 3, (1, 2): 3, (n - 1, n - 2): 3, (n, n - 2): 3}
        entries.update({(i, i + 1): 3 for i in range(2, n - 2)})
        return CoxeterMatrix.from_entries(n + 1, entries)
    if family == "E" and n == 6:
        return CoxeterMatrix.from_entries(
            7, {(0, 1): 3, (1, 6): 3, (2, 3): 3, (3, 6): 3, (4, 5): 3, (5, 6): 3})
    if family == "E" and n == 7:
        entries = {(i, i + 1): 3 for i in range(6)}
        entries[(3, 7)] = 3
        return CoxeterMatrix.from_entries(8, entries)
    if family == "E" and n == 8:
        entries = {(i, i + 1): 3 for i in range(7)}
        entries[(5, 8)] = 3
        return CoxeterMatrix.from_entries(9, entries)
    if family == "F" and n == 4:
        return _path([3, 3, 4, 3])
    if family == "G" and n == 2:
        return _path([3, 6])
    raise InvalidGroupSpec(f"unknown affine preset ~{family}{n}")


#: Coxeter numbers of the finite Weyl families, used for affine bookkeeping.
def _coxeter_number(family: str, n: int) -> int:
    if family == "A":
        return n + 1
    if family in ("B", "C"):
        return 2 * n
    if family == "D":
        return 2 * n - 2
    if family == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    if family == "F":
        return 12
    if family == "G":
        return 6
    raise InvalidGroupSpec(f"no Coxeter number for family {family}")


def affine_candidates(rank: int) -> list[tuple[str, CoxeterMatrix, int, int]]:
    """All irreducible affine presets of the given rank.

    Returns tuples (name, matrix, coxeter_number, finite_rank).
    """
    n = rank - 1
    out = []
    specs: list[tuple[str, int]] = [("A", n)]
    if n >= 3:
        specs.append(("B", n))
    if n >= 2:
        specs.append(("C", n))
    if n >= 4:
        specs.append(("D", n))
    if n in (6, 7, 8):
        specs.append(("E", n))
    if n == 4:
        specs.append(("F", n))
    if n == 2:
        specs.append(("G", n))
    for family, m in specs:
        if m < 1:
            continue
        try:
            mat = _preset_affine(family, m)
        except InvalidGroupSpec:
            continue
        out.append((f"~{family}{m}", mat, _coxeter_number(family, m), m))
    return out


def matrices_isomorphic(a: CoxeterMatrix, b: CoxeterMatrix) -> bool:
    """Label-preserving graph isomorphism by backtracking (small ranks)."""
    if a.rank != b.rank:
        return False
    n = a.rank

    def label_profile(mat: CoxeterMatrix, i: int):
        return sorted(v for k, v in enumerate(mat.rows[i]) if k != i)

    prof_a = [label_profile(a, i) for i in range(n)]
    prof_b = [label_profile(b, i) for i in range(n)]
    if sorted(map(tuple, prof_a)) != sorted(map(tuple, prof_b)):
        return False

    assignment: list[int] = []
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or prof_a[i] != prof_b[j]:
                continue
            if all(a.rows[i][k] == b.rows[j][assignment[k]] for k in range(i)):
                used[j] = True
                assignment.append(j)
                if extend(i + 1):
                    return True
                assignment.pop()
                used[j] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Group spec parsing

_PRESET_RE = re.compile(r"^([ABCDEFGH])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+|inf)\)$")
_TRIANGLE_RE = re.compile(r"^triangle\(\s*(\d+|inf)\s*,\s*(\d+|inf)\s*,\s*(\d+|inf)\s*\)$")


def _label_token(tok: str) -> Label:
    if tok == "inf":
        return INFINITY
    try:
        return int(tok)
    except ValueError:
        raise InvalidGroupSpec(
            f"edge label must be an integer or inf, got {tok!r}") from None


def preset_matrix(name: str) -> CoxeterMatrix:
    """Matrix for a named preset.

    Finite types A/B/C/D/E/F/G/H and I2(m); affine types with a tilde or an
    ``affine:`` prefix; rank-3 ``triangle(p,q,r)`` with edge labels
    (m12, m13, m23) and ``inf`` allowed.
    """
    name = name.strip()
    if name.startswith("affine:"):
        name = "~" + name[len("affine:"):]
    mt = _TRIANGLE_RE.match(name)
    if mt:
        p, q, r = (_label_token(t) for t in mt.groups())
        return CoxeterMatrix.from_entries(3, {(0, 1): p, (0, 2): q, (1, 2): r})
    mt = _I2_RE.match(name)
    if mt:
        return CoxeterMatrix.from_entries(2, {(0, 1): _label_token(mt.group(1))})
    if name.startswith("~"):
        mt = _PRESET_RE.match(name[1:])
        if mt:
            return _preset_affine(mt.group(1), int(mt.group(2)))
        raise InvalidGroupSpec(f"unknown affine preset {name!r}")
    mt = _PRESET_RE.match(name)
    if mt:
        return _preset_finite(mt.group(1), int(mt.group(2)))
    raise InvalidGroupSpec(f"unknown preset {name!r}")


def parse_matrix_block(text: str) -> CoxeterMatrix:
    rank = None
    entries: dict[tuple[int, int], Label] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "rank":
            if len(parts) != 2 or not parts[1].isdigit():
                raise InvalidGroupSpec(f"bad rank line {line!r}")
            rank = int(parts[1])
        elif parts[0] == "m":
            if rank is None:
                raise InvalidGroupSpec("matrix entry before rank line")
            if len(parts) != 4:
                raise InvalidGroupSpec(f"bad entry line {line!r}")
            try:
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise InvalidGroupSpec(f"bad entry indices in {line!r}") from None
            if not (0 <= i < rank and 0 <= j < rank) or i == j:
                raise InvalidGroupSpec(f"entry indices out of range in {line!r}")
            v = _label_token(parts[3])
            if (j, i) in entries and entries[(j, i)] != v:
                raise InvalidGroupSpec(
                    f"asymmetric entries for ({i + 1},{j + 1})")
            entries[(i, j)] = v
        else:
            raise InvalidGroupSpec(f"unrecognized line {line!r}")
    if rank is None:
        raise InvalidGroupSpec("matrix block without a rank line")
    return CoxeterMatrix.from_entries(rank, entries)


def parse_coxeter_system(text: str) -> "CoxeterSystem":
    """Parse a group spec: a preset name, ``type <name>``, or a matrix block."""
    stripped = text.strip()
    if not stripped:
        raise InvalidGroupSpec("empty group spec")
    if "\n" not in stripped and not stripped.startswith("rank"):
        if stripped.startswith("type "):
            stripped = stripped[len("type "):].strip()
        return CoxeterSystem(preset_matrix(stripped))
    return CoxeterSystem(parse_matrix_block(stripped))


# ---------------------------------------------------------------------------
# The system itself

class CoxeterSystem:
    """A Coxeter system with its Tits form and an interned positive-root table."""

    def __init__(self, matrix: CoxeterMatrix, name: str | None = None):
        self.matrix = matrix
        self.name = name
        self.rank = matrix.rank
        self.ctx: FieldContext = make_field_context(matrix.finite_labels() or {2})
        one = self.ctx.one
        gram = []
        for i in range(self.rank):
            row = []
            for j in range(self.rank):
                if i == j:
                    row.append(one)
                else:
                    m = matrix.m(i, j)
                    if math.isinf(m):
                        row.append(self.ctx.from_rational(-1))
                    else:
                        row.append(-self.ctx.cos_pi_over(int(m)))
            gram.append(tuple(row))
        self.gram: tuple[tuple[Scalar, ...], ...] = tuple(gram)

        zero = self.ctx.zero
        self._roots: list[tuple[Scalar, ...]] = []
        self._root_ids: dict[tuple[Scalar, ...], int] = {}
        for s in range(self.rank):
            coords = tuple(one if t == s else zero for t in range(self.rank))
            self._root_ids[coords] = s
            self._roots.append(coords)
        self._refl_cache: list[dict[int, int]] = [dict() for _ in range(self.rank)]
        # level n -> the n-low elements as a garside.Shadow, filled by
        # garside.low_universe
        self._low_universes: dict[int, object] = {}
        self._subsystems: dict[tuple[int, ...], "CoxeterSystem"] = {}

    # -- roots ---------------------------------------------------------

    def root_coords(self, rid: int) -> tuple[Scalar, ...]:
        return self._roots[rid]

    def num_interned_roots(self) -> int:
        return len(self._roots)

    def intern_root(self, coords: tuple[Scalar, ...]) -> int:
        rid = self._root_ids.get(coords)
        if rid is None:
            rid = len(self._roots)
            self._roots.append(coords)
            self._root_ids[coords] = rid
        return rid

    def bilinear_simple(self, s: int, coords: Sequence[Scalar]) -> Scalar:
        row = self.gram[s]
        acc = None
        for t, c in enumerate(coords):
            if c.is_zero():
                continue
            term = row[t] * c
            acc = term if acc is None else acc + term
        return acc if acc is not None else self.ctx.zero

    def bilinear(self, v: Sequence[Scalar], w: Sequence[Scalar]) -> Scalar:
        acc = self.ctx.zero
        for s, c in enumerate(v):
            if not c.is_zero():
                acc = acc + c * self.bilinear_simple(s, w)
        return acc

    def reflect_coords(self, s: int, coords: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """s(v) = v - 2 B(a_s, v) a_s (simple roots are unit vectors)."""
        b = self.bilinear_simple(s, coords)
        if b.is_zero():
            return tuple(coords)
        out = list(coords)
        out[s] = out[s] - (b + b)
        return tuple(out)

    def reflect_id(self, s: int, rid: int) -> tuple[int, int]:
        """Reflect a positive interned root; returns (sign, root id)."""
        if rid == s:
            return (-1, s)
        cache = self._refl_cache[s]
        out = cache.get(rid)
        if out is None:
            out = self.intern_root(self.reflect_coords(s, self._roots[rid]))
            cache[rid] = out
        return (1, out)

    def act_word_on_root(self, word: Sequence[int], sign: int, rid: int) -> tuple[int, int]:
        """Apply r_1 ... r_k to a signed root, rightmost letter first."""
        for letter in reversed(word):
            sg, rid = self.reflect_id(letter, rid)
            sign *= sg
        return sign, rid

    def root_support(self, rid: int) -> frozenset[int]:
        return frozenset(
            s for s, c in enumerate(self._roots[rid]) if c.sign() > 0)

    # -- words -----------------------------------------------------------

    def word_to_string(self, word: Sequence[int]) -> str:
        if not word:
            return "e"
        if self.rank <= 9:
            return "".join(str(s + 1) for s in word)
        return ".".join(str(s + 1) for s in word)

    def word_from_string(self, text: str) -> tuple[int, ...]:
        text = text.strip()
        if text in ("e", ""):
            return ()
        letters = []
        for tok in (text.split(".") if "." in text else text):
            try:
                letters.append(int(tok) - 1)
            except ValueError:
                raise InvalidGroupSpec(
                    f"bad letter {tok!r} in word {text!r}") from None
        for s in letters:
            if not 0 <= s < self.rank:
                raise InvalidGroupSpec(f"letter out of range in word {text!r}")
        return tuple(letters)

    # -- parabolic subsystems ---------------------------------------------

    def subsystem(self, subset: Iterable[int]) -> tuple["CoxeterSystem", dict[int, int]]:
        """The standard parabolic (W_I, I) as its own system.

        Returns the subsystem and the letter map {big index -> sub index}.
        """
        key = tuple(sorted(set(subset)))
        if key not in self._subsystems:
            entries = {}
            for a, i in enumerate(key):
                for b in range(a + 1, len(key)):
                    entries[(a, b)] = self.matrix.m(i, key[b])
            sub = CoxeterSystem(CoxeterMatrix.from_entries(len(key), entries))
            self._subsystems[key] = sub
        return self._subsystems[key], {i: a for a, i in enumerate(key)}

    def __repr__(self) -> str:
        label = self.name or f"rank {self.rank}"
        return f"CoxeterSystem({label})"
