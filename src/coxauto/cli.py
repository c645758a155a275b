"""Command-line front end.

Subcommands: roots, shadow, low, automaton, count, check, table, render.
Every join is decided exactly, so no answer is indeterminate.  Exit codes:
0 success, 1 usage or input error, an exceeded budget, or n-low elements
that are not a Garside shadow, 3 internal invariant violation (including an
--oracle mismatch, which Theorem-level guarantees forbid).
"""

from __future__ import annotations

import argparse
import re
import sys as _sys
from pathlib import Path

from . import __version__
from .automata import (build_canonical_automaton, build_shadow_automaton,
                       check_count_length, minimize)
from .conjectures import check_conjecture, stats_csv, stats_row
from .elements import reduced_word_counts
from .errors import CoxAutoError, InternalInvariant
from .garside import (Shadow, garside_closure, low_elements, low_universe,
                      verify_shadow)
from .render import render_rank3_svg
from .smallroots import build_small_roots
from .system import CoxeterSystem, parse_coxeter_system


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1
        self.print_usage(_sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_system(spec: str) -> CoxeterSystem:
    path = Path(spec)
    if path.exists() and path.is_file():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise CoxAutoError(f"cannot read {spec}: {reason}") from None
        system = parse_coxeter_system(text)
        system.name = path.stem
        return system
    system = parse_coxeter_system(spec)
    system.name = spec
    return system


def _non_negative(text: str) -> int:
    """Argument type of --n and --max-len: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return value


def _no_level(level: int, where: str) -> None:
    """Refuse an --n that the computation would not read."""
    if level != 0:
        raise CoxAutoError(f"--n {level} does not apply to {where}, "
                           "which is defined at level 0 only")


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written exits 1."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CoxAutoError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        _sys.stdout.write(text)


def _build_automaton(system: CoxeterSystem, kind: str, level: int):
    if kind == "canonical":
        auto, _ = build_canonical_automaton(system, level)
        return auto
    if kind == "shadow:smallest":
        _no_level(level, "--kind shadow:smallest")
        return build_shadow_automaton(garside_closure(system))
    if kind == "shadow:low":
        return build_shadow_automaton(low_universe(system, level))
    raise CoxAutoError(f"unknown automaton kind {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_roots(args) -> int:
    system = _load_system(args.group)
    table = build_small_roots(system, args.n)
    out = [f"# {len(table)} {args.n}-small roots of {system.name}"]
    for nid, node in enumerate(table.nodes):
        coords = system.root_coords(node.rid)
        exact = ", ".join(repr(c) for c in coords)
        approx = ", ".join(f"{float(c):.6f}" for c in coords)
        supp = system.word_to_string(sorted(node.support))
        out.append(
            f"{nid}: ({exact}) ~ ({approx}) dp={node.dp} dp_inf={node.dp_inf} "
            f"support={supp} spherical={node.spherical}")
    _emit("\n".join(out) + "\n", args.out)
    return 0


def _cmd_shadow(args) -> int:
    system = _load_system(args.group)
    if args.verify is not None:
        shadow = Shadow(system, [system.word_from_string(w)
                                 for w in args.verify.split(",") if w.strip()])
        verdict = verify_shadow(shadow)
        lines = [f"verdict: {verdict.status.value}"]
        if verdict.reason:
            lines.append(f"reason: {verdict.reason}")
        if verdict.witness:
            lines.append("witness: " + " ".join(verdict.witness))
    else:
        shadow = garside_closure(system)
        lines = [f"# smallest Garside shadow of {system.name}: "
                 f"{len(shadow)} elements", *shadow.words()]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_low(args) -> int:
    system = _load_system(args.group)
    low = low_elements(system, args.n)
    lines = [f"# {args.n}-low elements of {system.name}: {len(low)}"]
    lines.extend(low.words())
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_automaton(args) -> int:
    system = _load_system(args.group)
    auto = _build_automaton(system, args.kind, args.n)
    if args.minimize:
        auto = minimize(auto)
    lines = []
    if args.stats or not args.dot:
        lines.append(f"states: {auto.num_states}")
    if args.stats:
        lines.append(f"transitions: {auto.num_transitions()}")
    _emit("".join(line + "\n" for line in lines), args.out)
    if args.dot:
        _write(args.dot, auto.to_dot())
    return 0


def _cmd_count(args) -> int:
    system = _load_system(args.group)
    check_count_length(args.max_len)
    auto = _build_automaton(system, args.kind, args.n)
    counts = auto.counts_by_length(args.max_len)
    oracle = reduced_word_counts(system, args.max_len) if args.oracle else None
    header = "length,count" + (",oracle" if oracle else "")
    lines = [header]
    for k, c in enumerate(counts):
        row = f"{k},{c}"
        if oracle:
            row += f",{oracle[k]}"
        lines.append(row)
    _emit("\n".join(lines) + "\n", args.out)
    if oracle and oracle != counts:
        raise InternalInvariant(
            "automaton counts disagree with the reduced-word oracle")
    return 0


def _cmd_check(args) -> int:
    system = _load_system(args.group)
    which = {"1": "conj1", "2": "conj2"}.get(args.conjecture, args.conjecture)
    if which in ("conj1", "conj2"):
        _no_level(args.n, f"--conjecture {args.conjecture}")
    report = check_conjecture(system, which, level=args.n)
    _emit(report.to_json() + "\n", args.out)
    return 0


def _cmd_table(args) -> int:
    rows = []
    # a comma inside parentheses, as in triangle(2,3,7), is part of a spec
    for spec in re.split(r",(?![^(]*\))", args.groups):
        spec = spec.strip()
        if spec:
            rows.append(stats_row(_load_system(spec), group_name=spec))
    _emit(stats_csv(rows), args.out)
    return 0


def _cmd_render(args) -> int:
    system = _load_system(args.group)
    _write(args.svg, render_rank3_svg(system, args.n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coxauto",
                     description="Automata for reduced words of Coxeter systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level=True):
        """--group and --out; --n where a level is read."""
        p.add_argument("--group", required=True,
                       help="preset name, inline spec, or matrix file path")
        if level:
            p.add_argument("--n", type=_non_negative, default=0,
                           help="small-root level n >= 0")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("roots", help="dump the n-small root table")
    common(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("shadow",
                       help="compute the smallest Garside shadow, or verify a list")
    common(p, level=False)
    p.add_argument("--verify", default=None,
                   help="comma-separated words to verify as a shadow")
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("low", help="dump the n-low elements")
    common(p)
    p.set_defaults(func=_cmd_low)

    p = sub.add_parser("automaton", help="build an automaton")
    common(p)
    p.add_argument("--kind", default="canonical",
                   choices=["canonical", "shadow:smallest", "shadow:low"])
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--dot", default=None, help="write DOT to this path")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_automaton)

    p = sub.add_parser("count", help="count accepted words per length")
    common(p)
    p.add_argument("--kind", default="canonical",
                   choices=["canonical", "shadow:smallest", "shadow:low"])
    p.add_argument("--max-len", type=_non_negative, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="add a brute-force reduced-word column and cross-check")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("check", help="check a conjecture instance")
    common(p)
    p.add_argument("--conjecture", required=True,
                   choices=["1", "2", "conj1", "conj2", "dyho1", "dyho2"])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("table", help="stats rows for a list of groups, CSV")
    p.add_argument("--groups", required=True,
                   help="comma-separated group specs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("render", help="rank-3 SVG of small roots and walls")
    common(p)
    p.add_argument("--svg", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariant as exc:
        print(f"internal invariant violation: {exc}", file=_sys.stderr)
        return 3
    except CoxAutoError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
