"""Command line front end.

Subcommands:

* ``shift``   -- exterior shift of a complex read from a file or stdin
* ``op``      -- constructions and combinatorial shift rules
* ``verify``  -- run a named property suite
* ``explore`` -- randomized scan of the suspension-order conjecture

A complex file holds one facet per line as whitespace-separated integers in
1..64; ``#`` starts a comment line, the literal word ``empty`` is the empty
facet, and an optional ``n=<count>`` line, count in 0..64, fixes the ambient
vertex count (default: the largest label used).  ``shift`` and ``op`` print the
same format back, so commands pipe into each other.

Every command writes its output once, when it has finished: the text, or
with ``--json`` the report, to ``--out`` if given and otherwise to stdout.  A
command that fails writes nothing to stdout, only an ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import asdict

from .complexes import MAX_VERTICES, Face, SimplicialComplex, vertex_tuple
from .engine import ValidationFailure, exterior_shift
from .field import (
    DEFAULT_PRIME,
    BlockGenericSpec,
    ExplicitSpec,
    GenericSpec,
    check_prime,
)
from .homology import betti_direct, betti_from_shifted
from .operators import (
    antistar,
    clique_sum_shift,
    cone,
    disjoint_union,
    disjoint_union_shift,
    intersection,
    join,
    lex_compare,
    link,
    shifted_union_recursive,
    suspension,
    union,
)
from .suites import SUITES, conjecture_scan

SAFE_N = 16
# a facet line with k labels expands to 2^k faces; files whose facet lines
# sum past this many are refused before anything is expanded
MAX_FACET_FACES = 1 << 16

# op kind -> (function, operand count, flag it needs)
_OPS = {
    "antistar": (antistar, 1, "face"),
    "betti": (betti_direct, 1, None),
    "clique-sum": (clique_sum_shift, 2, "dim"),
    "compare": (lex_compare, 2, None),
    "cone": (cone, 1, None),
    "disjoint-union": (disjoint_union, 2, None),
    "dushift": (disjoint_union_shift, 2, None),
    "intersection": (intersection, 2, None),
    "join": (join, 2, None),
    "link": (link, 1, "face"),
    "sqcup": (shifted_union_recursive, 2, None),
    "suspension": (suspension, 1, None),
    "union": (union, 2, None),
}


# ----------------------------------------------------------------------
# complex file format


def _data_lines(lines):
    """The (line number, stripped line) pairs of ``lines``, numbered from 1,
    without blank lines and ``#`` comment lines."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_complex_text(text: str, name: str = "<input>") -> SimplicialComplex:
    facets = []
    ambient = None
    faces = 0
    for lineno, line in _data_lines(text.splitlines()):
        if line.startswith("n="):
            if ambient is not None:
                raise ValueError(
                    f"{name}:{lineno}: repeated n= line (first at line {ambient_line})"
                )
            try:
                ambient = int(line[2:])
            except ValueError:
                raise ValueError(f"{name}:{lineno}: bad ambient count {line!r}")
            if not 0 <= ambient <= MAX_VERTICES:
                raise ValueError(f"{name}:{lineno}: n={ambient} outside 0..{MAX_VERTICES}")
            ambient_line = lineno
            continue
        if line == "empty":
            facets.append(Face(0))
            faces += 1
            continue
        try:
            labels = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"{name}:{lineno}: not a facet line: {line!r}")
        bad = next((v for v in labels if not 1 <= v <= MAX_VERTICES), None)
        if bad is not None:
            raise ValueError(f"{name}:{lineno}: label {bad} outside 1..{MAX_VERTICES}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"{name}:{lineno}: repeated label in facet")
        faces += 1 << len(labels)
        if faces > MAX_FACET_FACES:
            raise ValueError(
                f"{name}:{lineno}: facets expand to more than {MAX_FACET_FACES} faces"
                f" (a facet with k labels has 2^k faces)"
            )
        facets.append(Face.from_vertices(labels))
    if not facets:
        raise ValueError(f"{name}: no facets found")
    top = max((f.bit_length() for f in facets), default=0)
    if ambient is None:
        ambient = top
    elif ambient < top:
        raise ValueError(f"{name}:{ambient_line}: n={ambient} is below the largest label {top}")
    return SimplicialComplex.from_facets(ambient, facets)


def read_complex(path: str) -> SimplicialComplex:
    if path == "-":
        return parse_complex_text(sys.stdin.read(), "<stdin>")
    with open(path, encoding="utf-8") as fh:
        return parse_complex_text(fh.read(), path)


def format_complex(K: SimplicialComplex, comments: list | None = None) -> str:
    lines = [f"# {c}" for c in comments or []]
    lines.append(f"n={K.n}")
    for f in K.facets():
        lines.append(" ".join(map(str, vertex_tuple(f))) or "empty")
    return "\n".join(lines) + "\n"


def _face_lists(K: SimplicialComplex) -> list:
    return [list(vertex_tuple(f)) for f in K.facets()]


def _parse_face(text: str) -> Face:
    try:
        labels = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"--face must list vertex labels, got {text!r}") from None
    if len(set(labels)) != len(labels):
        raise ValueError(f"--face repeats a label, got {text!r}")
    return Face.from_vertices(labels)


def _parse_matrix(text: str, seed: int):
    if text == "generic":
        return GenericSpec(seed)
    if text.startswith("block:"):
        try:
            k, l = map(int, text[len("block:"):].split(","))
        except ValueError:
            raise ValueError("block spec must be block:<k>,<l> with integer sizes") from None
        return BlockGenericSpec(k, l, seed)
    if text.startswith("explicit:"):
        path = text[len("explicit:"):]
        rows = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in _data_lines(fh):
                try:
                    rows.append([int(tok) for tok in line.split()])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not a matrix row: {line!r}")
        return ExplicitSpec.from_rows(rows)
    raise ValueError(f"unknown matrix spec {text!r}")


def _check_draws(args: argparse.Namespace, least: int, most: int) -> None:
    # ``least`` is the smallest complex size the command draws, and ``most``
    # the largest --max-n whose complexes all fit in MAX_VERTICES labels; a
    # negative --seed is refused here, as realize refuses it for shift, and
    # not only by the suites that happen to shift at it
    if args.seed < 0:
        raise ValueError(f"seed must be a nonnegative int, got {args.seed}")
    if args.trials < 1:
        raise ValueError(f"--trials {args.trials} is below 1: no draw, nothing checked")
    if args.max_n < least:
        raise ValueError(f"--max-n {args.max_n} is below {least}")
    if args.max_n > most:
        raise ValueError(
            f"--max-n {args.max_n} exceeds {most}, the most {args.cmd} can"
            f" draw within {MAX_VERTICES} labels"
        )
    if args.max_n > SAFE_N and not args.force:
        raise ValueError(f"--max-n {args.max_n} exceeds {SAFE_N}; pass --force")


# ----------------------------------------------------------------------
# subcommands


def _cmd_shift(args: argparse.Namespace) -> tuple:
    p = check_prime(args.prime)
    K = read_complex(args.input)
    spec = _parse_matrix(args.matrix, args.seed)
    res = exterior_shift(K, spec, p=p, max_retries=args.retries)
    D = res.shifted
    betti = betti_from_shifted(D) if res.validated.is_shifted else None
    fields = dict(
        seed=res.seed_used,
        prime=p,
        n=D.n,
        facets=_face_lists(D),
        f_vector=list(D.f_vector),
        betti=None if betti is None else list(betti),
        validated=asdict(res.validated),
        retries=res.retries,
    )

    def text() -> str:
        comments = [
            f"shift of {args.input} (matrix={args.matrix}, seed={res.seed_used})",
            f"f_vector={D.f_vector}",
            f"shifted={res.validated.is_shifted} retries={res.retries}",
        ]
        if betti is not None:
            comments.append(f"betti={betti}")
        return format_complex(D, comments)

    return 0, fields, text


def _cmd_op(args: argparse.Namespace) -> tuple:
    kind = args.kind
    func, arity, flag = _OPS[kind]
    if len(args.inputs) != arity:
        raise ValueError(f"{kind} takes {'one complex' if arity == 1 else 'two complexes'}")
    if args.inputs.count("-") > 1:
        raise ValueError("stdin can be read once: give - for at most one operand")
    for name in ("face", "dim"):
        given = getattr(args, name) is not None
        if given and name != flag:
            raise ValueError(f"{kind} takes no --{name}")
        if name == flag and not given:
            raise ValueError(f"{kind} needs --{name}")
    # only betti computes anything mod p
    if args.prime is not None and kind != "betti":
        raise ValueError(f"{kind} takes no --prime")
    p = check_prime(DEFAULT_PRIME if args.prime is None else args.prime)
    extra = ()
    if flag == "face":
        extra = (_parse_face(args.face),)
    elif flag == "dim":
        extra = (args.dim,)
    complexes = [read_complex(path) for path in args.inputs]

    if kind == "betti":
        K = complexes[0]
        betti = func(K, p)
        fields = dict(prime=p, n=K.n, f_vector=list(K.f_vector), betti=list(betti))
        text = lambda: f"f_vector: {K.f_vector}\nbetti: {betti}\n"
    elif kind == "compare":
        rel = func(*complexes)
        fields = dict(relation=rel)
        text = lambda: f"relation: {rel}\n"
    else:
        R = func(*complexes, *extra)
        fields = dict(n=R.n, facets=_face_lists(R), f_vector=list(R.f_vector))
        text = lambda: format_complex(R, [f"{kind} result", f"f_vector={R.f_vector}"])
    return 0, dict(kind=kind, **fields), text


def _cmd_verify(args: argparse.Namespace) -> tuple:
    p = check_prime(args.prime)
    _check_draws(args, 2, MAX_VERTICES)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (try one of {', '.join(sorted(SUITES))})")
    reports = []
    for name in names:
        checks = SUITES[name](trials=args.trials, max_n=args.max_n, seed=args.seed, p=p)
        passed = sum(1 for c in checks if c.ok)
        reports.append(
            {
                "suite": name,
                "ok": passed == len(checks),
                "passed": passed,
                "total": len(checks),
                "checks": [asdict(c) for c in checks],
            }
        )
    all_ok = all(r["ok"] for r in reports)

    def text() -> str:
        lines = []
        for r in reports:
            for c in r["checks"]:
                if not c["ok"] or args.verbose:
                    mark = "ok  " if c["ok"] else "FAIL"
                    lines.append(f"{mark} {r['suite']}/{c['label']}  {c['detail']}")
            lines.append(f"suite {r['suite']}: {r['passed']}/{r['total']} ok")
        return "".join(f"{line}\n" for line in lines)

    fields = dict(
        seed=args.seed, prime=p, trials=args.trials, max_n=args.max_n, ok=all_ok, suites=reports
    )
    return 0 if all_ok else 2, fields, text


def _cmd_explore(args: argparse.Namespace) -> tuple:
    p = check_prime(args.prime)
    # each draw is suspended, which adds 2 labels
    _check_draws(args, 1, MAX_VERTICES - 2)
    scan = conjecture_scan(trials=args.trials, max_n=args.max_n, seed=args.seed, p=p)

    def text() -> str:
        lines = [f"trials: {scan['trials']} (n <= {scan['max_n']})"]
        lines += [f"  {rel}: {count}" for rel, count in scan["tallies"].items()]
        lines.append(f"violations: {scan['violations']}")
        lines += [f"  witness facets: {w}" for w in scan["witnesses"]]
        failures = scan.get("failures", [])
        if failures:
            lines.append(f"failures: {len(failures)}")
            lines += [f"  {f}" for f in failures]
        return "".join(f"{line}\n" for line in lines)

    code = 2 if scan["violations"] or "failures" in scan else 0
    return code, dict(seed=args.seed, prime=p, **scan), text


# ----------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--prime", type=int, default=DEFAULT_PRIME, help="field modulus (odd prime < 2^62)"
    )
    sub.add_argument("--json", action="store_true", help="machine-readable output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="shiftkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sh = sub.add_parser("shift", help="exterior shift of a complex")
    sh.add_argument("input", help="complex file, or - for stdin")
    sh.add_argument(
        "--matrix",
        default="generic",
        help="generic | block:<k>,<l> | explicit:<file>",
    )
    sh.add_argument("--retries", type=int, default=3, help="reseeds before giving up")
    sh.add_argument("--out", help="write here instead of stdout")
    sh.set_defaults(func=_cmd_shift)
    _add_common(sh)

    op = sub.add_parser("op", help="constructions and shift rules")
    op.add_argument(
        "kind",
        choices=sorted(_OPS),
    )
    op.add_argument("inputs", nargs="+", help="one or two complex files")
    op.add_argument("--face", help="center face for link/antistar, e.g. '1 3'")
    op.add_argument("--dim", type=int, help="shared simplex dimension for clique-sum")
    op.add_argument("--out", help="write here instead of stdout")
    op.set_defaults(func=_cmd_op)
    _add_common(op)
    op.set_defaults(prime=None)  # so _cmd_op can tell a given --prime from the default

    ve = sub.add_parser("verify", help="run a named property suite")
    ve.add_argument("suite", help="suite name or 'all': " + ", ".join(sorted(SUITES)))
    ve.add_argument("--trials", type=int, default=10)
    ve.add_argument("--max-n", type=int, default=8, dest="max_n")
    ve.add_argument("--force", action="store_true", help="allow --max-n beyond 16")
    ve.add_argument("--verbose", action="store_true", help="print passing checks too")
    ve.set_defaults(func=_cmd_verify)
    _add_common(ve)

    ex = sub.add_parser("explore", help="scan the suspension-order conjecture")
    ex.add_argument("--trials", type=int, default=50)
    ex.add_argument("--max-n", type=int, default=8, dest="max_n")
    ex.add_argument("--force", action="store_true", help="allow --max-n beyond 16")
    ex.set_defaults(func=_cmd_explore)
    _add_common(ex)
    # no construction or rule draws anything, so op takes no --seed
    for seeded in (sh, ve, ex):
        seeded.add_argument("--seed", type=int, default=0, help="base RNG seed")

    return parser


def main(argv: list | None = None) -> int:
    """Run one command and return its exit code.  Each ``_cmd_*`` returns its
    exit code, its report fields and a function that builds its text; only
    the output asked for is built, and it is written here, once."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code, fields, text = args.func(args)
        if args.json:
            output = json.dumps({"schema": 1, "command": args.cmd, **fields}, indent=2) + "\n"
        else:
            output = text()
        out = getattr(args, "out", None)  # verify and explore have no --out
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(output)
    except (ValidationFailure, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, ValidationFailure) else 1
    return code


if __name__ == "__main__":
    sys.exit(main())
