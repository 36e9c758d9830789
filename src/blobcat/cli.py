"""
Command-line front end.

    blobcat triangle --kind blobbed --rows 9 --cols 9 --format csv
    blobcat count --n 9 --s 4 --which d
    blobcat enumerate --n 2 --s 1 --positive --format json
    blobcat grid --blocks "7:8,4:8,3:7,1:4,0:1,0:0" --render ascii
    blobcat reduce --n 2 --level sb --word 1,0,2,1
    blobcat dim --n 2
    blobcat verify --suite tables

Data goes to stdout, diagnostics to stderr.  Exit status: 0 on success, 1
when a verification suite reports a mismatch, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Sequence

from . import enumeration, grids, normal_forms, triangles, verify
from .algebra import AlgebraLevel, in_index_set, reduce_word
from .words import HeapState, format_word, heap_state, parse_word


def _triangle(args: argparse.Namespace) -> int:
    rows = triangles.triangle_rows(args.kind, args.rows, args.cols)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["i\\j"] + [str(j) for j in range(args.cols)])
        for i, row in enumerate(rows):
            writer.writerow([str(i)] + [str(v) for v in row])
        sys.stdout.write(buffer.getvalue())
    else:
        payload = {
            "kind": args.kind,
            "rows": args.rows,
            "cols": args.cols,
            "entries": [[str(v) for v in row] for row in rows],
        }
        print(json.dumps(payload, sort_keys=True))
    return 0


def _count(args: argparse.Namespace) -> int:
    kind = enumeration.CountKind(args.which)
    print(enumeration.count(kind, args.n, args.s))
    return 0


def _enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be non-negative, got {args.limit}")
    elements = []
    for nf in normal_forms.fc_forms(args.n, args.s):
        if len(elements) == args.limit:
            break
        word = normal_forms.word_of_normal_form(args.n, nf)
        positive = heap_state(args.n, word) == HeapState.POSITIVE
        blocks = normal_forms.blocks_of_word(args.n, word) if positive else None
        blobbed = grids.is_blobbed(args.n, blocks) if positive else None
        if args.positive and not positive:
            continue
        if args.blobbed and not blobbed:
            continue
        elements.append(
            {
                "word": format_word(word),
                "positive": positive,
                "blobbed": blobbed,
                "blocks": normal_forms.format_blocks(blocks) if positive else None,
            }
        )
    selector = "blobbed" if args.blobbed else "positive" if args.positive else "all"
    payload = {
        "n": args.n,
        "s": args.s,
        "filter": selector,
        "count": len(elements),
        "elements": elements,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _grid(args: argparse.Namespace) -> int:
    if args.blocks is not None:
        blocks = normal_forms.parse_blocks(args.blocks)
        n = args.n if args.n is not None else max((r for _, r in blocks), default=1)
        n = max(n, 1)
    else:
        word = parse_word(args.word)
        n = args.n if args.n is not None else max(word, default=1)
        n = max(n, 1)
        if not in_index_set(AlgebraLevel.TWO_BOUNDARY, n, word):
            raise ValueError(f"word {args.word!r} is not reduced and positive; it has no grid")
        blocks = normal_forms.blocks_of_word(n, word)
    grid = grids.grid_of(n, blocks)
    print(grids.render(grid, args.render))
    return 0


def _reduce(args: argparse.Namespace) -> int:
    level = AlgebraLevel.parse(args.level)
    try:
        scalar, word = reduce_word(level, args.n, parse_word(args.word))
    except RecursionError:
        # the kernel recurses once per rewrite until ROADMAP item 2's loop lands
        raise ValueError(
            "word needs more nested rewrites than reduce supports yet"
        ) from None
    print(f"{scalar} * [{format_word(word)}]")
    return 0


def _dim(args: argparse.Namespace) -> int:
    coeffs = enumeration.blob_polynomial(args.n)
    print(sum(coeffs))
    print("[" + ", ".join(str(c) for c in coeffs) + "]")
    return 0


def _verify(args: argparse.Namespace) -> int:
    if args.max_n is not None and args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    names = [args.suite] if args.suite else list(verify.SUITES)
    checks = verify.run_suites(names, args.max_n)
    failures = 0
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        failures += 0 if check.ok else 1
        print(f"{status} {check.name}: {check.detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobcat",
        description="exact combinatorics of the affine-C Temperley-Lieb quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="dump a triangle slab")
    p.add_argument("--kind", choices=triangles.KINDS, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_triangle)

    p = sub.add_parser("count", help="closed-form counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--which", choices=("a", "b", "d"), required=True)
    p.set_defaults(func=_count)

    p = sub.add_parser("enumerate", help="list elements of one affine length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--positive", action="store_true")
    group.add_argument("--blobbed", action="store_true")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_enumerate)

    p = sub.add_parser("grid", help="draw the grid of a positive element")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--blocks", type=str, default=None, help='"l:r,l:r,..."')
    group.add_argument("--word", type=str, default=None, help='"i,j,..."')
    p.add_argument("--n", type=int, default=None, help="rank (inferred if omitted)")
    p.add_argument("--render", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(func=_grid)

    p = sub.add_parser("reduce", help="rewrite a generator word to basis form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", choices=("tl", "2btl", "sb"), required=True)
    p.add_argument("--word", type=str, required=True)
    p.set_defaults(func=_reduce)

    p = sub.add_parser("dim", help="blob-quotient dimension and coefficients")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_dim)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=tuple(verify.SUITES), default=None)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.set_defaults(func=_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; parse_args leaves it
    # unchanged, so one parser serves every later call in the process
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
