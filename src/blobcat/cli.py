"""
Command-line front end.

    blobcat triangle --kind blobbed --rows 9 --cols 9 --format csv
    blobcat count --n 9 --s 4 --which d
    blobcat enumerate --n 2 --s 1 --positive --format json
    blobcat grid --blocks "7:8,4:8,3:7,1:4,0:1,0:0" --render ascii
    blobcat reduce --n 2 --level sb --word 1,0,2,1
    blobcat dim --n 2
    blobcat verify --suite tables

A call is parsed once, by its command's parser.  The full parser runs only
when argv names no command or that parse leaves arguments over, so every
help text and error is the full parser's.  Data goes to stdout, diagnostics
to stderr.  Exit status: 0 on success, 1 when a verification suite reports
a mismatch, 2 on malformed input, 141 (128 + SIGPIPE) when the reader
closes stdout early, as `head` does.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable

from . import enumeration, grids, normal_forms, triangles, verify
from .algebra import AlgebraLevel, in_index_set, reduce_word
from .words import HeapState, check_rank, format_word, heap_state, parse_word


def _print_exact(render: Callable[[], str]) -> None:
    """
    Print render(), which turns exact integers into text.  Python 3.10.7+
    refuses to turn an int of more than 4,300 digits into text (ValueError);
    only then is render() run once more with that limit lifted, and the limit
    is put back before this returns.
    """
    try:
        text = render()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = render()
        finally:
            sys.set_int_max_str_digits(limit)
    print(text)


def _triangle(args: argparse.Namespace) -> int:
    rows = triangles.triangle_rows(args.kind, args.rows, args.cols)

    def render() -> str:
        if args.format == "json":
            payload = {
                "kind": args.kind,
                "rows": args.rows,
                "cols": args.cols,
                "entries": [[str(v) for v in row] for row in rows],
            }
            return json.dumps(payload, sort_keys=True)
        # every cell is an int or i\j, so no cell needs quoting
        lines = [["i\\j", *range(args.cols)], *([i, *row] for i, row in enumerate(rows))]
        return "\n".join(",".join(map(str, line)) for line in lines)

    _print_exact(render)
    return 0


def _count(args: argparse.Namespace) -> int:
    value = enumeration.COUNTS[enumeration.CountKind(args.which)](args.n, args.s)
    _print_exact(lambda: str(value))
    return 0


def _enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be non-negative, got {args.limit}")
    elements = []
    for nf in normal_forms.iter_fc_forms(args.n, args.s):
        if len(elements) == args.limit:
            break
        word = normal_forms._word_of_normal_form(args.n, nf)
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


def _grid_rank(given: int | None, letters: Iterable[int]) -> int:
    """An explicit --n is checked as given; an inferred rank is at least 1."""
    return max([1, *letters]) if given is None else check_rank(given)


def _grid(args: argparse.Namespace) -> int:
    if args.blocks is not None:
        blocks = normal_forms.parse_blocks(args.blocks)
        n = _grid_rank(args.n, (r for _, r in blocks))
    else:
        word = parse_word(args.word)
        n = _grid_rank(args.n, word)
        if not in_index_set(AlgebraLevel.TWO_BOUNDARY, n, word):
            raise ValueError(f"word {args.word!r} is not reduced and positive; it has no grid")
        blocks = normal_forms.blocks_of_word(n, word)
    for line in grids.render_lines(n, blocks, args.render):
        print(line)
    return 0


# the --level names, in the order of AlgebraLevel: TL, TWO_BOUNDARY, SYMPLECTIC_BLOB
_LEVELS = dict(zip(("tl", "2btl", "sb"), AlgebraLevel))


def _reduce(args: argparse.Namespace) -> int:
    scalar, word = reduce_word(_LEVELS[args.level], args.n, parse_word(args.word))
    print(f"{scalar} * [{format_word(word)}]")
    return 0


def _dim(args: argparse.Namespace) -> int:
    coeffs = enumeration.blob_polynomial(args.n)
    _print_exact(lambda: f"{sum(coeffs)}\n[{', '.join(map(str, coeffs))}]")
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


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and its command parsers by name."""
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
    p.add_argument("--which", choices=tuple(k.value for k in enumeration.CountKind), required=True)
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
    p.add_argument("--level", choices=tuple(_LEVELS), required=True)
    p.add_argument("--word", type=str, required=True)
    p.set_defaults(func=_reduce)

    p = sub.add_parser("dim", help="blob-quotient dimension and coefficients")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_dim)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=tuple(verify.SUITES), default=None)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.set_defaults(func=_verify)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


# built on the first main() call, not at import; parsing leaves it
# unchanged, so one parser serves every later call in the process
_parser = functools.cache(_build)


def main(argv: Iterable[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    args, rest = None, argv
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
    if args is None or rest:
        args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to /dev/null so the
        # flush at interpreter exit does not fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
