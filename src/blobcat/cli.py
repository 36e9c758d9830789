"""
Command-line front end.

    blobcat triangle --kind blobbed --rows 9 --cols 9 --format csv
    blobcat count --n 9 --s 4 --which d
    blobcat enumerate --n 2 --s 1 --positive --format json
    blobcat grid --blocks "7:8,4:8,3:7,1:4,0:1,0:0" --render ascii
    blobcat reduce --n 2 --level sb --word 1,0,2,1
    blobcat dim --n 2
    blobcat verify --suite tables

Every command's options are one table, `_COMMANDS`.  A call of the
canonical shape, full option names each given once and values that start
with no "-", is read off that table; argparse, built from the same table,
parses every other call, so it alone gives every help text and every
error.  Data goes to stdout, diagnostics to stderr.  Exit status: 0 on
success, 1 when a verification suite reports a mismatch, 2 on malformed
input, 141 (128 + SIGPIPE) when the reader closes stdout early, as `head`
does.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from types import SimpleNamespace

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


def _triangle(args: SimpleNamespace) -> int:
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


def _count(args: SimpleNamespace) -> int:
    value = enumeration.COUNTS[enumeration.CountKind(args.which)](args.n, args.s)
    _print_exact(lambda: str(value))
    return 0


def _enumerate(args: SimpleNamespace) -> int:
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


def _grid(args: SimpleNamespace) -> int:
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


def _reduce(args: SimpleNamespace) -> int:
    scalar, word = reduce_word(_LEVELS[args.level], args.n, parse_word(args.word))
    print(f"{scalar} * [{format_word(word)}]")
    return 0


def _dim(args: SimpleNamespace) -> int:
    coeffs = enumeration.blob_polynomial(args.n)
    _print_exact(lambda: f"{sum(coeffs)}\n[{', '.join(map(str, coeffs))}]")
    return 0


def _verify(args: SimpleNamespace) -> int:
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


# One row per option of a command, in the order of its help text.  A type
# of None makes the option a store_true flag.  Options that share a group
# are mutually exclusive, and the group is required when its members are
# marked required: argparse lets no member of such a group be required.
_Option = namedtuple(
    "_Option",
    "flag dest type choices required default group help",
    defaults=(str, None, False, None, None, None),
)
# options maps each flag to its row, in the order of the rows
_Command = namedtuple("_Command", "func help options")


def _command(func: Callable[[SimpleNamespace], int], help: str, *options: _Option) -> _Command:
    return _Command(func, help, {o.flag: o for o in options})


# every command's options: build_parser builds its argparse parsers from
# this table, and _read reads a canonical call off it
_COMMANDS = {
    "triangle": _command(
        _triangle,
        "dump a triangle slab",
        _Option("--kind", "kind", choices=triangles.KINDS, required=True),
        _Option("--rows", "rows", int, required=True),
        _Option("--cols", "cols", int, required=True),
        _Option("--format", "format", choices=("csv", "json"), default="csv"),
    ),
    "count": _command(
        _count,
        "closed-form counts",
        _Option("--n", "n", int, required=True),
        _Option("--s", "s", int, required=True),
        _Option(
            "--which", "which", choices=tuple(k.value for k in enumeration.CountKind), required=True
        ),
    ),
    "enumerate": _command(
        _enumerate,
        "list elements of one affine length",
        _Option("--n", "n", int, required=True),
        _Option("--s", "s", int, required=True),
        _Option("--positive", "positive", None, default=False, group="filter"),
        _Option("--blobbed", "blobbed", None, default=False, group="filter"),
        _Option("--format", "format", choices=("json",), default="json"),
        _Option("--limit", "limit", int),
    ),
    "grid": _command(
        _grid,
        "draw the grid of a positive element",
        _Option("--blocks", "blocks", required=True, group="source", help='"l:r,l:r,..."'),
        _Option("--word", "word", required=True, group="source", help='"i,j,..."'),
        _Option("--n", "n", int, help="rank (inferred if omitted)"),
        _Option("--render", "render", choices=("ascii", "svg"), default="ascii"),
    ),
    "reduce": _command(
        _reduce,
        "rewrite a generator word to basis form",
        _Option("--n", "n", int, required=True),
        _Option("--level", "level", choices=tuple(_LEVELS), required=True),
        _Option("--word", "word", required=True),
    ),
    "dim": _command(
        _dim,
        "blob-quotient dimension and coefficients",
        _Option("--n", "n", int, required=True),
    ),
    "verify": _command(
        _verify,
        "run the verification suites",
        _Option("--suite", "suite", choices=tuple(verify.SUITES)),
        _Option("--max-n", "max_n", int),
    ),
}


def build_parser():
    """The full argparse.ArgumentParser, built from the table; only it imports argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="blobcat",
        description="exact combinatorics of the affine-C Temperley-Lieb quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        groups = {}
        for o in command.options.values():
            kwargs = {"dest": o.dest, "default": o.default, "help": o.help}
            if o.type is None:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(type=o.type, choices=o.choices)
            if o.group is None:
                p.add_argument(o.flag, required=o.required, **kwargs)
            else:
                if o.group not in groups:
                    groups[o.group] = p.add_mutually_exclusive_group(required=o.required)
                groups[o.group].add_argument(o.flag, **kwargs)
        p.set_defaults(func=command.func)
    return parser


# built on the first call that the table does not read, not at import;
# parsing leaves it unchanged, so one parser serves every later call
_parser = functools.cache(build_parser)


def _read(argv: list[str]) -> SimpleNamespace | None:
    """
    The fields that the full parser gives argv, read off the table when argv
    has the canonical shape: a command, then full option names, none twice
    and at most one of a group, each but a flag followed by a value that
    does not start with "-" and that the option's type and choices accept,
    with every required option and group present.  None for any other argv.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = _COMMANDS[argv[0]]
    fields = {o.dest: o.default for o in command.options.values()}
    seen = set()  # the flags and groups given so far
    tokens = iter(argv[1:])
    for token in tokens:
        o = command.options.get(token)
        if o is None or (o.group or o.flag) in seen:
            return None
        seen.add(o.group or o.flag)
        if o.type is None:
            fields[o.dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        try:
            value = o.type(value)
        except ValueError:
            return None
        if o.choices is not None and value not in o.choices:
            return None
        fields[o.dest] = value
    if any(o.required and (o.group or o.flag) not in seen for o in command.options.values()):
        return None
    return SimpleNamespace(command=argv[0], func=command.func, **fields)


def main(argv: Iterable[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        args = _parser().parse_args(argv, SimpleNamespace())
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
