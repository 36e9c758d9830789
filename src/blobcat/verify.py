"""
Self-contained verification suites behind the `verify` subcommand: golden
table reproduction, exhaustive-oracle versus closed-formula agreement,
triangle identities, and the rewriting-kernel property checks.

Each check is one function returning one Check record; a suite is a list of
checks, and a run passes iff every record does.  These functions are the
only implementation of the acceptance criteria: tests/test_acceptance.py
calls them under its time budgets, and the tests show a deliberately broken
formula producing mismatches by patching the function in `enumeration`.

A rank-indexed check takes `max_n`, the largest rank to check, and caps it
at its own limit; None checks up to that limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable, Sequence

from . import enumeration, grids, normal_forms, tables, triangles
from .algebra import K, KL, KR, AlgebraLevel, Scalar, in_index_set, reduce_word
from .algebra import sb_basis, structure_constants
from .words import HeapState, Letters, heap_state

CONFLUENCE_SEED = 20240817
CONFLUENCE_RANKS = (2, 3, 4)
CONFLUENCE_WORDS_PER_RANK = 70
CONFLUENCE_MAX_LEN = 12
IDENTITY_MAX_INDEX = 40
DECOMPOSITION_MAX_I = 30
ORACLE_MAX_N = 5
ORACLE_MAX_S = 6


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    cases: int = 0


def _check(name: str, mismatches: list[str], cases: int, detail_ok: str) -> Check:
    if mismatches:
        return Check(name, False, "; ".join(mismatches), cases)
    return Check(name, True, detail_ok, cases)


def _count_table(name: str, fn: Callable[[int, int], int], table, max_n: int | None) -> Check:
    """Row n of the table holds fn(n, s) for s = 0, 1, ...; rows 1..max_n are checked."""
    cells = [(n, s) for n, row in enumerate(table[:max_n], 1) for s in range(len(row))]
    mismatches = []
    for n, s in cells:
        got, want = fn(n, s), table[n - 1][s]
        if got != want:
            mismatches.append(f"(n={n},s={s}) got {got} want {want}")
    return _check(name, mismatches, len(cells), f"{len(cells)} cells")


def check_excluded(max_n: int | None = None) -> Check:
    return _count_table("tables:excluded", enumeration.d_count, tables.EXCLUDED_TABLE, max_n)


def check_blobbed(max_n: int | None = None) -> Check:
    return _count_table("tables:blobbed", enumeration.b_count, tables.BLOBBED_TABLE, max_n)


def check_dimension_sequence(max_n: int | None = None) -> Check:
    terms = tables.DIMENSION_SEQUENCE[:max_n]
    mismatches = []
    for n, want in enumerate(terms, 1):
        got = enumeration.p_dim(n)
        if got != want:
            mismatches.append(f"n={n} got {got} want {want}")
    return _check("tables:dimension-sequence", mismatches, len(terms), f"{len(terms)} terms")


def check_oracle(n: int) -> Check:
    """Block enumeration against a_count and b_count at rank n, s <= min(n+1, 6)."""
    mismatches = []
    lengths = range(0, min(n + 1, ORACLE_MAX_S) + 1)
    for s in lengths:
        got = enumeration.oracle_positive_count(n, s)
        want = enumeration.a_count(n, s)
        if got != want:
            mismatches.append(f"positive (n={n},s={s}) got {got} want {want}")
        got = enumeration.oracle_blobbed_count(n, s)
        want = enumeration.b_count(n, s)
        if got != want:
            mismatches.append(f"blobbed (n={n},s={s}) got {got} want {want}")
    return _check(f"oracle:n={n}", mismatches, len(lengths), f"{len(lengths)} affine lengths")


def check_finite_part(max_n: int | None = None) -> Check:
    """Generated affine-length-0 elements: (n+2)·Catalan(n) − 1 of them, C(2n, n) positive."""
    ranks = range(1, 9)[:max_n]
    mismatches = []
    for n in ranks:
        total = positive = 0
        for nf in normal_forms.iter_fc_forms(n, 0):
            total += 1
            word = normal_forms._word_of_normal_form(n, nf)
            positive += in_index_set(AlgebraLevel.TWO_BOUNDARY, n, word)
        want = (n + 2) * comb(2 * n, n) // (n + 1) - 1
        if total != want:
            mismatches.append(f"total n={n} got {total} want {want}")
        if positive != comb(2 * n, n):
            mismatches.append(f"positive n={n} got {positive} want {comb(2 * n, n)}")
    detail = f"totals and positive counts for n <= {len(ranks)}"
    return _check("oracle:finite-part", mismatches, len(ranks), detail)


def check_d_forms(max_n: int | None = None) -> Check:
    """d_count's wing sums against the closed form in doubled-triangle entries."""
    ranks = range(1, 91)[:max_n]
    pairs = [(n, s) for n in ranks for s in range(2, n + 1)]
    mismatches = []
    for n, s in pairs:
        got, want = enumeration.d_count(n, s), enumeration._d_closed(n, s)
        if got != want:
            mismatches.append(f"(n={n},s={s}) wing sums {got} closed form {want}")
    detail = f"{len(pairs)} (n,s) pairs, n <= {len(ranks)}"
    return _check("oracle:d-forms", mismatches, len(pairs), detail)


def check_dim_polynomial(max_n: int | None = None) -> Check:
    """blob_polynomial's packed squarings of the wing complements against b_count at each s."""
    ranks = range(1, 91)[:max_n]
    mismatches = []
    for n in ranks:
        got = enumeration.blob_polynomial(n)
        want = tuple(enumeration.b_count(n, s) for s in range(n + 1))
        if got != want:
            diffs = (s for s, (g, w) in enumerate(zip(got, want)) if g != w)
            s = next(diffs, min(len(got), len(want)))
            mismatches.append(f"n={n} first differs at s={s}, length {len(got)} of {n + 1}")
    detail = f"{len(ranks)} polynomials, n <= {len(ranks)}"
    return _check("oracle:dim-polynomial", mismatches, len(ranks), detail)


def check_triangle_closed_form(max_i: int = 64) -> Check:
    """
    blobbed_closed against blobbed_entry, and both kinds of entry against
    their definition: C_{i,j} = C_{i-1,j-1} + C_{i-1,j+1} from the seeds.
    Row i is checked up to column 2*max_i - i + 1, so every entry checked
    rests on entries checked in the row above, and by induction on i each
    one equals the triangle as defined.
    """
    cells = [(i, j) for i in range(0, max_i + 1) for j in range(i % 2, i + 1, 2)]
    mismatches = [
        f"({i},{j})"
        for i, j in cells
        if triangles.blobbed_closed(i, j) != triangles.blobbed_entry(i, j)
    ]
    cases = len(cells)
    for kind in triangles.KINDS:
        C = partial(triangles.entry, kind)
        for i in range(-1, max_i + 1):
            for j in range(-1, 2 * max_i - i + 2):
                if kind == triangles.CLASSICAL and (i == -1 or j == -1):
                    want = int(i == j == -1)
                elif kind == triangles.BLOBBED and i <= 0:
                    want = int((i + j) % 2 == 0)  # row -1 is [j odd], row 0 is [j even]
                elif j == -1:
                    want = 0
                else:
                    want = C(i - 1, j - 1) + C(i - 1, j + 1)
                cases += 1
                if C(i, j) != want:
                    mismatches.append(f"{kind} recurrence at ({i},{j})")
    detail = f"i <= {max_i}, both kinds against their recurrence"
    return _check("triangle:closed-form", mismatches, cases, detail)


def check_triangle_identities() -> Check:
    C = triangles.blobbed_entry
    top = IDENTITY_MAX_INDEX
    mismatches = [f"column identity at {j}" for j in range(0, top + 1) if C(j, 0) != C(j - 1, 1)]
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            lhs = C(i, j)
            if lhs != sum(C(i - 1 - k, j + 1 - k) for k in range(j + 1)):
                mismatches.append(f"row-sum identity at ({i},{j})")
            if lhs != sum(C(i - 1 - k, j - 1 + k) for k in range(i + 1)):
                mismatches.append(f"diagonal-sum identity at ({i},{j})")
    cases = top + 1 + 2 * top**2
    return _check("triangle:identities", mismatches, cases, f"indices <= {top}")


def check_triangle_decompositions() -> Check:
    mismatches = []
    cases = 0
    for i in range(1, DECOMPOSITION_MAX_I + 1):
        cases += 1 + i
        total = sum(w * c for _, w, c in triangles.central_binomial_decomposition(i))
        if total != triangles.binomial(2 * i, i):
            mismatches.append(f"central at {i}")
        for j in range(1, i + 1):
            total = sum(w * c for _, w, c in triangles.general_binomial_decomposition(i, j))
            if total != triangles.binomial(2 * i - j, i):
                mismatches.append(f"general at ({i},{j})")
    return _check("triangle:decompositions", mismatches, cases, f"i <= {DECOMPOSITION_MAX_I}")


def _cut_mismatch(
    level: AlgebraLevel, n: int, word: Letters, cuts: Sequence[int] | None = None
) -> str | None:
    """
    None if `word` reduces into the index set, and to the same (scalar,
    word) when word[:cut] or word[cut:] is reduced first, at each of `cuts`
    (every inner cut by default); else what went wrong.  A factor reduced
    first rewrites in another order than the kernel's, and a confluent
    system (Bergman's diamond lemma) gives one answer in every order.  At
    the blob level `reduce_word` itself folds the word from the left, so
    there the prefix-first order is the kernel's own, and the suffix-first
    order is the one that differs: with it the check catches the same
    scalar-swapped rules as when the blob level rewrote the whole word.
    """
    scalar, out = reduce_word(level, n, word)
    if not in_index_set(level, n, out):
        return f"unsound output {level.name} n={n} {word}->{out}"
    for cut in range(1, len(word)) if cuts is None else cuts:
        for side, a, b in (("prefix", 0, cut), ("suffix", cut, len(word))):
            first, factor = reduce_word(level, n, word[a:b])
            rest_scalar, rest = reduce_word(level, n, word[:a] + factor + word[b:])
            if (first * rest_scalar, rest) != (scalar, out):
                return f"{level.name} n={n} {word} cut mismatch at {cut}, {side} first"
    return None


def check_confluence(max_n: int | None = None) -> Check:
    """
    Seeded random words at CONFLUENCE_RANKS reduce into the index set, and
    alike when any prefix or suffix is reduced first (`_cut_mismatch`).
    Words above rank max_n are drawn and skipped, so the words at the ranks
    checked do not depend on max_n.
    """
    rng = random.Random(CONFLUENCE_SEED)
    mismatches = []
    cases = 0
    for level in AlgebraLevel:
        for n in CONFLUENCE_RANKS:
            for _ in range(CONFLUENCE_WORDS_PER_RANK):
                length = rng.randint(0, CONFLUENCE_MAX_LEN)
                word = tuple(rng.randint(0, n) for _ in range(length))
                if max_n is not None and n > max_n:
                    continue
                cases += 1
                if mismatch := _cut_mismatch(level, n, word):
                    mismatches.append(mismatch)
    return _check("algebra:confluence", mismatches, cases, f"{cases} random words")


# (rank, word, reduction) at the two-boundary level: the full descent chain
# through both boundaries at rank 3, and the rank-1 boundary identity, which
# is the defining relation itself
BOUNDARY_IDENTITIES = (
    (3, (2, 3, 2, 1, 0, 1, 2, 3), (KL * KR, (2, 3))),
    (1, (1, 0, 1), (KL, (1,))),
)


def _holds(level: AlgebraLevel, n: int, word: Letters, image: Letters, factor: Scalar) -> bool:
    """Does `word` reduce at the level to `factor` times what `image` reduces to?"""
    (lhs_scalar, lhs), (rhs_scalar, rhs) = reduce_word(level, n, word), reduce_word(level, n, image)
    return lhs == rhs and lhs_scalar == factor * rhs_scalar


def boundary_image_holds(n: int, nf: normal_forms.NormalForm, state: HeapState) -> bool:
    """
    TL -> 2B: the word of a non-positive FC element reduces in the
    two-boundary quotient to the predicted multiple of its image.  `state`,
    the `heap_state` of the word, picks the image and is the domain check,
    so the element's heap is not read again: `bar` of a LEFT_TRIPLE
    element, times kL (kL kR in its one flagged case), or `tilde` of a
    RIGHT_TRIPLE one, times kR, each by its unchecked core; any other state
    raises ValueError.  The image is spelled through the checked
    `word_of_normal_form`.

    >>> nf = normal_forms.normal_form_of_word(2, (1, 0, 1))
    >>> boundary_image_holds(2, nf, HeapState.LEFT_TRIPLE)  # times kL
    True
    """
    if state == HeapState.LEFT_TRIPLE:
        image, needs_kr = normal_forms._bar(n, nf)
        factor = KL * KR if needs_kr else KL
    elif state == HeapState.RIGHT_TRIPLE:
        image, factor = normal_forms._tilde(n, nf), KR
    else:
        raise ValueError(f"a {state.name} element has no boundary image: {nf}")
    word = normal_forms._word_of_normal_form(n, nf)
    image_word = normal_forms.word_of_normal_form(n, image)
    return _holds(AlgebraLevel.TWO_BOUNDARY, n, word, image_word, factor)


def blob_image_holds(n: int, blocks: normal_forms.Blocks) -> bool:
    """
    2B -> SB: the word of a positive, non-blobbed element reduces in the
    blob quotient to k times `grids.oblique_shortening_word` of its rigid
    blocks, one I J alternation fewer, which refuses a blobbed element
    with ValueError.

    >>> blob_image_holds(2, normal_forms.blocks_of_word(2, (1, 2, 0, 1)))  # times k
    True
    """
    blocks = tuple(blocks)  # oblique_shortening_word checks them
    image = grids.oblique_shortening_word(n, blocks)
    return _holds(AlgebraLevel.SYMPLECTIC_BLOB, n, normal_forms.block_word(blocks), image, K)


def _quotient_sweep(n: int, lengths: range) -> tuple[int, int, list[Letters]]:
    """
    Both shortening steps at rank n and the given affine lengths, on each
    element as enumerated: TL -> 2B on every non-positive FC form, spelled
    through the checked `word_of_normal_form` (`boundary_image_holds`), and
    2B -> SB on every non-blobbed positive block list (`blob_image_holds`).
    Returns how many elements each step checked and the words on which an
    identity fails.
    """
    into_tb = into_sb = 0
    failed = []
    for s in lengths:
        for nf in normal_forms.iter_fc_forms(n, s):
            word = normal_forms.word_of_normal_form(n, nf)
            if (state := heap_state(n, word)) != HeapState.POSITIVE:
                into_tb += 1
                if not boundary_image_holds(n, nf, state):
                    failed.append(word)
        for blocks in enumeration.iter_positive_blocks(n, s):
            if not grids.is_blobbed(n, blocks):
                into_sb += 1
                if not blob_image_holds(n, blocks):
                    failed.append(normal_forms.block_word(blocks))
    return into_tb, into_sb, failed


def check_quotient_identities(max_n: int | None = None) -> Check:
    """
    Both shortening steps (`_quotient_sweep`) at ranks 2..min(max_n, 3),
    affine lengths 0..2 (rank 1 is left out: its block words are not all
    positive), and the boundary identities at ranks up to max_n.

    The 2B -> SB half would be circular on a word that the kernel takes
    its own blob step on (`grids._blob_step`, in `algebra._blob_loop` or
    the memo): there it compares `reduce_word`
    with k times `reduce_word` on the very image the kernel stepped to.
    On this range it is not: run alone in a fresh process, and in
    `verify --suite algebra` order, this check makes no loop call and no
    blob step.
    The independent reference is the test
    `test_blob_step_matches_the_class_walk`, against a reducer that only
    walks commutation classes, at ranks 2-3 and affine lengths 0-4, which
    hold this range.
    """
    TB = AlgebraLevel.TWO_BOUNDARY
    ranks = range(1, 4)[:max_n]
    into_tb = into_sb = 0
    mismatches = []
    for n in ranks[1:]:
        tb, sb, failed = _quotient_sweep(n, range(3))
        into_tb, into_sb = into_tb + tb, into_sb + sb
        mismatches += [f"n={n} {word}" for word in failed]
    identities = [(n, word, want) for n, word, want in BOUNDARY_IDENTITIES if n in ranks]
    for n, word, want in identities:
        got = reduce_word(TB, n, word)
        if got != want:
            mismatches.append(f"n={n} {word} -> {got}, want {want}")
    fixed = len(identities)
    detail = (
        f"{into_tb} TL->2B and {into_sb} 2B->SB elements"
        f" plus {fixed} boundary identities"
    )
    cases = into_tb + into_sb + fixed
    return _check("algebra:quotient-identities", mismatches, cases, detail)


def check_blob_closure(max_n: int | None = None) -> Check:
    """
    Blob bases of the published sizes up to rank 3, and products that stay
    inside them: `structure_constants` raises AssertionError on the first
    that leaves.
    """
    mismatches = []
    sizes = []
    for n in range(1, 4)[:max_n]:
        basis = sb_basis(n)
        if len(basis) != tables.DIMENSION_SEQUENCE[n - 1]:
            mismatches.append(f"n={n} basis size {len(basis)}")
        try:
            table = structure_constants(n)
        except AssertionError as exc:
            mismatches.append(f"n={n} {exc}")
            continue
        sizes.append(len(table))
        if len(table) != len(basis) ** 2:
            mismatches.append(f"n={n} table size {len(table)}")
    return _check("algebra:blob-closure", mismatches, sum(sizes), f"table sizes {sizes}")


def verify_tables(max_n: int | None = None) -> list[Check]:
    return [check_excluded(max_n), check_blobbed(max_n), check_dimension_sequence(max_n)]


def verify_oracle(max_n: int | None = None) -> list[Check]:
    oracle = [check_oracle(n) for n in range(1, ORACLE_MAX_N + 1)[:max_n]]
    return oracle + [check_finite_part(max_n), check_d_forms(max_n), check_dim_polynomial(max_n)]


def verify_triangle(max_n: int | None = None) -> list[Check]:
    """The triangle checks are indexed by entry, not by rank, so max_n is ignored."""
    return [
        check_triangle_closed_form(),
        check_triangle_identities(),
        check_triangle_decompositions(),
    ]


def verify_algebra(max_n: int | None = None) -> list[Check]:
    return [check_confluence(max_n), check_quotient_identities(max_n), check_blob_closure(max_n)]


SUITES: dict[str, Callable[..., list[Check]]] = {
    "tables": verify_tables,
    "oracle": verify_oracle,
    "triangle": verify_triangle,
    "algebra": verify_algebra,
}


def run_suites(names: Sequence[str], max_n: int | None = None) -> list[Check]:
    """
    Run the named suites one after another; results come back in name order.
    max_n, if given, is the largest rank of every rank-indexed check.  The
    suites are CPU-bound pure Python, so a thread pool only adds cost.
    """
    checks = []
    for name in names:
        checks += SUITES[name](max_n)
    return checks
