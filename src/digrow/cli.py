"""Command-line front end.

Verbs: nf (normal form of an expression), basis (table export), growth
(series export), gk (growth-exponent estimate), verify (structural check
battery).  Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from itertools import chain

from . import growth
from .element import (  # axiom_residuals unused here; perfbench/traced.py wraps it
    QQ, _sum_terms, axiom_residuals, key_identity_verdicts, parse_element, parse_field)
from .errors import ParseError, ResourceCapExceeded
from .growth import (
    GrowthSeries,
    fit_window,
    gap_check,
    gk_estimate,
    growth_series,
    identity_class_check,
    special_basis_check,
    theorem_a_check,
)
from .monomial import Alphabet, Disequence, KeyCodec
from .presentation import (
    ASSOCIATIVE,
    DIALGEBRA,
    SCHEME_TAGS,
    Presentation,
    basis_upto,
    canonical_json,
    check_degree_bound,
    check_reducible,
    normal_form,
    prefix_suffix_check,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3

# protect desk-scale runs: t*k^t explodes for k >= 2
UNFORCED_DEGREE_CAP = 12
AXIOM_TRIPLES = 200  # seeded random triples verify checks the identities on


#### presentation files


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    field (optional, default Q), then generators, then any number of
    rel / idrel lines and at most one slack line.  '#' starts a comment.
    """
    field = None
    alphabet = None
    relator_texts = []  # (literal, line, column)
    schemes = []
    slack = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split(None, 1)[0]
        rest = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
        col = line.index(head) + 1
        if head == "field":
            if alphabet is not None:
                raise ParseError("field must come before generators", lineno, col)
            if field is not None:
                raise ParseError("duplicate field line", lineno, col)
            try:
                field = parse_field(rest)
            except ParseError as exc:
                raise ParseError(exc.message, lineno, exc.column) from None
        elif head == "generators":
            if alphabet is not None:
                raise ParseError("duplicate generators line", lineno, col)
            names = rest.split()
            if not names:
                raise ParseError("generators line lists no names", lineno, col)
            dupes = {nm for nm in names if names.count(nm) > 1}
            if dupes:
                raise ParseError(f"duplicate generator {sorted(dupes)[0]!r}", lineno, col)
            try:
                alphabet = Alphabet.of(*names)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, col) from None
        elif head == "rel":
            if alphabet is None:
                raise ParseError("rel before generators", lineno, col)
            if not rest:
                raise ParseError("rel line has no element literal", lineno, col)
            relator_texts.append((rest, lineno, line.index(rest, col) + 1))
        elif head == "idrel":
            if alphabet is None:
                raise ParseError("idrel before generators", lineno, col)
            tag = rest.strip()
            if tag not in SCHEME_TAGS:
                raise ParseError(f"unknown identity scheme {tag!r}", lineno, col + 6)
            if tag in schemes:
                raise ParseError(f"duplicate identity scheme {tag!r}", lineno, col + 6)
            schemes.append(tag)
        elif head == "slack":
            if slack is not None:
                raise ParseError("duplicate slack line", lineno, col)
            value = rest.strip()
            if not value.isdigit():
                raise ParseError(f"slack needs a nonnegative integer, got {value!r}",
                                 lineno, col + 6)
            slack = int(value)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col)
    if alphabet is None:
        raise ParseError("missing generators line", 1, 1)
    if field is None:
        field = QQ
    relators = []
    for literal, lineno, col in relator_texts:
        try:
            r = parse_element(literal, alphabet, field)
        except ParseError as exc:
            raise ParseError(exc.message, lineno, col + exc.column - 1) from None
        if r.is_zero:
            raise ParseError("zero relator", lineno, col)
        relators.append(r)
    return Presentation(alphabet, field, tuple(relators), tuple(schemes), slack)


def load_presentation(path: str) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


#### argument handling


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for verification
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise argparse.ArgumentTypeError(f"expected <lo>:<hi>, got {text!r}")
    return (int(lo), int(hi))


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="digrow", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, window=False, expr=False, mode=True):
        p.add_argument("file", help="presentation file (.dpres)")
        p.add_argument("--max-degree", type=int, default=UNFORCED_DEGREE_CAP,
                       metavar="N", help="degree bound (default 12)")
        if mode:
            p.add_argument("--mode", choices=(DIALGEBRA, "assoc"), default=DIALGEBRA)
        else:
            # verify saturates both modes, so its degree cap is dialgebra's
            p.set_defaults(mode=DIALGEBRA)
        p.add_argument("--slack", type=int, default=None, metavar="K",
                       help="override saturation slack")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, metavar="PATH", help="write output to a file")
        p.add_argument("--force", action="store_true", help="lift the degree cap")
        if window:
            p.add_argument("--window", type=_window, default=None, metavar="LO:HI",
                           help="fit window (default N/4:N)")
        if expr:
            p.add_argument("--expr", required=True, metavar="ELEMENT",
                           help="element literal to reduce")

    common(sub.add_parser("nf", help="normal form of an expression"), expr=True)
    common(sub.add_parser("basis", help="basis table up to the degree bound"))
    common(sub.add_parser("growth", help="growth series"))
    common(sub.add_parser("gk", help="growth-exponent estimate"), window=True)
    common(sub.add_parser("verify", help="run the structural check battery"),
           window=True, mode=False)
    return top


def _enforce_degree_cap(args, pres):
    if (
        args.max_degree > UNFORCED_DEGREE_CAP
        and args.mode == DIALGEBRA
        and pres.alphabet.size >= 2
        and not args.force
    ):
        raise ResourceCapExceeded(
            f"max-degree {args.max_degree} exceeds the default cap "
            f"{UNFORCED_DEGREE_CAP} for dialgebra mode on {pres.alphabet.size} "
            f"generators; pass --force to lift it"
        )


def _emit(args, chunks):
    """Write chunks, one str or an iterable of them, to --out or stdout.

    The first chunk is drawn before --out is opened, so a refusal raised
    before it leaves no file.  A reader that closes stdout early ends the
    output, not the run: the exit code and stderr stay those of a full
    write."""
    chunks = iter((chunks,) if isinstance(chunks, str) else chunks)
    chunks = chain((next(chunks, ""),), chunks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would raise again: send what is buffered nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


#### verbs


def cmd_nf(args, pres) -> int:
    x = parse_element(args.expr, pres.alphabet, pres.field)
    check_reducible(x, args.max_degree, args.mode)
    table = basis_upto(pres, args.max_degree, args.mode, args.slack)
    nf = normal_form(x, table)
    if args.format == "json":
        _emit(args, canonical_json({
            "input": x.format(),
            "normal_form": nf.format(),
            "mode": table.mode,
            "degree_bound": table.degree_bound,
            "exact": table.exact,
        }))
    else:
        _emit(args, nf.format() + "\n")
    return EXIT_OK


def cmd_basis(args, pres) -> int:
    table = basis_upto(pres, args.max_degree, args.mode, args.slack)
    if args.format == "json":
        _emit(args, table.json_chunks())
    else:
        basis = table._basis_keys()  # the materialize cap, before any byte
        head = "\n".join([
            f"mode: {table.mode}",
            f"degree bound: {table.degree_bound}",
            f"homogeneous: {table.homogeneous}",
            f"slack: {table.slack}",
            "basis:",
        ])
        runs = ("\n  " + "\n  ".join(run) for run in table._literals((basis,)))
        _emit(args, chain((head,), runs, ("\n",)))
    return EXIT_OK


def cmd_growth(args, pres) -> int:
    series = growth_series(pres, args.max_degree, args.mode, args.slack)
    if args.format == "json":
        _emit(args, series.to_json())
    elif args.format == "csv":
        _emit(args, series.to_csv())
    else:
        lines = [f"{'n':>4} {'count':>12} {'cumulative':>12}"]
        for t in range(1, series.degree_bound + 1):
            lines.append(f"{t:>4} {series.count(t):>12} {series.cumulative_at(t):>12}")
        lines += list(series.warnings)
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_gk(args, pres) -> int:
    check_degree_bound(args.max_degree)
    fit_window(args.max_degree, args.window)
    series = growth_series(pres, args.max_degree, args.mode, args.slack)
    est = gk_estimate(series, args.window)
    if args.format == "json":
        _emit(args, est.to_json())
    else:
        lines = [
            f"classification: {est.classification}",
            f"slope: {est.slope:.4f}",
            f"window: {est.window[0]}:{est.window[1]}",
            f"residual: {est.residual:.6f}",
        ]
        if est.degree is not None:
            lines.insert(1, f"degree: {est.degree:.4f}")
        lines += list(series.warnings)
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args, pres) -> int:
    n = args.max_degree
    if n >= 3:
        fit_window(n, args.window)
    lines = []
    hard_failures = 0

    def report(level, msg):
        nonlocal hard_failures
        if level == "FAIL":
            hard_failures += 1
        lines.append(f"{level} {msg}")

    # seeded random elements: 1-3 terms, words of length 1-3, coefficients in [-5, 5]
    alphabet, rng, codec = pres.alphabet, random.Random(42), KeyCodec(pres.alphabet, 9)

    def element():
        pairs = []
        for _ in range(rng.randint(1, 3)):
            t = rng.randint(1, 3)
            word = bytes(rng.randrange(alphabet.size) for _ in range(t))
            m = Disequence(alphabet, word, rng.randint(1, t))
            pairs.append((codec.encode(m), rng.randint(-5, 5)))
        return _sum_terms(pairs, pres.field)

    bad = sum(any(key_identity_verdicts(codec, pres.field, element(), element(), element()))
              for _ in range(AXIOM_TRIPLES))
    report("FAIL" if bad else "PASS",
           f"axiom residuals vanish on {AXIOM_TRIPLES} random triples" if not bad
           else f"axiom residuals nonzero on {bad} triples")

    table_d = basis_upto(pres, n, DIALGEBRA, args.slack)
    table_a = basis_upto(pres, n, ASSOCIATIVE, args.slack)
    series_d = GrowthSeries.from_table(table_d)
    series_a = GrowthSeries.from_table(table_a)

    ta = theorem_a_check(series_d, series_a, pres.alphabet.size)
    if ta.ok:
        report("PASS", f"count inequality termwise through degree {n}")
    elif ta.hard_failure:
        report("FAIL", f"count inequality violated: {ta.violation}")
    else:
        report("WARN", f"count inequality violated on truncated data: {ta.violation}")

    ps = prefix_suffix_check(table_d, table_a)
    if ps.ok:
        report("PASS", f"prefix/suffix closure on {ps.checked} basis monomials")
    elif ps.exact:
        report("FAIL", f"prefix/suffix violations on exact table: {list(ps.violations[:3])}")
    else:
        monos = len({mono for mono, _, _ in ps.violations})
        report("WARN", f"prefix/suffix truncation artifacts: {monos} monomials")

    sb = special_basis_check(table_d)
    if sb.found:
        report("PASS", f"middle-bound condition holds at m={sb.m}: {sb.prediction}")
    else:
        report("INFO", "no middle bound m found")

    ic = identity_class_check(pres, table_d)
    declared_broken = [tag for tag in pres.schemes if not ic.holds[tag]]
    if declared_broken:
        report("FAIL", f"declared schemes fail in their own quotient: {declared_broken}")
    else:
        held = [tag for tag, h in ic.holds.items() if h]
        report("PASS", f"identity scan ({ic.pairs_checked} pairs): holding = {held or 'none'}")
    if not ic.exhaustive:
        report("WARN", f"identity scan capped at {growth.MAX_IDENTITY_PAIRS} pairs per identity; "
                       "no prediction drawn")
    for pred in ic.predictions:
        report("INFO", pred)

    ests, gap, slope_ratio = [], None, None
    if n < 3:
        report("INFO", f"no fit window exists for N = {n} < 3; "
                       "growth-exponent checks skipped")
    else:
        ests = [gk_estimate(series_d, args.window), gk_estimate(series_a, args.window)]
        gaps = gap_check(ests)
        gap = gaps.to_json_dict()
        if gaps.ok:
            report("PASS", "no growth-exponent estimate inside the gap band")
        else:
            for _, slope, resid, msg in gaps.anomalies:
                report("WARN", f"{msg} (slope {slope:.3f}, residual {resid:.4f})")

        # exploratory: how the two fitted exponents relate; no conclusion drawn
        est_d, est_a = ests
        if (est_d.classification == est_a.classification == "polynomial"
                and est_a.slope > 0.05):
            slope_ratio = est_d.slope / est_a.slope
            report("INFO",
                   f"fitted exponent ratio dialgebra/associative: {slope_ratio:.3f}")

    for w in dict.fromkeys(series_d.warnings + series_a.warnings):
        report("WARN", w)

    if args.format == "json":
        payload = {
            "file": args.file,
            "degree_bound": n,
            "lines": lines,
            "hard_failures": hard_failures,
            "theorem_a": ta.to_json_dict(),
            "prefix_suffix": ps.to_json_dict(),
            "special_basis": sb.to_json_dict(),
            "identity_class": ic.to_json_dict(),
            "gap": gap,
            "estimates": [e.to_json_dict() for e in ests],
            "slope_ratio": slope_ratio,
        }
        _emit(args, canonical_json(payload))
    else:
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_VERIFY if hard_failures else EXIT_OK


_VERBS = {
    "nf": cmd_nf,
    "basis": cmd_basis,
    "growth": cmd_growth,
    "gk": cmd_gk,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.verb != "growth":
            raise ParseError("csv format applies to the growth verb only")
        pres = load_presentation(args.file)
        _enforce_degree_cap(args, pres)
        return _VERBS[args.verb](args, pres)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    except ResourceCapExceeded as exc:
        print(f"digrow: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, ValueError, OSError) as exc:
        print(f"digrow: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
