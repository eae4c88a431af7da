"""Command-line driver.

Subcommands:
    verify all | quartic | pell [--ell N | --ell-range A..B] | weierstrass
        [--k-bound K] [--entry-bound E]
        (5 < N, A, B <= MAX_ELL; B - A < MAX_ELL_COUNT; 0 <= K <= MAX_K_BOUND;
         1 <= E <= MAX_ENTRY_BOUND)
    enumerate sections [--n-bound K] | enumerate q   (1 <= K <= MAX_N_BOUND)
    reduce --class "x,y,z" [--basis HLM|fev]   (x in the closed positive cone)
    orbit --len K          (K <= MAX_ORBIT_LEN)

``--json PATH`` writes the report; the exit code is 0 iff no item has
status "fail" (a "discrepancy" does not fail the build), 2 on usage errors,
among them a PATH that cannot be opened for writing (checked before any
item runs).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import pell, quartic, weierstrass
from .chamber import ChamberError, reduce_to_chamber, orbit_of_anchor
from .lattice import LatticeError
from .report import PASS, Report, run_suite

USAGE_ERROR = 2
# level k of the orbit holds 3 * 2^(k-1) classes, so its size doubles per level
MAX_ORBIT_LEN = 12
# lemmas 4.7 and 4.8 build the 2k + 1 powers g0^k, whose entries have about
# 4 k log10(2 ell) digits, so the cost grows with the digits of ell: a cold
# verify pell --k-bound 50 took 0.6 s at ell = 7, 0.9 s at 10^100, 1.9 s at
# 10^300 and 19 s at 10^1000 (on a shared 2-core VM)
MAX_K_BOUND = 50
# the lemma-4.6 details print g0 = eps^4 and the scan's entry bound, about
# 4 log10(2 ell) digits each: at ell = 10^1000 that is 4,001 digits, inside
# the 4,300-digit limit of int-to-str conversion
MAX_ELL = 10 ** 1000
# the lemma-4.6 scan pairs the Pell columns with entries up to the bound,
# about log(E) / log(2 ell) of them, so its pairs grow like log(E)^2.  At the
# cap, a cold verify pell --ell 6 takes about 1.0 s
MAX_ENTRY_BOUND = 10 ** 100
# each ell takes a few ms at small ell (a cold --ell-range 6..200 takes about
# 1.2 s, 0.3 s of it in the items) and every item is held until the report
# prints, so a range runs at most this many ell
MAX_ELL_COUNT = 10_000
# the sections scan walks 2 box + 1 values of a, box = 10 n^2 + 20 n, and
# solves each line for n exactly; the cap stays so the accepted range stays
MAX_N_BOUND = 10


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parsing keeps no state
    between calls, so main reuses it.  ``commands`` maps each subcommand to
    its own parser, which main calls directly when argv starts with that
    subcommand."""
    p = argparse.ArgumentParser(
        prog="k3cert",
        description="exact verification suite for the quartic and Pell "
                    "lattice computations")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.set_defaults(run=cmd_verify)
    pv.add_argument("suite", choices=["all", "quartic", "pell", "weierstrass"])
    pv.add_argument("--ell", type=_int_option, default=None)
    pv.add_argument("--ell-range", default=None, metavar="A..B")
    pv.add_argument("--entry-bound", type=_int_option, default=300)
    pv.add_argument("--k-bound", type=_int_option, default=5)
    pv.add_argument("--json", default=None, metavar="PATH")

    pe = sub.add_parser("enumerate", help="enumeration utilities")
    pe.set_defaults(run=cmd_enumerate)
    pe.add_argument("what", choices=["sections", "q"])
    pe.add_argument("--n-bound", type=_int_option, default=3)
    pe.add_argument("--json", default=None, metavar="PATH")

    pr = sub.add_parser("reduce", help="reduce a class into the chamber")
    pr.set_defaults(run=cmd_reduce)
    pr.add_argument("--class", dest="cls", required=True, metavar='"x,y,z"')
    pr.add_argument("--basis", choices=["HLM", "fev"], default="HLM")
    pr.add_argument("--json", default=None, metavar="PATH")

    po = sub.add_parser("orbit", help="orbit of the anchor class")
    po.set_defaults(run=cmd_orbit)
    po.add_argument("--len", dest="length", type=_int_option, required=True)
    po.add_argument("--json", default=None, metavar="PATH")
    p.commands = sub.choices
    return p


def parse(parser, argv):
    """parser.parse_args(argv) in one argparse pass.

    The full tree matches the subcommand and hands every later argument to
    its parser, then reports leftovers as its own "unrecognized arguments"
    error.  When argv[0] names a subcommand, this does the same with no
    top-level pass.  Any other argv (empty, -h, --, an unknown command)
    goes through the full tree."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def _digit_limit(parts):
    """"N digits exceed ..." for the first of the strings past Python's
    limit on str-to-int conversion (4300 digits unless changed), or None.
    int() refuses such a value whatever the caps here allow, and echoing
    it would print thousands of digits."""
    limit = sys.get_int_max_str_digits()
    for part in parts:
        digits = sum(map(str.isdecimal, part))
        if limit and digits > limit:
            return ("%d digits exceed Python's %d-digit limit on int "
                    "conversion" % (digits, limit))
    return None


def _int_option(text):
    """The type of every integer option: int(text), with a short message
    for a value past the digit limit."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            _digit_limit([text]) or "invalid int value: %r" % text) from None


def _parse_ell_range(text, parser):
    parts = text.split("..")
    try:
        a, b = parts
        lo, hi = int(a), int(b)
    except ValueError:
        too_long = _digit_limit(parts)
        parser.error("--ell-range: " + too_long if too_long
                     else "--ell-range expects A..B with integers")
    if lo > hi:
        parser.error("--ell-range bounds out of order")
    return range(lo, hi + 1)


def _parse_class(text, parser):
    parts = text.split(",")
    try:
        coords = tuple(int(c.strip()) for c in parts)
    except ValueError:
        too_long = _digit_limit(parts)
        parser.error("--class: " + too_long if too_long
                     else '--class expects integers like "x,y,z"')
    if len(coords) != 3:
        parser.error("--class expects exactly 3 coordinates")
    return coords


def cmd_verify(args, parser):
    # every option is checked before any suite runs
    if args.entry_bound < 1:
        parser.error("--entry-bound must be >= 1")
    if args.entry_bound > MAX_ENTRY_BOUND:
        # a PellError, like any LatticeError, exits 2 with one stderr line
        raise pell.PellError("--entry-bound must not exceed "
                             "MAX_ENTRY_BOUND = 10^100")
    if not 0 <= args.k_bound <= MAX_K_BOUND:
        parser.error("--k-bound must be between 0 and %d" % MAX_K_BOUND)
    if args.ell is not None and args.ell_range is not None:
        parser.error("give --ell or --ell-range, not both")
    if args.ell is not None:
        if args.ell <= 5:
            parser.error("--ell must exceed 5")
        ells = [args.ell]
    elif args.ell_range is not None:
        ells = _parse_ell_range(args.ell_range, parser)
        if ells[0] <= 5:
            parser.error("--ell-range values must exceed 5")
    else:
        ells = range(6, 13)
    if ells[-1] > MAX_ELL:
        # a PellError, like any LatticeError, exits 2 with one stderr line
        raise pell.PellError("--ell and the end of --ell-range must not "
                             "exceed MAX_ELL = 10^1000")
    # the count from the ends: len() of a huge range overflows
    if ells[-1] - ells[0] + 1 > MAX_ELL_COUNT:
        raise pell.PellError("--ell-range must not hold more than "
                             "MAX_ELL_COUNT = %d values" % MAX_ELL_COUNT)
    report = Report()
    if args.suite in ("all", "quartic"):
        report.extend(quartic.full_section3_certificate().items)
    if args.suite in ("all", "pell"):
        report.extend(pell.full_section4_certificate(
            ells, entry_bound=args.entry_bound, k_bound=args.k_bound).items)
    if args.suite in ("all", "weierstrass"):
        report.extend(weierstrass.full_weierstrass_certificate().items)
    return report


def list_sections(ctx, n_bound):
    sols, (a2, a1, a0), zero = quartic.enumerate_sections(ctx, n_bound)
    return PASS, ("%d section classes in (f,e,v): %s; closed form "
                  "a(n) = %d n^2 + %d n + %d; zero section present: %s"
                  % (len(sols), sols, a2, a1, a0, zero))


def list_q(ctx):
    q = list(ctx.q_classes)
    kinds = {a: quartic.classify_polarization(ctx, a) for a in q}
    return PASS, "Q = %s; classifications: %s" % (q, kinds)


def reduce_class(trace):
    return PASS, ("reduced to %s via wall word %s (basis HLM)"
                  % (trace.result, list(trace.word)))


def list_orbit(ctx, length):
    orbit = orbit_of_anchor(ctx.chamber, length)
    # the repr of the list of rank-3 classes, written out: the list's own
    # repr takes twice as long, about as long as the walk itself
    text = ", ".join([f"({x}, {y}, {z})" for x, y, z in orbit])
    return PASS, ("%d distinct classes up to word length %d: [%s]"
                  % (len(orbit), length, text))


def cmd_enumerate(args, parser):
    if args.what == "sections" and not 1 <= args.n_bound <= MAX_N_BOUND:
        parser.error("--n-bound must be between 1 and %d" % MAX_N_BOUND)
    ctx = quartic.build_context()
    if args.what == "sections":
        return run_suite([("prop-3.3-sections", "Prop 3.3(2)", list_sections)],
                         ctx, args.n_bound)
    return run_suite([("lemma-3.9", "Lemma 3.9", list_q)], ctx)


def cmd_reduce(args, parser):
    coords = _parse_class(args.cls, parser)
    ctx = quartic.build_context()
    if args.basis == "fev":
        coords = ctx.to_hlm(coords)
    # off the positive cone this raises ChamberError, a usage error in main
    trace = reduce_to_chamber(ctx.chamber, coords)
    return run_suite([("reduce", "Lemma 3.10", reduce_class)], trace)


def cmd_orbit(args, parser):
    if not 0 <= args.length <= MAX_ORBIT_LEN:
        parser.error("--len must be between 0 and %d" % MAX_ORBIT_LEN)
    return run_suite([("orbit", "Lemma 3.13", list_orbit)],
                     quartic.build_context(), args.length)


def main(argv=None):
    parser = build_parser()
    args = parse(parser, sys.argv[1:] if argv is None else list(argv))
    created = False
    if args.json:
        # opened before any check runs, so a path that cannot be written is a
        # usage error up front, not a crash after all the work; append mode
        # creates a missing file and leaves an existing report as it was
        # when a usage error follows
        try:
            created = not os.path.exists(args.json)
            open(args.json, "a").close()
        except OSError as exc:
            print("error: cannot write --json %s: %s"
                  % (args.json, exc.strerror or exc), file=sys.stderr)
            return USAGE_ERROR
    try:
        report = args.run(args, parser)
    except (ChamberError, LatticeError, SystemExit) as exc:
        # a usage error found by the command (parser.error raises
        # SystemExit) leaves no file that main created
        if created:
            os.remove(args.json)
        if isinstance(exc, SystemExit):
            raise
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    print(report.render_text())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.dumps())
            fh.write("\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
