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
item runs) or written (a full disk).

``COMMANDS`` declares each subcommand once, and the direct parse reads
tables derived from it: an argv that names a subcommand and then gives only
its long options spelled out in full, each once with a value its type
accepts, and its positional, gets its Namespace without argparse.  A value
after a space is taken only when it does not start with "-"; a negative
number there is left to argparse, as is every other argv: one
``parse_args`` on the argparse tree, so argparse writes all help and every
usage error.  ``build_parser`` builds that tree, from the same
declaration, only when an argv declines the direct parse or a command
reports a usage error; a canonical argv never builds it.
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
# about log(E) / log(2 ell) of them, each with at most two others.  At the
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
    """The argparse tree, built once per process from ``COMMANDS``, and only
    for an argv that argparse must handle: one the direct parse declines,
    or one whose command reports a usage error.  Parsing keeps no state
    between calls, so every such call reuses it."""
    p = argparse.ArgumentParser(
        prog="k3cert",
        description="exact verification suite for the quartic and Pell "
                    "lattice computations")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (summary, run, positional, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        if positional is not None:
            dest, choices = positional
            sp.add_argument(dest, choices=choices)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return p


@functools.cache
def _direct_tables():
    """Each subcommand's table for the direct parse, derived from
    ``COMMANDS`` as argparse derives its own: flag -> (dest, type, choices),
    the positional, the defaults (``run`` among them) and the required
    dests."""
    tables = {}
    for name, (_, run, positional, options) in COMMANDS.items():
        table, defaults, required = {}, {"run": run}, set()
        for flag, kwargs in options:
            dest = kwargs.get("dest", flag[2:].replace("-", "_"))
            table[flag] = (dest, kwargs.get("type"), kwargs.get("choices"))
            defaults[dest] = kwargs.get("default")
            if kwargs.get("required"):
                required.add(dest)
        if positional is not None:
            required.add(positional[0])
        tables[name] = (table, positional, defaults, required)
    return tables


def _direct_parse(argv):
    """The Namespace of a canonical argv, built without argparse, or None.

    argv is canonical when argv[0] names a subcommand and every later token
    is either one of the subcommand's long options spelled out in full
    (``--opt=value``, or ``--opt value`` with a value that does not start
    with "-": a negative number or an option-like token after a space is
    left to argparse), each given at most once, whose value its type
    converts and its choices hold, or the subcommand's positional within
    its choices; and no required argument is missing.  On such an argv the
    Namespace is the one argparse builds: the subparser's defaults, run and
    command, and each value converted by the option's own type, read from
    ``_direct_tables`` with no argparse tree built.  Any other argv gives
    None, so argparse handles it: every help request, abbreviation, repeat,
    "--" and usage error."""
    entry = _direct_tables().get(argv[0]) if argv else None
    if entry is None:
        return None
    table, positional, defaults, required = entry
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, eq, value = token.partition("=")
            option = table.get(flag)
            if option is None:
                return None
            if not eq:
                # the space form is taken only with a value that does not
                # start with "-": negative numbers and option-like tokens
                # are left to argparse; a missing value reads as "-"
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
            elif value == "--":
                # argparse (Python 3.11) drops a "--" given after "="
                return None
            dest, convert, choices = option
            if dest in values:
                return None
            if convert is not None:
                try:
                    value = convert(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
        else:
            if positional is None:
                return None
            (dest, choices), value = positional, token
            if dest in values:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    args = argparse.Namespace(command=argv[0])
    vars(args).update(defaults, **values)
    return args


def parse(argv):
    """The Namespace of argv: a canonical argv (see ``_direct_parse``) gets
    it directly, any other argv from ``build_parser().parse_args(argv)``.

    argparse (Python 3.11) reads a "--" given after "=" (``--class=--``)
    as an empty list, which no command takes, so after parse_args such a
    value is a usage error naming the option."""
    args = _direct_parse(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        for flag, (dest, _, _) in _direct_tables()[args.command][0].items():
            if isinstance(getattr(args, dest), list):
                parser.error("argument %s: expected one argument" % flag)
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


def _parse_ell_range(text):
    parts = text.split("..")
    try:
        a, b = parts
        lo, hi = int(a), int(b)
    except ValueError:
        too_long = _digit_limit(parts)
        build_parser().error("--ell-range: " + too_long if too_long
                             else "--ell-range expects A..B with integers")
    if lo > hi:
        build_parser().error("--ell-range bounds out of order")
    return range(lo, hi + 1)


def _parse_class(text):
    parts = text.split(",")
    try:
        coords = tuple(int(c.strip()) for c in parts)
    except ValueError:
        too_long = _digit_limit(parts)
        build_parser().error("--class: " + too_long if too_long
                             else '--class expects integers like "x,y,z"')
    if len(coords) != 3:
        build_parser().error("--class expects exactly 3 coordinates")
    return coords


def cmd_verify(args):
    # every option is checked before any suite runs
    if args.entry_bound < 1:
        build_parser().error("--entry-bound must be >= 1")
    if args.entry_bound > MAX_ENTRY_BOUND:
        # a PellError, like any LatticeError, exits 2 with one stderr line
        raise pell.PellError("--entry-bound must not exceed "
                             "MAX_ENTRY_BOUND = 10^100")
    if not 0 <= args.k_bound <= MAX_K_BOUND:
        build_parser().error("--k-bound must be between 0 and %d"
                             % MAX_K_BOUND)
    if args.ell is not None and args.ell_range is not None:
        build_parser().error("give --ell or --ell-range, not both")
    if args.ell is not None:
        if args.ell <= 5:
            build_parser().error("--ell must exceed 5")
        ells = [args.ell]
    elif args.ell_range is not None:
        ells = _parse_ell_range(args.ell_range)
        if ells[0] <= 5:
            build_parser().error("--ell-range values must exceed 5")
    else:
        ells = pell.ELLS
    if ells[-1] > MAX_ELL:
        # a PellError, like any LatticeError, exits 2 with one stderr line
        raise pell.PellError("--ell and the end of --ell-range must not "
                             "exceed MAX_ELL = 10^1000")
    # the count from the ends: len() of a huge range overflows
    if ells[-1] - ells[0] + 1 > MAX_ELL_COUNT:
        raise pell.PellError("--ell-range must not hold more than "
                             "MAX_ELL_COUNT = %d values" % MAX_ELL_COUNT)
    items = []
    if args.suite in ("all", "quartic"):
        items += quartic.full_section3_certificate().items
    if args.suite in ("all", "pell"):
        items += pell.full_section4_certificate(
            ells, entry_bound=args.entry_bound, k_bound=args.k_bound).items
    if args.suite in ("all", "weierstrass"):
        items += weierstrass.full_weierstrass_certificate().items
    return Report(items)


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


def cmd_enumerate(args):
    if args.what == "sections" and not 1 <= args.n_bound <= MAX_N_BOUND:
        build_parser().error("--n-bound must be between 1 and %d"
                             % MAX_N_BOUND)
    ctx = quartic.build_context()
    if args.what == "sections":
        return run_suite([("prop-3.3-sections", "Prop 3.3(2)", list_sections)],
                         ctx, args.n_bound)
    return run_suite([("lemma-3.9", "Lemma 3.9", list_q)], ctx)


def cmd_reduce(args):
    coords = _parse_class(args.cls)
    ctx = quartic.build_context()
    if args.basis == "fev":
        coords = ctx.to_hlm(coords)
    # off the positive cone this raises ChamberError, a usage error in main
    trace = reduce_to_chamber(ctx.chamber, coords)
    return run_suite([("reduce", "Lemma 3.10", reduce_class)], trace)


def cmd_orbit(args):
    if not 0 <= args.length <= MAX_ORBIT_LEN:
        build_parser().error("--len must be between 0 and %d"
                             % MAX_ORBIT_LEN)
    return run_suite([("orbit", "Lemma 3.13", list_orbit)],
                     quartic.build_context(), args.length)


# The subcommands, one declaration for both parsers: the direct parse reads
# the tables _direct_tables derives from it, and build_parser builds the
# argparse tree from it when an argv needs argparse.  Each entry is (help,
# run, positional, options): the positional as (dest, choices) or None,
# each option as (long flag, add_argument's keyword arguments).
_JSON = ("--json", dict(default=None, metavar="PATH"))
COMMANDS = {
    "verify": ("run a verification suite", cmd_verify,
               ("suite", ["all", "quartic", "pell", "weierstrass"]),
               (("--ell", dict(type=_int_option, default=None)),
                ("--ell-range", dict(default=None, metavar="A..B")),
                ("--entry-bound", dict(type=_int_option,
                                       default=pell.ENTRY_BOUND)),
                ("--k-bound", dict(type=_int_option, default=pell.K_BOUND)),
                _JSON)),
    "enumerate": ("enumeration utilities", cmd_enumerate,
                  ("what", ["sections", "q"]),
                  (("--n-bound", dict(type=_int_option,
                                      default=quartic.N_BOUND)),
                   _JSON)),
    "reduce": ("reduce a class into the chamber", cmd_reduce, None,
               (("--class", dict(dest="cls", required=True,
                                 metavar='"x,y,z"')),
                ("--basis", dict(choices=["HLM", "fev"], default="HLM")),
                _JSON)),
    "orbit": ("orbit of the anchor class", cmd_orbit, None,
              (("--len", dict(dest="length", type=_int_option,
                              required=True)),
               _JSON)),
}


def _cannot_write(path, exc):
    print("error: cannot write --json %s: %s" % (path, exc.strerror or exc),
          file=sys.stderr)
    return USAGE_ERROR


def main(argv=None):
    args = parse(sys.argv[1:] if argv is None else list(argv))
    created = False
    if args.json is not None:
        # opened before any check runs, so a path that cannot be written is a
        # usage error up front, not a crash after all the work; append mode
        # creates a missing file and leaves an existing report as it was
        # when a usage error follows
        try:
            created = not os.path.exists(args.json)
            open(args.json, "a").close()
        except OSError as exc:
            return _cannot_write(args.json, exc)
    try:
        report = args.run(args)
    except (ChamberError, LatticeError, SystemExit) as exc:
        # a usage error found by the command (argparse's error raises
        # SystemExit) leaves no file that main created
        if created:
            os.remove(args.json)
        if isinstance(exc, SystemExit):
            raise
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    print(report.render_text())
    if args.json is not None:
        try:
            with open(args.json, "w") as fh:
                fh.write(report.dumps())
                fh.write("\n")
        except OSError as exc:
            # a disk that fills after the up-front check
            if created:
                os.remove(args.json)
            return _cannot_write(args.json, exc)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
