"""Command-line driver: ``k3cert verify | enumerate | reduce | orbit``.

``COMMANDS`` declares each subcommand once: its summary, its command, its
positional and its options, each with the range the command accepts.
``parse`` reads it to turn an argv into the subcommand's namespace, and
``build_parser`` to write the help (``k3cert -h``, ``k3cert verify -h``)
and the usage lines, only for -h and for usage errors.

``--json PATH`` writes the report; the exit code is 0 iff no item has
status "fail" (a "discrepancy" does not fail the build), 2 on usage errors,
among them a PATH that cannot be opened for writing (checked before any
item runs) or written (a full disk).  Every usage error that ``parse`` or
a command's own check finds is a ``UsageError``, which ``main`` prints
below the subcommand's usage line.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from . import pell, quartic, weierstrass
from .chamber import ChamberError, reduce_to_chamber, orbit_of_anchor
from .lattice import LatticeError
from .report import PASS, Report, run_suite

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
# each ell takes about a ms at small ell (a cold --ell-range 6..200 took
# 0.7-1.1 s, 0.2 s of it in the items) and every item is held until the
# report prints, so a range runs at most this many ell
MAX_ELL_COUNT = 10_000
# the sections scan walks 2 box + 1 values of a, box = 10 n^2 + 20 n, and
# solves each line for n exactly; the cap stays so the accepted range stays
MAX_N_BOUND = 10


class UsageError(Exception):
    """An argv that k3cert cannot run: main exits 2 below the usage line."""


@functools.cache
def build_parser():
    """The usage line and the help text of k3cert (key None) and of each
    subcommand, written from ``COMMANDS`` on the first -h or usage error of
    a process; a parse that succeeds never builds them."""
    texts = {None: ("usage: k3cert [-h] {%s} ..." % ",".join(COMMANDS),
                    "exact verification suite for the quartic and Pell "
                    "lattice computations\n\ncommands:",
                    [(name, cmd[0]) for name, cmd in COMMANDS.items()])}
    for name, (summary, _, positional, options) in COMMANDS.items():
        lines, parts = ["usage: k3cert %s [-h]" % name], []
        rows = [("-h, --help", "show this help")]
        for flag, kwargs in options:
            arg = "%s %s" % (flag, kwargs.get("metavar")
                             or "{%s}" % ",".join(kwargs["choices"]))
            parts.append(arg if kwargs.get("required") else "[%s]" % arg)
            rows.append((arg, kwargs["help"] % kwargs))
        if positional is not None:
            parts.append("{%s}" % ",".join(positional[1]))
        for part in parts:   # wrapped below the subcommand at 79 columns
            if len(lines[-1]) + len(part) > 78:
                lines.append(" " * (len(name) + 14))
            lines[-1] += " " + part
        texts[name] = ("\n".join(lines), summary + "\n\noptions:", rows)
    return {name: (usage, "%s\n\n%s" % (usage, heading) + "".join(
        "\n  %-18s %s" % row for row in rows))
        for name, (usage, heading, rows) in texts.items()}


@functools.cache
def _tables():
    """Each subcommand's flag -> (flag, dest, type, choices), -h and --help
    with dest None; its positional; its defaults, with command and run; and
    its required dests, each with the name a usage error gives it."""
    tables = {}
    for name, (_, run, positional, options) in COMMANDS.items():
        table = dict.fromkeys(("-h", "--help"), ("-h", None, None, None))
        defaults, required = {"command": name, "run": run}, {}
        if positional is not None:
            dest, choices = positional
            positional, required[dest] = (dest, dest, None, choices), dest
        for flag, kwargs in options:
            dest = kwargs.get("dest", flag[2:].replace("-", "_"))
            table[flag] = (flag, dest, kwargs.get("type"),
                           kwargs.get("choices"))
            defaults[dest] = kwargs.get("default")
            if kwargs.get("required"):
                required[dest] = flag
        tables[name] = (table, positional, defaults, required)
    return tables


def parse(argv):
    """The namespace of argv, or None once the help it asks for is printed.

    argv[0] is -h, --help or a subcommand.  Its tokens, read left to right,
    are -h or --help; ``--opt=value`` or ``--opt value``, with any value
    but "--", ``--opt`` spelled out or as a unique prefix, a repeat's last
    value kept; and the positional, as is every token after a "--".  Any
    other token, a missing required argument or a value its type or
    choices refuse is a ``UsageError``."""
    name = argv[0] if argv else None
    entry = _tables().get(name)
    if entry is None:
        if name in ("-h", "--help"):
            print(build_parser()[None][1])
            return None
        raise UsageError(
            "the following arguments are required: command" if name is None
            else "argument command: invalid choice: %r (choose from %s)"
            % (name, ", ".join(map(repr, COMMANDS))))
    table, positional, defaults, required = entry
    values, extras, positionals_only = {}, [], False
    tokens = iter(argv[1:])
    for token in tokens:
        if positionals_only or not token.startswith("-"):
            option, value = positional, token
            if option is None or option[1] in values:
                extras.append(token)
                continue
        elif token == "--":
            positionals_only = True
            continue
        else:
            flag, eq, value = token.partition("=")
            option = table.get(flag)
            if option is None and len(flag) > 1:
                # after the exact lookup, so a canonical argv scans no table
                matches = [f for f in table if f.startswith(flag)]
                if len(matches) > 1:
                    raise UsageError("ambiguous option: %s could match %s"
                                     % (flag, ", ".join(matches)))
                option = table[matches[0]] if matches else None
            if option is None:
                extras.append(token)
                continue
            if option[1] is None:   # -h, --help
                print(build_parser()[name][1])
                return None
            if not eq:
                value = next(tokens, "--")   # no token left: no value
            if value == "--":
                raise UsageError("argument %s: expected one argument"
                                 % option[0])
        label, dest, convert, choices = option
        if convert is not None:
            try:
                value = convert(value)
            except ValueError as exc:
                raise UsageError("argument %s: %s" % (label, exc)) from None
        if choices is not None and value not in choices:
            raise UsageError("argument %s: invalid choice: %r (choose from %s)"
                             % (label, value, ", ".join(map(repr, choices))))
        values[dest] = value
    if not required.keys() <= values.keys():
        raise UsageError("the following arguments are required: %s"
                         % ", ".join(label for dest, label in required.items()
                                     if dest not in values))
    if extras:
        raise UsageError("unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(**{**defaults, **values})


def _digit_limit(parts):
    """"N digits exceed ..." for the first of the strings past Python's
    limit on int conversion (4300 digits unless changed), or None: int()
    refuses it whatever the caps allow, and it is too long to echo."""
    limit = sys.get_int_max_str_digits()
    for part in parts:
        digits = sum(map(str.isdecimal, part))
        if limit and digits > limit:
            return ("%d digits exceed Python's %d-digit limit on int "
                    "conversion" % (digits, limit))


def _ints(parts, count, what):
    """The ``count`` integers that the strings parts spell; else a
    ValueError that names the digit limit or what the text should be."""
    try:
        if len(parts) == count:
            return tuple(map(int, parts))   # int() strips spaces
    except ValueError:
        pass
    raise ValueError(_digit_limit(parts) or what)


def _int_option(text):
    """The type of every integer option."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(_digit_limit([text])
                         or "invalid int value: %r" % text) from None


def _parse_ell_range(text):
    """The type of --ell-range: the range A..B, both ends included."""
    lo, hi = _ints(text.split(".."), 2, "expects A..B with integers")
    if lo > hi:
        raise ValueError("bounds out of order")
    return range(lo, hi + 1)


def _parse_class(text):
    """The type of --class: the three integers of "x,y,z"."""
    return _ints(text.split(","), 3, 'expects integers like "x,y,z"')


def cmd_verify(args):
    # every option is checked before any suite runs
    if args.entry_bound < 1:
        raise UsageError("--entry-bound must be >= 1")
    if args.entry_bound > MAX_ENTRY_BOUND:
        # a PellError, like any LatticeError, exits 2 with one stderr line
        raise pell.PellError("--entry-bound must not exceed "
                             "MAX_ENTRY_BOUND = 10^100")
    if not 0 <= args.k_bound <= MAX_K_BOUND:
        raise UsageError("--k-bound must be between 0 and %d" % MAX_K_BOUND)
    if args.ell is not None and args.ell_range is not None:
        raise UsageError("give --ell or --ell-range, not both")
    if args.ell is not None:
        if args.ell <= 5:
            raise UsageError("--ell must exceed 5")
        ells = [args.ell]
    elif args.ell_range is not None:
        ells = args.ell_range
        if ells[0] <= 5:
            raise UsageError("--ell-range values must exceed 5")
    else:
        ells = pell.ELLS
    if ells[-1] > MAX_ELL:
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
        raise UsageError("--n-bound must be between 1 and %d" % MAX_N_BOUND)
    ctx = quartic.build_context()
    if args.what == "sections":
        return run_suite([("prop-3.3-sections", "Prop 3.3(2)", list_sections)],
                         ctx, args.n_bound)
    return run_suite([("lemma-3.9", "Lemma 3.9", list_q)], ctx)


def cmd_reduce(args):
    coords, ctx = args.cls, quartic.build_context()
    if args.basis == "fev":
        coords = ctx.to_hlm(coords)
    # off the positive cone this raises ChamberError, a usage error in main
    trace = reduce_to_chamber(ctx.chamber, coords)
    return run_suite([("reduce", "Lemma 3.10", reduce_class)], trace)


def cmd_orbit(args):
    if not 0 <= args.length <= MAX_ORBIT_LEN:
        raise UsageError("--len must be between 0 and %d" % MAX_ORBIT_LEN)
    return run_suite([("orbit", "Lemma 3.13", list_orbit)],
                     quartic.build_context(), args.length)


# The subcommands, declared once: parse reads the tables _tables derives
# from it, and build_parser writes the help and usage text from it.  Each
# entry is (summary, run, positional, options): the positional as (dest,
# choices) or None, each option as (long flag, its keyword arguments in
# argparse's names: dest, type, choices, default, required, metavar, help).
_JSON = ("--json", dict(metavar="PATH", help="write the report to PATH too"))
COMMANDS = {
    "verify": ("run a verification suite", cmd_verify,
               ("suite", ["all", "quartic", "pell", "weierstrass"]), (
        ("--ell", dict(type=_int_option, metavar="N",
                       help="one ell, 5 < N <= 10^1000")),
        ("--ell-range", dict(type=_parse_ell_range, metavar="A..B", help=(
            f"ells A to B, 5 < A, B <= 10^1000, B - A < {MAX_ELL_COUNT}"))),
        ("--entry-bound", dict(type=_int_option, metavar="E",
                               default=pell.ENTRY_BOUND, help=(
            "lemma 4.6's bound, 1 <= E <= 10^100 (default %(default)s)"))),
        ("--k-bound", dict(type=_int_option, metavar="K",
                           default=pell.K_BOUND, help=(
            f"lemma 4.7's bound, K <= {MAX_K_BOUND} (default %(default)s)"))),
        _JSON)),
    "enumerate": ("enumeration utilities", cmd_enumerate,
                  ("what", ["sections", "q"]), (
        ("--n-bound", dict(type=_int_option, metavar="K",
                           default=quartic.N_BOUND, help=(
            f"sections up to n = K <= {MAX_N_BOUND} (default %(default)s)"))),
        _JSON)),
    "reduce": ("reduce a class into the chamber", cmd_reduce, None, (
        ("--class", dict(dest="cls", type=_parse_class, required=True,
                         metavar='"x,y,z"', help="a class of the closed "
                         "positive cone")),
        ("--basis", dict(choices=["HLM", "fev"], default="HLM",
                         help="the basis of --class (default %(default)s)")),
        _JSON)),
    "orbit": ("orbit of the anchor class", cmd_orbit, None, (
        ("--len", dict(dest="length", type=_int_option, required=True,
                       metavar="K", help=f"wall words of length <= K <= "
                       f"{MAX_ORBIT_LEN}")),
        _JSON)),
}


def _fail(message, argv=None):
    """Exit code 2 after one error line on stderr, for a usage error in argv
    below the usage line of its subcommand: the one way out of every exit-2
    path."""
    if argv is not None:
        texts = build_parser()
        print(texts.get(argv[0] if argv else None, texts[None])[0],
              file=sys.stderr)
    print("error: %s" % message, file=sys.stderr)
    return 2


def _cannot_write(path, exc):
    return _fail("cannot write --json %s: %s" % (path, exc.strerror or exc))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    created = False
    try:
        args = parse(argv)
        if args is None:   # the help was printed
            return 0
        if args.json is not None:
            # opened before any check runs, so a path that cannot be
            # written is a usage error up front, not a crash after all the
            # work; append mode creates a missing file and leaves an
            # existing report as it was when a usage error follows
            try:
                created = not os.path.exists(args.json)
                open(args.json, "a").close()
            except OSError as exc:
                return _cannot_write(args.json, exc)
        report = args.run(args)
    except (UsageError, ChamberError, LatticeError) as exc:
        # an error found by the command leaves no file that main created
        if created:
            os.remove(args.json)
        return _fail(exc, argv if isinstance(exc, UsageError) else None)
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
