"""Command-line frontend.

Each subcommand computes one ``Document`` and ``render`` prints it as human
text (default), JSON, or CSV via --format.  Exit codes: 0 on success, 1 on
a domain error (bad parameters, malformed descriptors, or an input past a
documented cost cap), 2 on usage errors.  Any other exception is a bug:
it prints one ``internal error: <type>: <message>`` line and exits 1.
Exact rationals appear in JSON and CSV as "p/q" strings, never as floats.

The grammar is one table, ``_COMMANDS``.  A well-formed argv (the command
words, its positionals, then each of its --flags at most once with a
separate value) is read straight from that table; argparse, built from the
same table, loads only for help, usage errors and argv outside that form.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Sequence
from types import SimpleNamespace

import stci

from .errors import DomainError, ParseError, at_most, echo

FORMATS = ("human", "json", "csv")

# The largest multiplicity n = st/d that `chow expand` and `thm2` accept:
# `chow expand` prints n entries and `thm2` prints n - 1 margins of about n
# bits each.
MAX_N = 256

# Python's default int<->str digit limit (3.10.7 and later), under which
# argv is read; exact results may be longer.
ARGV_DIGITS = 4300


class Document(namedtuple("Document", "human json columns rows")):
    """One command's answer: human text, a JSON value, CSV columns and rows."""

    __slots__ = ()


def _yes_no(value):
    return "yes" if value is True else "no" if value is False else value


def record(fields: dict, inputs: dict | None = None) -> Document:
    """One result: a ``key: value`` line per field (booleans as yes/no), a
    one-row CSV, and a JSON object listing the inputs, then the fields."""
    human = "\n".join(f"{key}: {_yes_no(value)}" for key, value in fields.items())
    return Document(human, (inputs or {}) | fields, list(fields), [list(fields.values())])


def table(columns: Sequence[str], rows: list, line: str, empty: str) -> Document:
    """Rows: ``line.format(*row)`` per row (``empty`` when there are none),
    the CSV header plus the rows, and a JSON list of objects."""
    human = "\n".join(line.format(*row) for row in rows) or empty
    return Document(human, [dict(zip(columns, row)) for row in rows], columns, rows)


def render(doc: Document, fmt: str) -> str:
    """The document as text in one of FORMATS, ending in a newline."""
    if fmt == "human":
        return doc.human + "\n"
    if fmt == "json":
        import json

        return json.dumps(doc.json) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(doc.columns)
        writer.writerows(doc.rows)
        return buf.getvalue()
    raise DomainError(f"unknown format {echo(fmt)}")


# ---------------------------------------------------------------------------
# handlers


_INVARIANTS = ("type", "order", "delta", "sigma", "deficiency")


def _invariant_fields(inv: stci.rdp.Invariants) -> dict:
    type_text = stci.rdp.format_type(inv.type_seq)
    return dict(zip(_INVARIANTS, (type_text, inv.order, str(inv.delta), inv.sigma, inv.deficiency)))


def cmd_rdp_info(args) -> Document:
    return record(_invariant_fields(stci.rdp.scalar_invariants(stci.rdp.classify(args.pair))))


def cmd_rdp_config(args) -> Document:
    return record(_invariant_fields(stci.rdp.config_invariants(stci.rdp.parse_config(args.expr))))


def cmd_phi(args) -> Document:
    n = at_most(args.n, stci.rdp.MAX_INDEX, "phi n", "the work grows with it")
    seq = stci.rdp.phi(n, args.k)
    text = stci.rdp.format_type(seq)
    fields = {"n": args.n, "k": args.k, "phi": text}
    return Document(text, fields, ("i", "p_i"), list(enumerate(seq, 1)))


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers of at most ARGV_DIGITS characters each.

    ``run`` lifts Python's digit limit so that results print exactly; a p
    entry keeps it, as argparse's integers do, because it scales n results.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.strip():
        return ()
    tokens = [tok.strip() for tok in s.split(",")]
    try:
        if max(map(len, tokens)) > ARGV_DIGITS:
            raise ValueError("too many digits")
        return tuple(map(int, tokens))
    except ValueError as exc:
        raise ParseError(f"bad integer list {echo(text)}") from exc


def _max_n(n: int) -> int:
    return at_most(n, MAX_N, "n = st/d", "the work grows with it")


def _inputs(args, n: int) -> dict:
    return {"s": args.s, "t": args.t, "d": args.d, "g": args.g, "n": n}


def cmd_chow_expand(args) -> Document:
    p = _parse_int_list(args.p)
    n = _max_n(stci.chow.multiplicity(args.s, args.t, args.d, args.g))
    p = stci.chow.pad_p(p, n)
    ctx = stci.chow.BlowupContext(args.d, args.g, stci.chow.beta_from_p(args.s, args.d, args.g, p))
    expansion = stci.chow.st_expansion(args.s, args.t, ctx)
    a = expansion.a
    return Document(
        f"h2: {expansion.h2_coeff}\na: ({','.join(map(str, a))})",
        _inputs(args, n) | {"p": list(p), "h2": expansion.h2_coeff, "a": list(a)},
        ("m", "a_m"),
        list(enumerate(a, 1)),
    )


def cmd_thm1(args) -> Document:
    params = stci.theorems.StciParams(args.s, args.t, args.d, args.g)
    result = stci.theorems.thm1_value(params)
    fields = {"value": str(result.value), "integral": result.integral}
    return record(fields, _inputs(args, params.n))


def cmd_thm2(args) -> Document:
    params = stci.theorems.StciParams(args.s, args.t, args.d, args.g)
    _max_n(params.n)
    p = _parse_int_list(args.p)
    margins = stci.theorems.thm2_margins(params, p[: params.n - 1])  # ignores entries past n - 1
    rhs = [stci.theorems.thm2_rhs(params, k) for k in range(1, params.n)]
    sides = {"lhs": [r + m for r, m in zip(rhs, margins)], "rhs": rhs}
    rows = list(zip(range(1, params.n), *sides.values(), margins))
    holds = all(m >= 0 for m in margins)
    lines = ["k={}: lhs {} vs rhs {}  (margin {})".format(*row) for row in rows]
    return Document(
        "\n".join(lines + [f"holds: {_yes_no(holds)}"]),
        _inputs(args, params.n) | {"p": list(p), "margins": list(margins), **sides, "holds": holds},
        ("k", *sides, "margin"),
        rows,
    )


def cmd_thm3(args) -> Document:
    t = stci.rdp.parse_type(args.type)
    result = stci.theorems.thm3_check(args.s, args.d, args.g, t, args.truncate_at)
    inputs = {"s": args.s, "d": args.d, "g": args.g, "type": stci.rdp.format_type(t)}
    return record({"lhs": str(result.lhs), "rhs": str(result.rhs), "holds": result.holds}, inputs)


def cmd_thmA(args) -> Document:
    verdict = stci.theorems.thmA_verdict(args.s, args.t, args.d, args.g)
    return record(verdict._asdict(), {"s": args.s, "t": args.t, "d": args.d, "g": args.g})


def cmd_bound(args) -> Document:
    bound = stci.theorems.resolution_bound(args.s)
    return record({"s": args.s, "bound": bound})._replace(human=str(bound))


def cmd_bungo(args) -> Document:
    rows = [(n, stci.rdp.format_type(seq)) for n, seq in stci.search.bungobungo_solve()]
    return table(("n", "type"), rows, "n={} type={}", "")


def cmd_search_config(args) -> Document:
    target = stci.rdp.parse_type(args.type)
    require_delta = None if args.require_delta is None else stci.exact.parse_rational(args.require_delta)
    budget = None if args.miyaoka_budget is None else stci.exact.parse_rational(args.miyaoka_budget)
    results = stci.search.config_search(
        target,
        max_deficiency=args.max_def,
        require_delta=require_delta,
        max_sigma=args.max_sigma,
        miyaoka_budget_cap=budget,
    )
    if args.contains is not None:
        needle = stci.rdp.classify(args.contains)
        results = [config for config in results if needle in config]
    rows = [
        [stci.rdp.format_config(cfg), *_invariant_fields(stci.rdp.config_invariants(cfg)).values()]
        for cfg in results
    ]
    line = "{0}  order={2} delta={3} sigma={4} deficiency={5}"
    return table(("config", *_INVARIANTS), rows, line, "no configurations")


def cmd_enumerate(args) -> Document:
    records = stci.degrees.enumerate_pairs(args.d, args.g, s_max=args.s_max, t_max=args.t_max)
    rows = [(r.s, r.t, r.n, str(r.p_s), str(r.p_t)) for r in records]
    line = "({},{})  n={}  p_s={}  p_t={}"
    return table(("s", "t", "n", "p_s", "p_t"), rows, line, "no admissible pairs")


# ---------------------------------------------------------------------------
# grammar

_REQUIRED = object()  # the default of a --flag that must be given


def _arg(name: str, kind=str, default=None, help: str | None = None) -> tuple:
    """One argument: a positional name or a --flag; its kind, which is int,
    str, a tuple of choices or bool for a switch; its default (positionals
    are always required); its help text."""
    return name, kind, default, help


_S, _T, _D = (_arg(f"--{name}", int, _REQUIRED) for name in "std")
_G = _arg("--g", int, 0)
_FORMAT = _arg("--format", FORMATS, "human", "output format (default: human)")

# The whole CLI grammar, in help order: command words -> (help line,
# arguments, handler); a group of subcommands has neither arguments nor
# handler.  build_parser and _read_strict both read it.
_COMMANDS = {
    ("rdp",): ("pair and configuration invariants", (), None),
    ("rdp", "info"): (
        "invariants of one classified pair",
        (_arg("pair", help='descriptor like "A:10:4", "Dn:7", "E6"'), _FORMAT),
        cmd_rdp_info,
    ),
    ("rdp", "config"): (
        "invariants of a configuration",
        (_arg("expr", help='descriptor like "8*A:2:1 + A:3:1"'), _FORMAT),
        cmd_rdp_config,
    ),
    ("phi",): ("A-series type sequence", (_arg("n", int), _arg("k", int), _FORMAT), cmd_phi),
    ("chow",): ("blowup intersection arithmetic", (), None),
    ("chow", "expand"): (
        "expand the surface product over the ruling basis",
        (_S, _T, _D, _G, _arg("--p", str, _REQUIRED, 'comma list like "8,8,8"'), _FORMAT),
        cmd_chow_expand,
    ),
    ("thm1",): (
        "common ruling count for disjoint singular loci", (_S, _T, _D, _G, _FORMAT), cmd_thm1
    ),
    ("thm2",): (
        "margins of the dyadic inequality family",
        (_S, _T, _D, _G, _FORMAT, _arg("--p", str, _REQUIRED, 'prefix like "8,8,8"')),
        cmd_thm2,
    ),
    ("thm3",): (
        "weighted type sum against the delta bound",
        (
            _S, _D, _G,
            _arg("--type", str, _REQUIRED, 'type like "(9,9)"'),
            _arg("--truncate-at", int),
            _FORMAT,
        ),
        cmd_thm3,
    ),
    ("thmA",): (
        "whether the degree bound forces d <= g+3", (_S, _T, _D, _G, _FORMAT), cmd_thmA
    ),
    ("bound",): ("resolution curve-count bound", (_arg("s", int), _FORMAT), cmd_bound),
    ("bungo",): ("solve the quartic type constraints", (_FORMAT,), cmd_bungo),
    ("search-config",): (
        "configurations with a given type",
        (
            _arg("--type", str, _REQUIRED, 'target type like "(9,9,1)"'),
            _arg(
                "--max-def", int,
                help="keep configs whose deficiency (sigma minus the target's sum) is at most this",
            ),
            _arg("--max-sigma", int, help="total sigma cap (default 19, at most 30)"),
            _arg(
                "--require-delta",
                help='keep configs whose delta is exactly this rational, like "6" or "73/12"',
            ),
            _arg(
                "--miyaoka-budget",
                help="keep A-series configs whose contributions sum to at most this rational",
            ),
            _arg("--contains", help="keep configs containing this pair"),
            _FORMAT,
        ),
        cmd_search_config,
    ),
    ("enumerate",): (
        "admissible surface degree pairs",
        (
            _arg("--d", int, _REQUIRED),
            _G,
            _arg("--one-sided", bool, False, "no effect: the s-orientation implies the t-orientation"),
            _arg("--s-max", int),
            _arg("--t-max", int),
            _FORMAT,
        ),
        cmd_enumerate,
    ),
}


def _dest(name: str) -> str:
    """The namespace attribute argparse derives from an argument's name."""
    return name.removeprefix("--").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the grammar; it writes every help, usage and
    error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="stci",
        description="Exact invariants of rational double point pairs, iterated "
        "blowup intersection arithmetic, and degree-pair enumeration.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (help_line, arguments, handler) in _COMMANDS.items():
        sub = groups[path[:-1]].add_parser(path[-1], help=help_line)
        if handler is None:
            groups[path] = sub.add_subparsers(dest=f"{path[-1]}_command", required=True)
            continue
        for name, kind, default, help_text in arguments:
            options = {"help": help_text}
            if kind is bool:
                options["action"] = "store_true"
            elif kind is int:
                options["type"] = int
            elif kind is not str:
                options["choices"] = kind
            if name.startswith("--"):
                if default is _REQUIRED:
                    options["required"] = True
                else:
                    options["default"] = default
            sub.add_argument(name, **options)
        sub.set_defaults(handler=handler)
    return parser


def _value(kind, text: str | None):
    """One argument's value as argparse reads it; ValueError for a missing
    value or one outside the strict form."""
    if kind is bool:
        return True
    if text is None or text.startswith("-"):
        raise ValueError(text)
    if kind is int:
        return int(text)
    if kind is not str and text not in kind:
        raise ValueError(text)
    return text


def _read_strict(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse builds from argv in the strict form, or None.

    The strict form is the command words, then the command's positionals in
    order, then each of its exact --flags at most once, each followed by a
    value that does not start with "-".  Anything else, help included, is
    left to argparse.
    """
    depth = 1
    command = _COMMANDS.get(tuple(argv[:1]))
    if command is not None and command[2] is None:  # a group: one more word
        depth = 2
        command = _COMMANDS.get(tuple(argv[:2]))
    if command is None or command[2] is None:
        return None
    _, arguments, handler = command
    names = {"command": argv[0]}
    if depth == 2:
        names[f"{argv[0]}_command"] = argv[1]
    flags = {arg[0]: arg for arg in arguments if arg[0].startswith("--")}
    tokens = iter(argv[depth:])
    given = [(arg, next(tokens, None)) for arg in arguments if arg[0] not in flags]
    for token in tokens:
        arg = flags.pop(token, None)
        if arg is None:
            return None
        given.append((arg, None if arg[1] is bool else next(tokens, None)))
    values = {_dest(name): default for name, _, default, _ in flags.values()}
    if _REQUIRED in values.values():
        return None
    try:
        values.update((_dest(name), _value(kind, text)) for (name, kind, _, _), text in given)
    except ValueError:
        return None
    return SimpleNamespace(**names, **values, handler=handler)


def _set_int_digits(limit: int) -> int:
    """Set the int<->str digit limit (0: none) and return the old one; a
    no-op before Python 3.10.7, which has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return old


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute, print, and return the exit code.

    While it runs it lifts the process-wide int<->str digit limit, so it is
    not safe to call from two threads at once: one can restore the limit
    while the other still prints a longer result.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_strict(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    limit = _set_int_digits(0)
    try:
        text = render(args.handler(args), args.format)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    finally:
        _set_int_digits(limit)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(run())
