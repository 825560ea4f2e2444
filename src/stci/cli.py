"""Command-line frontend.

Each subcommand computes one result document and renders it as human text
(default), JSON, or CSV via --format.  Exit codes: 0 on success, 1 on a
domain error (bad parameters, malformed descriptors), 2 on usage errors.
Exact rationals appear in JSON and CSV as "p/q" strings, never as floats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from . import chow, degrees, rdp, theorems
from .errors import DomainError, ParseError
from .exact import format_rational, parse_rational

Document = dict


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render(doc: Document, fmt: str) -> str:
    if fmt == "human":
        return doc["human"] if doc["human"].endswith("\n") else doc["human"] + "\n"
    if fmt == "json":
        return json.dumps(doc["json"]) + "\n"
    if fmt == "csv":
        header, rows = doc["csv"]
        return _csv_text(header, rows)
    raise DomainError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# handlers


def _invariants_doc(type_seq, order, delta, sigma, deficiency) -> Document:
    type_text = rdp.format_type(type_seq)
    delta_text = format_rational(delta)
    obj = {
        "type": type_text,
        "order": order,
        "delta": delta_text,
        "sigma": sigma,
        "deficiency": deficiency,
    }
    human = "\n".join(
        [
            f"type: {type_text}",
            f"order: {order}",
            f"delta: {delta_text}",
            f"sigma: {sigma}",
            f"deficiency: {deficiency}",
        ]
    )
    rows = [[type_text, order, delta_text, sigma, deficiency]]
    return {
        "human": human,
        "json": obj,
        "csv": (["type", "order", "delta", "sigma", "deficiency"], rows),
    }


def cmd_rdp_info(args) -> Document:
    pair = rdp.classify(args.pair)
    inv = rdp.scalar_invariants(pair)
    return _invariants_doc(
        rdp.type_of(pair), inv.order, inv.delta, inv.sigma, inv.deficiency
    )


def cmd_rdp_config(args) -> Document:
    config = rdp.parse_config(args.expr)
    inv = rdp.config_invariants(config)
    return _invariants_doc(
        inv.type_seq, inv.order, inv.delta, inv.sigma, inv.deficiency
    )


def cmd_phi(args) -> Document:
    seq = rdp.phi(args.n, args.k)
    text = rdp.format_type(seq)
    return {
        "human": text,
        "json": {"n": args.n, "k": args.k, "phi": text},
        "csv": (["i", "p_i"], [[i + 1, p] for i, p in enumerate(seq)]),
    }


def _parse_int_list(text: str) -> tuple[int, ...]:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.strip():
        return ()
    try:
        return tuple(int(tok.strip()) for tok in s.split(","))
    except ValueError as exc:
        raise ParseError(f"bad integer list {text!r}") from exc


def cmd_chow_expand(args) -> Document:
    p = _parse_int_list(args.p)
    n = chow.multiplicity(args.s, args.t, args.d, args.g)
    if len(p) > n:
        raise DomainError(f"p has {len(p)} entries but n = {n}")
    p = p + (0,) * (n - len(p))
    ctx = chow.make_context(args.d, args.g, chow.beta_from_p(args.s, args.d, args.g, p))
    expansion = chow.st_expansion(args.s, args.t, ctx)
    a_text = "(" + ",".join(str(v) for v in expansion.a) + ")"
    return {
        "human": f"h2: {expansion.h2_coeff}\na: {a_text}",
        "json": {
            "s": args.s,
            "t": args.t,
            "d": args.d,
            "g": args.g,
            "n": n,
            "p": list(p),
            "h2": expansion.h2_coeff,
            "a": list(expansion.a),
        },
        "csv": (["m", "a_m"], [[m + 1, v] for m, v in enumerate(expansion.a)]),
    }


def _input_fields(params: theorems.StciParams) -> dict:
    return {"s": params.s, "t": params.t, "d": params.d, "g": params.g, "n": params.n}


def cmd_thm1(args) -> Document:
    params = theorems.StciParams(args.s, args.t, args.d, args.g)
    result = theorems.thm1_value(params)
    value_text = format_rational(result.value)
    human = f"value: {value_text}\nintegral: {'yes' if result.integral else 'no'}"
    return {
        "human": human,
        "json": _input_fields(params)
        | {"value": value_text, "integral": result.integral},
        "csv": (["value", "integral"], [[value_text, result.integral]]),
    }


def cmd_thm2(args) -> Document:
    params = theorems.StciParams(args.s, args.t, args.d, args.g)
    p = _parse_int_list(args.p)
    margins = theorems.thm2_margins(params, p)
    rhs = [theorems.thm2_rhs(params, k) for k in range(1, params.n)]
    lhs = [rhs[k] + margins[k] for k in range(len(margins))]
    lines = [
        f"k={k + 1}: lhs {lhs[k]} vs rhs {rhs[k]}  (margin {margins[k]})"
        for k in range(len(margins))
    ]
    lines.append("holds: " + ("yes" if all(m >= 0 for m in margins) else "no"))
    return {
        "human": "\n".join(lines),
        "json": _input_fields(params)
        | {
            "p": list(p),
            "margins": list(margins),
            "lhs": lhs,
            "rhs": rhs,
            "holds": all(m >= 0 for m in margins),
        },
        "csv": (
            ["k", "lhs", "rhs", "margin"],
            [[k + 1, lhs[k], rhs[k], margins[k]] for k in range(len(margins))],
        ),
    }


def cmd_thm3(args) -> Document:
    t = rdp.parse_type(args.type)
    result = theorems.thm3_check(args.s, args.d, args.g, t, args.truncate_at)
    lhs, rhs = format_rational(result.lhs), format_rational(result.rhs)
    human = f"lhs: {lhs}\nrhs: {rhs}\nholds: {'yes' if result.holds else 'no'}"
    return {
        "human": human,
        "json": {
            "s": args.s,
            "d": args.d,
            "g": args.g,
            "type": rdp.format_type(t),
            "lhs": lhs,
            "rhs": rhs,
            "holds": result.holds,
        },
        "csv": (["lhs", "rhs", "holds"], [[lhs, rhs, result.holds]]),
    }


def cmd_bound(args) -> Document:
    bound = theorems.resolution_bound(args.s)
    return {
        "human": str(bound),
        "json": {"s": args.s, "bound": bound},
        "csv": (["s", "bound"], [[args.s, bound]]),
    }


def cmd_bungo(args) -> Document:
    solutions = theorems.bungobungo_solve()
    rows = [[n, rdp.format_type(seq)] for n, seq in solutions]
    human = "\n".join(f"n={n} type={text}" for n, text in rows)
    return {
        "human": human,
        "json": [{"n": n, "type": text} for n, text in rows],
        "csv": (["n", "type"], rows),
    }


def cmd_search_config(args) -> Document:
    target = rdp.parse_type(args.type)
    require_delta = parse_rational(args.require_delta) if args.require_delta else None
    budget = parse_rational(args.miyaoka_budget) if args.miyaoka_budget else None
    results = theorems.config_search(
        target,
        max_deficiency=args.max_def,
        require_delta=require_delta,
        max_sigma=args.max_sigma,
        miyaoka_budget_cap=budget,
    )
    if args.contains:
        needle = rdp.classify(args.contains)
        results = [config for config in results if needle in config]
    entries = []
    for config in results:
        inv = rdp.config_invariants(config)
        entries.append(
            {
                "config": rdp.format_config(config),
                "type": rdp.format_type(inv.type_seq),
                "order": inv.order,
                "delta": format_rational(inv.delta),
                "sigma": inv.sigma,
                "deficiency": inv.deficiency,
            }
        )
    human = "\n".join(
        f"{e['config']}  order={e['order']} delta={e['delta']} "
        f"sigma={e['sigma']} deficiency={e['deficiency']}"
        for e in entries
    ) or "no configurations"
    return {
        "human": human,
        "json": entries,
        "csv": (
            ["config", "type", "order", "delta", "sigma", "deficiency"],
            [
                [e["config"], e["type"], e["order"], e["delta"], e["sigma"], e["deficiency"]]
                for e in entries
            ],
        ),
    }


def cmd_enumerate(args) -> Document:
    records = degrees.enumerate_pairs(
        args.d,
        args.g,
        s_max=args.s_max,
        t_max=args.t_max,
    )
    rows = [
        [rec.s, rec.t, rec.n, format_rational(rec.p_s), format_rational(rec.p_t)]
        for rec in records
    ]
    human = "\n".join(
        f"({rec.s},{rec.t})  n={rec.n}  p_s={format_rational(rec.p_s)}  "
        f"p_t={format_rational(rec.p_t)}"
        for rec in records
    ) or "no admissible pairs"
    return {
        "human": human,
        "json": [
            {"s": r[0], "t": r[1], "n": r[2], "p_s": r[3], "p_t": r[4]} for r in rows
        ],
        "csv": (["s", "t", "n", "p_s", "p_t"], rows),
    }


# ---------------------------------------------------------------------------
# parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["human", "json", "csv"],
        default="human",
        help="output format (default: human)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stci",
        description="Exact invariants of rational double point pairs, iterated "
        "blowup intersection arithmetic, and degree-pair enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rdp_parser = sub.add_parser("rdp", help="pair and configuration invariants")
    rdp_sub = rdp_parser.add_subparsers(dest="rdp_command", required=True)

    info = rdp_sub.add_parser("info", help="invariants of one classified pair")
    info.add_argument("pair", help='descriptor like "A:10:4", "Dn:7", "E6"')
    _add_format(info)
    info.set_defaults(handler=cmd_rdp_info)

    config = rdp_sub.add_parser("config", help="invariants of a configuration")
    config.add_argument("expr", help='descriptor like "8*A:2:1 + A:3:1"')
    _add_format(config)
    config.set_defaults(handler=cmd_rdp_config)

    phi_parser = sub.add_parser("phi", help="A-series type sequence")
    phi_parser.add_argument("n", type=int)
    phi_parser.add_argument("k", type=int)
    _add_format(phi_parser)
    phi_parser.set_defaults(handler=cmd_phi)

    chow_parser = sub.add_parser("chow", help="blowup intersection arithmetic")
    chow_sub = chow_parser.add_subparsers(dest="chow_command", required=True)
    expand = chow_sub.add_parser(
        "expand", help="expand the surface product over the ruling basis"
    )
    for flag in ("--s", "--t", "--d"):
        expand.add_argument(flag, type=int, required=True)
    expand.add_argument("--g", type=int, default=0)
    expand.add_argument("--p", required=True, help='comma list like "8,8,8"')
    _add_format(expand)
    expand.set_defaults(handler=cmd_chow_expand)

    thm1 = sub.add_parser("thm1", help="common ruling count for disjoint singular loci")
    thm2 = sub.add_parser("thm2", help="margins of the dyadic inequality family")
    thm3 = sub.add_parser("thm3", help="weighted type sum against the delta bound")
    for p in (thm1, thm2):
        for flag in ("--s", "--t", "--d"):
            p.add_argument(flag, type=int, required=True)
        p.add_argument("--g", type=int, default=0)
        _add_format(p)
    thm2.add_argument("--p", required=True, help='prefix like "8,8,8"')
    thm1.set_defaults(handler=cmd_thm1)
    thm2.set_defaults(handler=cmd_thm2)
    for flag in ("--s", "--d"):
        thm3.add_argument(flag, type=int, required=True)
    thm3.add_argument("--g", type=int, default=0)
    thm3.add_argument("--type", required=True, help='type like "(9,9)"')
    thm3.add_argument("--truncate-at", type=int, default=None, dest="truncate_at")
    _add_format(thm3)
    thm3.set_defaults(handler=cmd_thm3)

    bound = sub.add_parser("bound", help="resolution curve-count bound")
    bound.add_argument("s", type=int)
    _add_format(bound)
    bound.set_defaults(handler=cmd_bound)

    bungo = sub.add_parser("bungo", help="solve the quartic type constraints")
    _add_format(bungo)
    bungo.set_defaults(handler=cmd_bungo)

    search = sub.add_parser("search-config", help="configurations with a given type")
    search.add_argument("--type", required=True, help='target type like "(9,9,1)"')
    search.add_argument("--max-def", type=int, default=None, dest="max_def")
    search.add_argument(
        "--max-sigma", type=int, default=None, dest="max_sigma",
        help=f"total sigma cap (default 19, at most {theorems.MAX_SIGMA_CAP})",
    )
    search.add_argument("--require-delta", default=None, dest="require_delta")
    search.add_argument("--miyaoka-budget", default=None, dest="miyaoka_budget")
    search.add_argument("--contains", default=None, help="keep configs containing this pair")
    _add_format(search)
    search.set_defaults(handler=cmd_search_config)

    enum = sub.add_parser("enumerate", help="admissible surface degree pairs")
    enum.add_argument("--d", type=int, required=True)
    enum.add_argument("--g", type=int, default=0)
    enum.add_argument(
        "--one-sided", action="store_true", dest="one_sided",
        help="no effect: the s-orientation implies the t-orientation",
    )
    enum.add_argument("--s-max", type=int, default=None, dest="s_max")
    enum.add_argument("--t-max", type=int, default=None, dest="t_max")
    _add_format(enum)
    enum.set_defaults(handler=cmd_enumerate)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute, print, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc = args.handler(args)
        text = render(doc, args.format)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
