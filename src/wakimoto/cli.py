"""Command-line front end.

Subcommands: realize (emit the differential and free-field realization),
verify (run verification suites), screen (build and check screening
currents), ope (ad-hoc operator products in a small expression grammar).

Exit codes: 0 every check run passed (a suite that could not run a requested
check reports "incomplete"), 1 a mathematical verification failed,
2 input or configuration error, 141 (128 + SIGPIPE) the reader of stdout
went away before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .coeffs import RatFunc
from .currents import CurrentSet, sugawara_tensor, sweep_route, verify_current_algebra
from .diffop import verify_realization
from .fields import PHI, FieldExpr, UnsupportedContraction, beta_kind, expand_power_levels, gamma_kind
from .liealg import CartanTypeError, get_algebra, verify_jacobi
from .ope import OpeResult, central_charge, contract, free_field_tensor
from .render import (
    SCHEMA_REALIZATION,
    SCHEMA_REPORT,
    diffop_to_json,
    fieldexpr_to_json,
    latex_diffop,
    latex_fieldexpr,
    ope_to_json,
    poly_to_json,
)
from .screening import (
    DirectionError,
    first_kind,
    naive_second_kind_failure,
    second_kind,
    second_kind_mult_one,
    verify,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141


class InputError(ValueError):
    pass


def _load(selector: str) -> CurrentSet:
    """The algebra of ``selector``; each suite builds the stages it reads."""
    return CurrentSet(*get_algebra(selector))


def _direction_index(cs: CurrentSet, direction: int) -> int:
    """0-based simple-root index of a 1-based ``--direction``."""
    if not 1 <= direction <= cs.rs.rank:
        raise InputError(f"--direction {direction} is outside 1..{cs.rs.rank}")
    return direction - 1


# ---------------------------------------------------------------------------
# expression grammar for `ope`
# ---------------------------------------------------------------------------
#
#   expr    := term (('+'|'-') term)*
#   term    := factor ('*' factor)*
#   factor  := NUMBER | NUMBER '/' NUMBER | atom | '(' expr ')' | '-' factor
#   atom    := NAME '[' label ']' | 'T' | 'Tfree' | 'd(' expr ')'
#   NAME    := E | H | F | beta | gamma | b | c | dphi | s | stilde
#
# Root labels: a simple-root index ("1"; any digit string shorter than the
# rank), a coefficient digit string with one digit per simple root ("11",
# "12"), "theta", or any of these after an "alpha" prefix ("alpha1").

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+\d*|\[|\]|\(|\)|\+|-|\*|/)")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"parse error at position {pos}: {text[pos:pos + 10]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _root_position(cs: CurrentSet, label: str) -> int:
    """Position of the positive root a label names (grammar comment above)."""
    rs = cs.rs
    name = label.strip().lower().removeprefix("alpha")
    if name == "theta":
        return rs.root_index(rs.theta)
    if name.isdigit() and len(name) <= rs.rank:
        if len(name) == rs.rank:
            root = tuple(int(ch) for ch in name)
        else:
            root = tuple(int(i == int(name) - 1) for i in range(rs.rank))
        if root in rs.pos_roots:
            return rs.root_index(root)
    raise InputError(f"unknown root label {label!r}")


def _index(cs: CurrentSet, name: str, label: str) -> int:
    """0-based index of the 1-based label of ``H``, ``dphi``, ``s`` or ``stilde``."""
    if not label.isdigit() or not 1 <= int(label) <= cs.rs.rank:
        raise InputError(f"{name}[{label}]: the index must be an integer in 1..{cs.rs.rank}")
    return int(label) - 1


MAX_NESTING = 100  # the deepest nesting of '(', 'd(' and unary '-' that `ope` parses


class _Parser:
    def __init__(self, cs: CurrentSet, text: str):
        self.cs = cs
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def nested(self, parse) -> FieldExpr:
        """``parse()`` one nesting level deeper; refuses input nested beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise InputError(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise InputError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> FieldExpr:
        out = self.expr()
        if self.peek() is not None:
            raise InputError(f"trailing input from token {self.pos}: {self.peek()!r}")
        return out

    def expr(self) -> FieldExpr:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> FieldExpr:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> FieldExpr:
        tok = self.peek()
        if tok == "-":
            self.take()
            return self.nested(self.factor).scale(-1)
        if tok == "(":
            self.take()
            out = self.nested(self.expr)
            self.take(")")
            return out
        if tok is not None and tok.isdigit():
            self.take()
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den_tok = self.take()
                if not den_tok.isdigit():
                    raise InputError(f"expected a denominator after '/', found {den_tok!r}")
                den = int(den_tok)
                if den == 0:
                    raise InputError(f"division by zero in {num}/0")
                return FieldExpr.const(Fraction(num, den))
            return FieldExpr.const(num)
        return self.atom()

    def atom(self) -> FieldExpr:
        cs = self.cs
        name = self.take()
        if name == "d":
            self.take("(")
            inner = self.nested(self.expr)
            self.take(")")
            return inner.derivative(cs.rs)
        if name == "T":
            return sugawara_tensor(cs)
        if name == "Tfree":
            return free_field_tensor(cs.rs)
        self.take("[")
        label = self.take()
        self.take("]")
        if name in ("E", "F"):
            pos = _root_position(cs, label)
            return cs.current(("e" if name == "E" else "f", cs.rs.pos_roots[pos]))
        if name == "H":
            return cs.current(("h", _index(cs, name, label)))
        if name in ("beta", "gamma", "b", "c"):
            pos = _root_position(cs, label)
            kind = beta_kind(cs.rs, pos) if name in ("beta", "b") else gamma_kind(cs.rs, pos)
            return FieldExpr.prim(kind, pos)
        if name == "dphi":
            return FieldExpr.prim(PHI, _index(cs, name, label))
        if name == "s":
            return first_kind(cs, _index(cs, name, label)).expr
        if name == "stilde":
            j = _index(cs, name, label)
            # a series current is no expression: second_kind_mult_one refuses its direction
            return (second_kind if cs.rs.theta[j] == 1 else second_kind_mult_one)(cs, j).expr
        raise InputError(f"unknown generator {name!r}")


def parse_expression(cs: CurrentSet, text: str) -> FieldExpr:
    return _Parser(cs, text).parse()


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _jacobi_suite(cs: CurrentSet, direction: Optional[int]):
    bad = verify_jacobi(cs.tab)
    return not bad, {"triples": len(cs.tab.basis()) ** 3, "violations": [str(t) for t in bad]}


def _realization_suite(cs: CurrentSet, direction: Optional[int]):
    if cs.ops is None:
        return True, {"skipped": "differential realization covers the bosonic algebras"}
    bad = verify_realization(cs.ops, cs.tab)
    return not bad, {"pairs": len(cs.ops) ** 2, "violations": [str(t) for t in bad]}


def _currents_suite(cs: CurrentSet, direction: Optional[int]):
    bad = verify_current_algebra(cs)
    det = [{"pair": str(v.pair), "order": v.order, "diff": v.detail} for v in bad]
    return not det, {"pairs": len(cs.labels()) ** 2, "route": sweep_route(cs), "violations": det}


def _sugawara_suite(cs: CurrentSet, direction: Optional[int]):
    T = sugawara_tensor(cs)
    Tfree = free_field_tensor(cs.rs)
    ok = T.equals(Tfree)
    c_got = central_charge(cs.rs, Tfree)
    details = {"sugawara_equals_free": ok, "central_charge": c_got.text()}
    if cs.rs.bosonic:
        c_want = RatFunc.k() * cs.rs.dim / RatFunc.t(cs.rs.hvee)
        details["central_charge_ok"] = c_got == c_want
        ok = ok and c_got == c_want
    return ok, details


def _screening_suite(cs: CurrentSet, directions, construct):
    """Verify the current ``construct(cs, j)`` of each direction j; a
    direction without a construction is reported "unavailable"."""
    results = {}
    ok = True
    for j in directions:
        try:
            rep = verify(cs, construct(cs, j))
        except DirectionError as exc:
            results[str(j + 1)] = {"status": "unavailable", "reason": str(exc)}
            continue
        results[str(j + 1)] = _report_json(cs, rep)
        ok = ok and rep.ok
    return ok, results


def _screening_first_suite(cs: CurrentSet, direction: Optional[int]):
    if not cs.rs.bosonic:
        return True, {"skipped": "first-kind suite covers the bosonic algebras"}
    return _screening_suite(cs, [direction] if direction is not None else range(cs.rs.rank), first_kind)


def _screening_second_suite(cs: CurrentSet, direction: Optional[int]):
    # the osp(2|2) fixture has its one current in direction 1
    every = range(cs.rs.rank) if cs.rs.bosonic else [0]
    return _screening_suite(cs, [direction] if direction is not None else every, second_kind)


def _naive_second_kind_suite(cs: CurrentSet, direction: Optional[int]):
    fail = naive_second_kind_failure(cs, direction if direction is not None else 1)
    return (
        fail.nonvanishing and fail.matches_expected_shape,
        {
            "third_order_pole": fail.third_order_pole.text(cs.rs),
            "matches_expected_shape": fail.matches_expected_shape,
            "note": "a nonvanishing third-order pole is the expected outcome",
        },
    )


# `--suite all` runs them in this order, all but the negative control naive-second-kind
SUITES = {
    "jacobi": _jacobi_suite,
    "realization": _realization_suite,
    "currents": _currents_suite,
    "sugawara": _sugawara_suite,
    "screening-first": _screening_first_suite,
    "screening-second": _screening_second_suite,
    "naive-second-kind": _naive_second_kind_suite,
}
ALL_SUITES = [name for name in SUITES if name != "naive-second-kind"]


def run_suite(cs: CurrentSet, suite: str, direction: Optional[int]):
    """Returns (ok, details dict)."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}")
    return SUITES[suite](cs, direction)


def _suite_status(ok: bool, details: dict) -> str:
    """"fail" if a check failed; "incomplete" if every check passed but a
    requested one was unavailable; "pass" otherwise."""
    if not ok:
        return "fail"
    if any(isinstance(v, dict) and v.get("status") == "unavailable" for v in details.values()):
        return "incomplete"
    return "pass"


def _label_name(cs: CurrentSet, label) -> str:
    """E[root], F[root], H[i] or T, as the expression grammar spells them."""
    kind, arg = label
    if kind == "h":
        return f"H[{arg + 1}]"
    if kind in ("e", "f"):
        return ("E" if kind == "e" else "F") + f"[{cs.rs.root_name(arg)}]"
    return "T"


def _report_json(cs: CurrentSet, rep):
    out = {}
    for c in rep.checks:
        entry = {"status": "ok" if c.ok else "fail"}
        if c.witness_text:
            entry["witness"] = c.witness_text
        if c.detail:
            entry["detail"] = c.detail
        out[_label_name(cs, c.label)] = entry
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_realize(args) -> int:
    cs = _load(args.algebra)
    rs = cs.rs
    names = {label: _label_name(cs, label) for label in cs.labels()}
    if args.format == "json":
        data = {
            "schema": SCHEMA_REALIZATION,
            "algebra": rs.name,
            "positive_roots": [list(a) for a in rs.pos_roots],
            "dual_coxeter": rs.hvee,
            "dimension": rs.dim,
            "currents": {
                names[lab]: fieldexpr_to_json(expr) for lab, expr in cs.currents.items()
            },
        }
        if cs.ops is not None:
            data["differential_operators"] = {
                names[lab]: diffop_to_json(op) for lab, op in cs.ops.items()
            }
        if cs.polys is not None:
            rnames = [rs.root_name(a) for a in rs.pos_roots]
            cnames = [str(i + 1) for i in range(rs.rank)]
            polys = cs.polys

            def fam(rows, row_names, col_names):
                return {
                    rn: {cn: poly_to_json(p) for cn, p in zip(col_names, row) if not p.is_zero}
                    for rn, row in zip(row_names, rows)
                }

            data["polynomials"] = {
                "V_plus": fam(polys.V_plus, rnames, rnames),
                "V_cartan": fam(polys.V_cartan, cnames, rnames),
                "V_minus": fam(polys.V_minus, rnames, rnames),
                "P": fam(polys.P, rnames, cnames),
                "Q": fam(polys.Q, rnames, rnames),
                "S": fam(polys.S, rnames, rnames),
            }
        print(json.dumps(data, indent=2, sort_keys=True))
    elif args.format == "latex":
        lines = []
        if cs.ops is not None:
            lines.append("% differential operator realization")
            for lab, op in cs.ops.items():
                lines.append(f"{names[lab]} &= {latex_diffop(op)} \\\\")
        lines.append("% free-field currents")
        for lab, expr in cs.currents.items():
            lines.append(f"{names[lab]} &= {latex_fieldexpr(expr, cs.rs)} \\\\")
        print("\n".join(lines))
    else:
        for lab, expr in cs.currents.items():
            print(f"{names[lab]} = {expr.text(cs.rs)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cs = _load(args.algebra)
    suites = ALL_SUITES if args.suite == "all" else [args.suite]
    direction = _direction_index(cs, args.direction) if args.direction is not None else None
    report = {}
    ok = True
    for suite in suites:
        sok, details = run_suite(cs, suite, direction)
        report[suite] = {"status": _suite_status(sok, details), "details": details}
        ok = ok and sok
    signs = {",".join(map(str, root)): sign for root, sign in cs.tab.signs.items()}
    out = {"schema": SCHEMA_REPORT, "algebra": cs.rs.name, "extraspecial_signs": signs, "suites": report}
    if args.format == "json":
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for suite, entry in report.items():
            print(f"{suite}: {entry['status']}")
            if entry["status"] == "fail":
                print("  " + json.dumps(entry["details"], sort_keys=True)[:400])
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_screen(args) -> int:
    cs = _load(args.algebra)
    j = _direction_index(cs, args.direction)
    s = first_kind(cs, j) if args.kind == "first" else second_kind(cs, j)
    rep = verify(cs, s) if args.verify else None
    data = {
        "schema": SCHEMA_REPORT,
        "algebra": cs.rs.name,
        "kind": s.kind,
        "direction": args.direction,
        "current": (
            latex_fieldexpr(s.body, cs.rs) if args.format == "latex" else s.body.text(cs.rs)
        ),
        "series": s.is_series,
    }
    if rep is not None:
        data["checks"] = _report_json(cs, rep)
        data["status"] = "pass" if rep.ok else "fail"
    print(json.dumps(data, indent=2, sort_keys=True))
    if rep is not None and not rep.ok:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_ope(args) -> int:
    cs = _load(args.algebra)
    A = parse_expression(cs, args.left)
    B = parse_expression(cs, args.right)
    # each pole in its level-expanded form, the one that equal poles share
    res = OpeResult({q: expand_power_levels(p) for q, p in contract(cs.rs, A, B).poles.items()})
    if args.format == "json":
        print(json.dumps(ope_to_json(res, cs.rs), indent=2, sort_keys=True))
    else:
        if not res.nonzero_orders():
            print("regular")
        for q in res.nonzero_orders():
            body = (
                latex_fieldexpr(res.order(q), cs.rs)
                if args.format == "latex"
                else res.order(q).text(cs.rs)
            )
            print(f"pole {q}: {body}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wakimoto",
        description="Free-field realizations of affine current algebras and their screening currents.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "latex")):
        p.add_argument("--algebra", default="B2", help="A1/A2/B2/..., OSP22, or a Cartan JSON path")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("realize", help="emit the realization")
    common(p)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, ("text", "json"))
    p.add_argument("--suite", default="all", choices=("all", *SUITES))
    p.add_argument("--direction", type=int, default=None, help="simple-root index (1-based)")
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="accepted for compatibility and checked; every suite runs in one process",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("screen", help="build or verify a screening current")
    common(p, ("json", "latex"))
    p.add_argument("--direction", type=int, required=True)
    p.add_argument("--kind", choices=("first", "second"), default="first")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_screen)

    p = sub.add_parser("ope", help="operator product of two expressions")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_ope)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a closed stdout is not bad input; send the unwritten rest nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (InputError, CartanTypeError, DirectionError, UnsupportedContraction, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
