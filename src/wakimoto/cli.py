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
from .currents import CurrentSet, check_pair, sugawara_tensor, verify_current_algebra
from .diffop import verify_realization
from .fields import PHI, FieldExpr, UnsupportedContraction
from .liealg import CartanTypeError, get_algebra, verify_jacobi
from .ope import central_charge, contract, free_field_tensor
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
# Root labels: a simple-root index ("1"), a coefficient digit string
# ("11", "12"), "theta", or "alphaN" forms of the same.

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\[|\]|\(|\)|\+|-|\*|/)")


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
    rs = cs.rs
    label = label.strip().lower()
    if label.startswith("alpha"):
        label = label[5:]
    if label == "theta":
        return rs.root_index(rs.theta)
    if label.isdigit():
        if len(label) == 1 and 1 <= int(label) <= rs.rank:
            root = tuple(1 if i == int(label) - 1 else 0 for i in range(rs.rank))
            return rs.root_index(root)
        if len(label) == rs.rank:
            root = tuple(int(ch) for ch in label)
            if rs.is_root(root) and all(c >= 0 for c in root):
                return rs.root_index(root)
    raise InputError(f"unknown root label {label!r}")


def _index(cs: CurrentSet, name: str, label: str) -> int:
    """0-based index of the 1-based label of ``H``, ``dphi``, ``s`` or ``stilde``."""
    if not label.isdigit() or not 1 <= int(label) <= cs.rs.rank:
        raise InputError(f"{name}[{label}]: the index must be an integer in 1..{cs.rs.rank}")
    return int(label) - 1


class _Parser:
    def __init__(self, cs: CurrentSet, text: str):
        self.cs = cs
        self.toks = _tokenize(text)
        self.pos = 0

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
            return self.factor().scale(-1)
        if tok == "(":
            self.take()
            out = self.expr()
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
            inner = self.expr()
            self.take(")")
            return inner.derivative(cs.ctx)
        if name == "T":
            return sugawara_tensor(cs)
        if name == "Tfree":
            return free_field_tensor(cs.ctx)
        self.take("[")
        label = self.take()
        self.take("]")
        if name in ("E", "F"):
            pos = _root_position(cs, label)
            return cs.currents[("e" if name == "E" else "f", cs.rs.pos_roots[pos])]
        if name == "H":
            return cs.currents[("h", _index(cs, name, label))]
        if name in ("beta", "gamma", "b", "c"):
            pos = _root_position(cs, label)
            kind = cs.ctx.beta_kind(pos) if name in ("beta", "b") else cs.ctx.gamma_kind(pos)
            return FieldExpr.prim(kind, pos)
        if name == "dphi":
            return FieldExpr.prim(PHI, _index(cs, name, label))
        if name == "s":
            return first_kind(cs, _index(cs, name, label)).expr
        if name == "stilde":
            return second_kind_mult_one(cs, _index(cs, name, label)).expr
        raise InputError(f"unknown generator {name!r}")


def parse_expression(cs: CurrentSet, text: str) -> FieldExpr:
    return _Parser(cs, text).parse()


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _sweep_pairs(cs: CurrentSet, jobs: int):
    """Violations of every ordered pair, in pair order whatever the number of workers.

    Pairs go to workers greedily, costliest first, each to the least-loaded
    worker; a pair costs the product of its two currents' term counts.  Every
    worker checks ``cs`` itself: inherited under fork, pickled under spawn.
    """
    labels = cs.labels()
    pairs = [(a, b) for a in labels for b in labels]
    workers = min(jobs, os.cpu_count() or 1, len(pairs))
    if workers <= 1:
        return verify_current_algebra(cs, pairs)
    from concurrent.futures import ProcessPoolExecutor

    cost = [len(cs[a].terms) * len(cs[b].terms) for a, b in pairs]
    chunks: list[list] = [[] for _ in range(workers)]
    load = [0] * workers
    for i in sorted(range(len(pairs)), key=lambda i: -cost[i]):
        w = load.index(min(load))
        chunks[w].append((i, pairs[i]))
        load[w] += cost[i]
    found: dict[int, list] = {}
    with ProcessPoolExecutor(max_workers=workers, initializer=_sweep_init, initargs=(cs,)) as pool:
        for part in pool.map(_sweep_worker, chunks):
            found.update(part)
    return [v for i in sorted(found) for v in found[i]]


_sweep_cs: Optional[CurrentSet] = None  # the current set a sweep worker process checks


def _sweep_init(cs: CurrentSet) -> None:
    global _sweep_cs
    _sweep_cs = cs


def _sweep_worker(items):
    """{pair index: violations} for one chunk of (index, pair) items."""
    return {i: check_pair(_sweep_cs, a, b) for i, (a, b) in items}


def _jacobi_suite(cs: CurrentSet, direction: Optional[int], jobs: int):
    bad = verify_jacobi(cs.tab)
    return not bad, {"triples": len(cs.tab.basis()) ** 3, "violations": [str(t) for t in bad]}


def _realization_suite(cs: CurrentSet, direction: Optional[int], jobs: int):
    if cs.ops is None:
        return True, {"skipped": "differential realization covers the bosonic algebras"}
    bad = verify_realization(cs.ops, cs.tab)
    return not bad, {"pairs": len(cs.ops) ** 2, "violations": [str(t) for t in bad]}


def _currents_suite(cs: CurrentSet, direction: Optional[int], jobs: int):
    bad = _sweep_pairs(cs, jobs)
    det = [{"pair": str(v.pair), "order": v.order, "diff": v.detail} for v in bad]
    return not det, {"violations": det}


def _sugawara_suite(cs: CurrentSet, direction: Optional[int], jobs: int):
    T = sugawara_tensor(cs)
    Tfree = free_field_tensor(cs.ctx)
    ok = T.equals(Tfree)
    c_got = central_charge(cs.ctx, Tfree)
    details = {"sugawara_equals_free": ok, "central_charge": c_got.text()}
    if cs.ctx.bosonic:
        c_want = RatFunc.k() * cs.rs.dim / cs.ctx.t()
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
        except DirectionError:
            results[str(j + 1)] = {
                "status": "unavailable",
                "reason": f"multiplicity {cs.rs.theta[j]} direction without a series construction",
            }
            continue
        results[str(j + 1)] = _report_json(cs, rep)
        ok = ok and rep.ok
    return ok, results


def _screening_first_suite(cs: CurrentSet, direction: Optional[int], jobs: int):
    if not cs.ctx.bosonic:
        return True, {"skipped": "first-kind suite covers the bosonic algebras"}
    return _screening_suite(cs, [direction] if direction is not None else range(cs.rs.rank), first_kind)


def _screening_second_suite(cs: CurrentSet, direction: Optional[int], jobs: int):
    if not cs.ctx.bosonic:
        return _screening_suite(cs, [0], second_kind)  # the one current of the osp(2|2) fixture
    return _screening_suite(cs, [direction] if direction is not None else range(cs.rs.rank), second_kind)


def _naive_second_kind_suite(cs: CurrentSet, direction: Optional[int], jobs: int):
    fail = naive_second_kind_failure(cs, direction if direction is not None else 1)
    return (
        fail.nonvanishing and fail.matches_expected_shape,
        {
            "third_order_pole": fail.third_order_pole.text(cs.ctx),
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


def run_suite(cs: CurrentSet, suite: str, direction: Optional[int], jobs: int):
    """Returns (ok, details dict)."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}")
    return SUITES[suite](cs, direction, jobs)


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
            lines.append(f"{names[lab]} &= {latex_fieldexpr(expr, cs.ctx)} \\\\")
        print("\n".join(lines))
    else:
        for lab, expr in cs.currents.items():
            print(f"{names[lab]} = {expr.text(cs.ctx)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cs = _load(args.algebra)
    suites = ALL_SUITES if args.suite == "all" else [args.suite]
    direction = _direction_index(cs, args.direction) if args.direction is not None else None
    report = {}
    ok = True
    for suite in suites:
        sok, details = run_suite(cs, suite, direction, args.jobs)
        report[suite] = {"status": _suite_status(sok, details), "details": details}
        ok = ok and sok
    out = {"schema": SCHEMA_REPORT, "algebra": cs.rs.name, "suites": report}
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
            latex_fieldexpr(s.body, cs.ctx) if args.format == "latex" else s.body.text(cs.ctx)
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
    res = contract(cs.ctx, A, B)
    if args.format == "json":
        print(json.dumps(ope_to_json(res, cs.ctx), indent=2, sort_keys=True))
    else:
        if not res.nonzero_orders():
            print("regular")
        for q in res.nonzero_orders():
            body = (
                latex_fieldexpr(res.order(q), cs.ctx)
                if args.format == "latex"
                else res.order(q).text(cs.ctx)
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

    def common(p):
        p.add_argument("--algebra", default="B2", help="A1/A2/B2/..., OSP22, or a Cartan JSON path")
        p.add_argument("--format", choices=("text", "json", "latex"), default="json")

    p = sub.add_parser("realize", help="emit the realization")
    common(p)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", default="all", choices=("all", *SUITES))
    p.add_argument("--direction", type=int, default=None, help="simple-root index (1-based)")
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=os.environ.get("WAKIMOTO_JOBS", "1"),
        help="parallel workers for the OPE sweep (at most one per CPU and pair)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("screen", help="build or verify a screening current")
    common(p)
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
