"""Command-line interface.

Exit codes: 0 when the command succeeds (and any verification passes),
1 when a verification ran to completion and failed, 2 for input errors
(bad descriptor, unreadable or malformed file, bad flags).

Machine-readable output: homology prints one `H_<q> = <group>` line
per degree, cohomology prints `H^<q> = <group>` lines, verification
commands end with a `RESULT PASS` or `RESULT FAIL` line.  Groups are
rendered as `0`, `Z`, `Z^r`, `Z/d`, joined with ` + `.  With --json a
single JSON object replaces the plain-text output.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from .affops import selftest
from .chains import homology, relative
from .intlin import FgAbGroup
from .orbmodel import (
    Ball3,
    Ball3Cyclic,
    Custom,
    Disc2,
    OrbifoldDesc,
    ProductTorus,
    Surface,
    adapted_model,
    describe,
    t_model,
    ws_complex,
)
from .verify import (
    check_bhomotopy_pair,
    check_duality,
    check_hurewicz,
    check_kunneth,
    check_mv,
    check_rational,
    check_underlying,
)

_NAME_RE = re.compile(r"[a-z0-9]+")


def _fail(pos: int, message: str):
    raise ValueError(f"descriptor error at position {pos}: {message}")


def _parse_int(token: str, pos: int) -> int:
    token = token.strip()
    if not (token.isascii() and token.isdigit()):  # int() also takes "+1", "1_0"
        _fail(pos, f"expected an integer, got {token!r}")
    try:
        return int(token)
    except ValueError as e:  # more digits than int() converts
        _fail(pos, str(e))


def _int_list(argstr: str, pos: int) -> list[int]:
    if not argstr.strip():
        _fail(pos, "expected at least one integer")
    return [_parse_int(t, pos) for t in argstr.split(",")]


def parse_descriptor(text: str) -> OrbifoldDesc:
    """Parse a model descriptor.

    Grammar:
        descriptor := atom (" x " torus)*
        atom  := disc2(N) | ball3(N,N,N) | ball3cyclic(N)
               | surface(G,B) | surface(G,B;M1,...,Mr)
        torus := torus(K)
    """
    s = text

    def skip_ws(p: int) -> int:
        while p < len(s) and s[p].isspace():
            p += 1
        return p

    def parse_atom(p: int):
        m = _NAME_RE.match(s, p)
        if not m:
            _fail(p, "expected a model name")
        name = m.group(0)
        p2 = m.end()
        if p2 >= len(s) or s[p2] != "(":
            _fail(p2, f"expected '(' after {name!r}")
        close = s.find(")", p2)
        if close < 0:
            _fail(p2, "unclosed '('")
        return name, s[p2 + 1:close], p, close + 1

    def build_atom(name: str, args: str, at: int) -> OrbifoldDesc:
        try:
            if name == "disc2":
                (n,) = _require(args, at, 1)
                return Disc2(n)
            if name == "ball3":
                return Ball3(tuple(_require(args, at, 3)))
            if name == "ball3cyclic":
                (n,) = _require(args, at, 1)
                return Ball3Cyclic(n)
            if name == "surface":
                if ";" in args:
                    main_part, cone_part = args.split(";", 1)
                    cones = _int_list(cone_part, at)
                else:
                    main_part, cones = args, []
                g, b = _require(main_part, at, 2)
                return Surface(g, b, tuple(cones))
        except ValueError as e:
            if str(e).startswith("descriptor error"):
                raise
            _fail(at, str(e))
        if name == "torus":
            _fail(at, "torus(...) may only appear as a product factor")
        _fail(at, f"unknown model name {name!r}")

    def _require(argstr: str, at: int, count: int) -> list[int]:
        vals = _int_list(argstr, at)
        if len(vals) != count:
            _fail(at, f"expected {count} integer(s), got {len(vals)}")
        return vals

    p = skip_ws(0)
    name, args, at, p = parse_atom(p)
    desc = build_atom(name, args, at)
    while True:
        p = skip_ws(p)
        if p == len(s):
            return desc
        if s[p] != "x":
            _fail(p, "expected 'x' between product factors")
        p = skip_ws(p + 1)
        name, args, at, p = parse_atom(p)
        if name != "torus":
            _fail(at, "only torus(...) may follow 'x'")
        k = _parse_int(args, at)
        if k < 1:
            _fail(at, "torus factor count must be at least 1")
        desc = ProductTorus(desc, k)


def _use_color() -> bool:
    env = os.environ.get("ORBIHOM_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return hasattr(sys.stdout, "isatty") and sys.stdout.isatty()


def _render_group(g: FgAbGroup, coeff: str) -> str:
    if coeff == "Q":
        return "0" if g.rank == 0 else "Q" if g.rank == 1 else f"Q^{g.rank}"
    return str(g)


def _load_model(args, build) -> tuple:
    """Model from --desc or --file, built by t_model or adapted_model,
    with its subject text."""
    desc = (Custom(args.file) if getattr(args, "file", None)
            else parse_descriptor(args.desc))
    return build(desc), describe(desc)


# Verify checks that take one --desc: name -> (check, help).
_DESC_CHECKS = {
    "rational": (check_rational, "integer ranks vs rational dimensions"),
    "underlying": (check_underlying,
                   "weight-one degeneration vs textbook homology"),
    "hurewicz": (check_hurewicz, "abelianized fundamental group vs H_1"),
    "duality": (check_duality,
                "scaled-dual cohomology vs complementary homology"),
}


@functools.cache  # built once per process, shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbihom",
        description="Weighted cellular homology of orbifold models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, file_ok=True):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--desc", help="model descriptor, "
                           "e.g. 'disc2(4)' or 'surface(1,2;3) x torus(1)'")
        if file_ok:
            group.add_argument("--file", help="path to a .owc complex file")

    p_hom = sub.add_parser("homology", help="weighted homology groups")
    add_source(p_hom)
    p_hom.add_argument("--coeff", choices=["z", "q"], default="z",
                       type=str.lower, help="coefficient ring (default z)")
    p_hom.add_argument("--rel", metavar="SUB",
                       help="compute relative to this sub-complex")
    p_hom.add_argument("--json", action="store_true")

    p_ws = sub.add_parser("ws-cohomology",
                          help="scaled-dual cochain cohomology")
    add_source(p_ws)
    p_ws.add_argument("--rel", metavar="SUB",
                      help="drop this sub-complex before dualizing")
    p_ws.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="consistency checks")
    vsub = p_verify.add_subparsers(dest="check", required=True)

    p_mv = vsub.add_parser("mv", help="two-piece cover exact sequence")
    add_source(p_mv)
    p_mv.add_argument("--sub", action="append", metavar="NAME",
                      help="sub-complex name (give exactly twice)")
    p_mv.add_argument("--json", action="store_true")

    p_kun = vsub.add_parser("kunneth", help="torus product formula")
    add_source(p_kun, file_ok=False)
    p_kun.add_argument("--torus", type=int, default=1, metavar="K",
                       help="number of circle factors (default 1)")
    p_kun.add_argument("--json", action="store_true")

    for name, (_, helptext) in _DESC_CHECKS.items():
        p_c = vsub.add_parser(name, help=helptext)
        add_source(p_c, file_ok=False)
        p_c.add_argument("--json", action="store_true")

    p_bh = vsub.add_parser("bhomotopy",
                           help="compare the invariants of two models")
    p_bh.add_argument("--a", required=True, metavar="DESC")
    p_bh.add_argument("--b", required=True, metavar="DESC")
    p_bh.add_argument("--json", action="store_true")

    p_aff = sub.add_parser("affops", help="affine operator identities")
    asub = p_aff.add_subparsers(dest="check", required=True)
    p_self = asub.add_parser("selftest",
                             help="randomized operator identity check")
    p_self.add_argument("--trials", type=int, default=200)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--json", action="store_true")

    return parser


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for str-keyed dicts, lists, strings,
    ints, bools and None, strings by json's C encoder: the pure-Python
    encoder that indent selects leaves cycles on every call before 3.13."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not isinstance(value, (list, dict)) or not value:  # [] and {} too
        return "null" if value is None else str(value).lower()
    inner, ends = indent + "  ", "{}" if isinstance(value, dict) else "[]"
    items = ([f"{_json(k)}: {_json(v, inner)}" for k, v in value.items()]
             if isinstance(value, dict) else [_json(v, inner) for v in value])
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1]


def _emit_groups(kind: str, subject: str, groups, coeff: str,
                 rel, as_json: bool) -> None:
    rendered = [_render_group(g, coeff) for g in groups]
    if as_json:
        payload = {
            "command": kind,
            "subject": subject,
            "coeff": coeff,
            "rel": rel,
            "groups": rendered,
        }
        print(_json(payload))
        return
    sign = "H^" if kind == "ws-cohomology" else "H_"
    for q, text in enumerate(rendered):
        print(f"{sign}{q} = {text}")


def _emit_report(report, as_json: bool) -> int:
    if as_json:
        print(_json(report.to_json()))
    else:
        print(report.render(color=_use_color()))
    return 0 if report.passed else 1


def _dispatch(args) -> int:
    if args.command == "homology":
        wcc, subject = _load_model(args, t_model)
        chain = wcc.chain_complex()
        rel = getattr(args, "rel", None)
        if rel is not None:
            chain = relative(chain, wcc.sub_cells(rel))
        coeff = "Q" if args.coeff == "q" else "Z"
        result = homology(chain, coeff=coeff)
        _emit_groups("homology", subject, result.groups(), coeff,
                     rel, args.json)
        return 0

    if args.command == "ws-cohomology":
        am, subject = _load_model(args, adapted_model)
        rel = getattr(args, "rel", None)
        result = homology(ws_complex(am, rel=rel))
        n = am.dim
        groups = [result.group(n - q) for q in range(n + 1)]
        _emit_groups("ws-cohomology", subject, groups, "Z", rel, args.json)
        return 0

    if args.command == "verify":
        if args.check == "mv":
            subs = args.sub or []
            if len(subs) != 2:
                raise ValueError(
                    "verify mv needs exactly two --sub arguments, "
                    f"got {len(subs)}"
                )
            wcc, _ = _load_model(args, t_model)
            report = check_mv(wcc, subs[0], subs[1])
        elif args.check == "kunneth":
            report = check_kunneth(parse_descriptor(args.desc), args.torus)
        elif args.check == "bhomotopy":
            report = check_bhomotopy_pair(
                parse_descriptor(args.a), parse_descriptor(args.b))
        else:
            check, _ = _DESC_CHECKS[args.check]
            report = check(parse_descriptor(args.desc))
        return _emit_report(report, args.json)

    if args.command == "affops":
        report = selftest(trials=args.trials, seed=args.seed)
        return _emit_report(report, args.json)

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
