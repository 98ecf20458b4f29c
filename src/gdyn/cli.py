"""Command-line front end.

    gdyn validate FILE
    gdyn check FILE --property p1|p2|gt|tgt|wgm|sgm|gm|cover|equivariant|
                               pseudoequivariant|quotient-minimal|nfold:<n>
    gdyn report FILE
    gdyn minimal-sets FILE
    gdyn quotient FILE
    gdyn gen --seed N [--max-points K] [--mode M] [--group NAME]
             [--pseudoequivariant] [-o FILE]
    gdyn mine --target EXPR [--seed N] [--budget N] [--no-sweep] [-o FILE]

Exit codes: 0 for a true verdict (or success), 1 for a false verdict or
an exhausted search, 2 for any error.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path

from .algebra import equivariance_failure, pseudoequivariance_failure, quotient
from .checkers import (
    Diagram,
    Verdicts,
    diagram_violations,
    g_minimal_sets,
    is_g_minimal,
    is_g_transitive,
    is_n_fold_transitive,
    is_strongly_g_mixing,
    is_totally_g_transitive,
    is_weakly_g_mixing,
    profile,
    quotient_minimality,
)
from .dynamics import GSystem, MaxCarrier
from .errors import Error, GenerationError, LimitError, ParseError, ValidationError
from .sysfile import open_lines, parse, serialize


def _load(path: str) -> GSystem:
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first line
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse(text)


def _fmt(names) -> str:
    return "{" + ",".join(names) + "}"


def _emit_verdict(tag: str, verdict: bool) -> None:
    print(f"property={tag} verdict={str(verdict).lower()}")


def _cmd_validate(args) -> int:
    sys_ = _load(args.file)
    print(
        f"valid: {sys_.space.n} points, group of order {sys_.group.order}"
    )
    return 0


# property -> (report, the witness keys a false verdict prints)
_Reports = {
    "gt": (is_g_transitive, ("U", "V")),
    "tgt": (is_totally_g_transitive, ("U", "V", "m")),
    "wgm": (is_weakly_g_mixing, ("U", "V", "E", "F")),
    "sgm": (is_strongly_g_mixing, ("U", "V", "missing_exponent")),
    "gm": (is_g_minimal, ("x",)),
}


def _emit_witness(fields: dict) -> None:
    print("witness: " + " ".join(
        f"{k}={_fmt(v) if isinstance(v, tuple) else v}" for k, v in fields.items()))


def _cmd_check(args) -> int:
    sys_ = _load(args.file)
    prop = args.property
    if prop == "equivariant":
        fail = equivariance_failure(sys_.action, sys_.f)
        _emit_verdict("equivariant", fail is None)
        if fail is not None:
            g, x = fail
            _emit_witness({"g": sys_.group.elements[g], "x": sys_.space.points[x]})
        return 0 if fail is None else 1
    if prop == "pseudoequivariant":
        x = pseudoequivariance_failure(sys_.action, sys_.f)
        _emit_verdict("pseudoequivariant", x is None)
        if x is not None:
            _emit_witness({"x": sys_.space.points[x]})
        return 0 if x is None else 1
    if prop == "quotient-minimal":
        qm = quotient_minimality(sys_)
        _emit_verdict("quotient-minimal", qm.induced_minimal)
        print(f"detail: gm={str(qm.gm).lower()}"
              f" induced_minimal={str(qm.induced_minimal).lower()}")
        return 0 if qm.induced_minimal else 1
    if prop.startswith("nfold:"):
        count = prop.split(":", 1)[1]
        # ASCII digits only: int() also takes "1_0", " 3" and non-ASCII digits
        if not (count.isascii() and count.isdigit()):
            raise ValidationError(f"check: bad fold count in '{prop}'")
        digits, bound = count.lstrip("0") or "0", MaxCarrier.bit_length()
        # nfold_system's bound, checked on the digits: int() may refuse so many
        if len(digits) > len(str(bound)):
            raise LimitError(f"nfold_system: {digits} factors exceed the bound {bound}")
        rep, keys = is_n_fold_transitive(sys_, int(digits)), _Reports["gt"][1]
    elif prop in _Reports:
        report, keys = _Reports[prop]
        rep = report(sys_)
    elif prop in Verdicts:  # p1, p2 and cover: a verdict and no witness
        verdict = profile(sys_, (prop,))[prop]
        _emit_verdict(prop, verdict)
        return 0 if verdict else 1
    else:
        raise ValidationError(f"check: unknown property '{prop}'")
    _emit_verdict(rep.prop, rep.verdict)
    if not rep.verdict:
        _emit_witness({k: rep.witness[k] for k in keys})
    return 0 if rep.verdict else 1


def _cmd_report(args) -> int:
    sys_ = _load(args.file)
    row = profile(sys_, Diagram)
    for key, verdict in row.items():
        print(f"{key}={str(verdict).lower()}")
    bad = diagram_violations(row)
    print("diagram=consistent" if not bad else "diagram=violated:" + ",".join(bad))
    return 0 if not bad else 1


def _cmd_minimal_sets(args) -> int:
    sys_ = _load(args.file)
    sets = g_minimal_sets(sys_)
    for m in sets:
        print("minimal-set: " + sys_.space.label(m))
    print(f"count={len(sets)}")
    return 0 if sets else 1


def _cmd_quotient(args) -> int:
    sys_ = _load(args.file)
    qs = quotient(sys_.action, sys_.f)
    q = qs.space
    print("points " + " ".join(q.points), *open_lines(q), sep="\n")
    for x, p in enumerate(sys_.space.points):
        print(f"proj {p} {q.points[qs.proj[x]]}")
    if qs.induced is None:
        print("induced none")
    else:
        for i, p in enumerate(q.points):
            print(f"map {p} {q.points[qs.induced[i]]}")
    return 0


def _cmd_gen(args) -> int:
    # imported here, so that the commands deciding a system do not load it
    from .corpus import GeneratorConfig, generate

    cfg = GeneratorConfig(
        seed=args.seed,
        max_points=args.max_points,
        groups=None if args.group is None else (args.group,),
        mode=args.mode,
        pseudoequivariant_only=args.pseudoequivariant,
    )
    try:
        sys_ = generate(cfg)
    except GenerationError as exc:
        print(f"exhausted: {exc}", file=_sys.stderr)
        return 1
    text = serialize(sys_)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _cmd_mine(args) -> int:
    from .corpus import mine  # as in _cmd_gen

    res = mine(args.target, seed=args.seed, budget=args.budget,
               sweep=not args.no_sweep)
    if res.found:
        print(f"found: target={res.target} phase={res.phase} ({res.detail})")
        text = serialize(res.system)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
        return 0
    print("exhausted: " + " ".join(f"{k}={v}" for k, v in res.record.items()))
    return 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gdyn",
        description="decide transitivity, mixing and minimality of maps"
                    " on finite G-spaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse and validate a system file")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("check", help="decide one property")
    sp.add_argument("file")
    sp.add_argument("--property", required=True)
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("report", help="all properties plus consistency")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_report)

    sp = sub.add_parser("minimal-sets", help="list the minimal cores")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_minimal_sets)

    sp = sub.add_parser("quotient", help="orbit space and induced map")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_quotient)

    sp = sub.add_parser("gen", help="generate a random system")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--max-points", type=int, default=5)
    sp.add_argument("--mode", choices=("discrete", "preorder"),
                    default="preorder")
    sp.add_argument("--group", default=None)
    sp.add_argument("--pseudoequivariant", action="store_true")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(handler=_cmd_gen)

    sp = sub.add_parser("mine", help="search for a property combination")
    sp.add_argument("--target", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=100_000)
    sp.add_argument("--no-sweep", action="store_true")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(handler=_cmd_mine)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a verdict: exit 1 would read as "false"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
