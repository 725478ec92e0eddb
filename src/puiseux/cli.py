"""Command-line front end.

Every subcommand reads a monoid description from a JSON file (or stdin via
``-``) and prints either human-readable text or JSON; the JSON carries the
same facts and is the stable schema.  Rationals are always serialized as
"a/b" strings.

Exit codes keep shell pipelines honest: 0 for definite results, 1 for
input errors, 2 for undecided verdicts (unknown classifications,
inconclusive probes, budget-limited answers) so scripts can tell "no"
from "could not decide", and 3 for an internal error (any other
exception, reported as one ``internal error: <Type>: <message>`` line on
stderr), so a failure of the program never passes for a bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Any

from .closures import ConductorKind, UnknownGroup, conductor, difference_group, gp_density, root_closure
from .constructions import build_cantor_shift, build_dense_atoms, build_increasing
from .density import (
    DEFAULT_PROBE_DEPTH,
    DensityClass,
    ProbeResult,
    classify_density,
    probe_density,
    right_isolation,
)
from .errors import BudgetError
from .factorizations import AtomicityKind, atoms, factorizations, length_set
from .families import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TRUNCATION_DEPTH,
    Membership,
    dumps_spec,
    loads_spec,
    spec_member,
)
from .rationals import format_rational, parse_rational
from .sequences import DEFAULT_SEED

__all__ = ["main"]

OK = 0
ERR_INPUT = 1
UNDECIDED = 2
ERR_INTERNAL = 3


def _jsonify(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "value") and not isinstance(value, (int, str, float, bool)):
        return value.value  # enums
    return value


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            if value and isinstance(value[0], dict):
                lines.append(f"{pad}{key}:")
                for item in value:
                    lines.append(_render_text(item, indent + 1))
                    lines.append(f"{pad}  -")
                lines.pop()
            elif value and isinstance(value[0], list):
                rendered = "; ".join("(" + ", ".join(str(v) for v in item) + ")" for item in value)
                lines.append(f"{pad}{key}: {rendered}")
            else:
                lines.append(f"{pad}{key}: {', '.join(str(v) for v in value) if value else '(none)'}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _emit(payload: dict, output: str) -> None:
    import json

    payload = _jsonify(payload)
    if output == "json":
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    else:
        print(_render_text(payload))


def _read_spec(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return loads_spec(text)


def _cmd_classify(args) -> tuple[dict, int]:
    verdict = classify_density(_read_spec(args.spec))
    payload: dict = {"class": verdict.klass, "rule": verdict.rule}
    if verdict.witness is not None:
        payload["witness"] = _witness_dict(verdict.witness)
    if verdict.note:
        payload["note"] = verdict.note
    return payload, UNDECIDED if verdict.klass == DensityClass.UNKNOWN else OK


def _witness_dict(witness) -> dict:
    from .density import DenseWitness, IsolationWitness, LatticeWitness

    if isinstance(witness, DenseWitness):
        return {"kind": "decreasing_generators", "sample": list(witness.sample), "law": witness.law}
    if isinstance(witness, LatticeWitness):
        return {"kind": "lattice", "step": witness.step}
    if isinstance(witness, IsolationWitness):
        return {"kind": "right_isolation", "pairs": [[e, r] for e, r in witness.pairs]}
    return {"kind": "unknown"}


def _cmd_atoms(args) -> tuple[dict, int]:
    verdict = atoms(_read_spec(args.spec), limit=args.limit, budget=args.budget)
    payload = {
        "kind": verdict.kind,
        "atoms": list(verdict.atoms_shown),
        "truncated": verdict.truncated,
        "rule": verdict.rule,
    }
    return payload, UNDECIDED if verdict.kind == AtomicityKind.UNKNOWN else OK


def _cmd_member(args) -> tuple[dict, int]:
    result = spec_member(_read_spec(args.spec), parse_rational(args.x), budget=args.budget, depth=args.depth)
    payload: dict = {"status": result.status}
    if result.certificate is not None:
        payload["certificate"] = [[a, m] for a, m in result.certificate]
    if result.reason is not None:
        payload["reason"] = result.reason
    return payload, UNDECIDED if result.status == Membership.UNKNOWN else OK


def _cmd_factorize(args) -> tuple[dict, int]:
    fs = factorizations(_read_spec(args.spec), parse_rational(args.x), budget=args.budget)
    payload = {
        "x": fs.x,
        "complete": fs.complete,
        "count": len(fs.items),
        "factorizations": [
            {"parts": [[a, m] for a, m in f.parts], "length": f.length} for f in fs.items
        ],
    }
    if fs.note:
        payload["note"] = fs.note
    return payload, OK if fs.complete else UNDECIDED


def _cmd_lengths(args) -> tuple[dict, int]:
    ls = length_set(_read_spec(args.spec), parse_rational(args.x), budget=args.budget)
    payload = {"x": ls.x, "lengths": list(ls.lengths), "complete": ls.complete}
    return payload, OK if ls.complete else UNDECIDED


def _cmd_frobenius(args) -> tuple[dict, int]:
    from .families import canonical_fg

    spec = _read_spec(args.spec)
    cf = canonical_fg(spec)
    if cf is None:
        raise ValueError("the monoid is not finitely generated: no largest gap exists")
    payload = {
        "frobenius": str(cf.nm.frobenius),
        "conductor_min": str(cf.nm.conductor),
        "scale": cf.scale,
        "minimal_generators": [str(g) for g in cf.nm.minimal_generators],
    }
    return payload, OK


def _cmd_closure(args) -> tuple[dict, int]:
    clo = root_closure(_read_spec(args.spec))
    payload = clo.describe()
    if clo.known:
        payload["generators"] = list(clo.generators(8))
        return payload, OK
    return payload, UNDECIDED


def _cmd_gp(args) -> tuple[dict, int]:
    spec = _read_spec(args.spec)
    group = difference_group(spec)
    verdict = gp_density(spec)
    payload: dict = {"group": group.describe(), "density": {"kind": verdict.kind, "rule": verdict.rule}}
    if verdict.witness:
        payload["density"]["witness"] = list(verdict.witness)
    if verdict.lattice_step is not None:
        payload["density"]["lattice_step"] = verdict.lattice_step
    return payload, UNDECIDED if isinstance(group, UnknownGroup) else OK


def _cmd_conductor(args) -> tuple[dict, int]:
    result = conductor(_read_spec(args.spec))
    return result.describe(), UNDECIDED if result.kind == ConductorKind.UNKNOWN else OK


def _cmd_probe(args) -> tuple[dict, int]:
    lo, hi = (parse_rational(v) for v in args.interval)
    report = probe_density(
        _read_spec(args.spec), lo, hi, parse_rational(args.eps), depth=args.depth
    )
    return report.describe(), UNDECIDED if report.result == ProbeResult.INCONCLUSIVE else OK


def _cmd_isolate(args) -> tuple[dict, int]:
    pairs = right_isolation(_read_spec(args.spec), parse_rational(args.T))
    payload = {"bound": parse_rational(args.T), "pairs": [[e, r] for e, r in pairs]}
    return payload, OK


def _cmd_construct(args) -> tuple[dict, int]:
    if args.family == "dense-atoms":
        spec = build_dense_atoms(args.count, args.seed).spec
    elif args.family == "cantor":
        spec = build_cantor_shift(args.depth).spec
    else:
        prefix = [p for p in (args.prefix.split(",") if args.prefix else []) if p]
        kwargs: dict = {"prefix": prefix}
        for name in ("offset", "slope", "limit", "coeff", "ratio"):
            value = getattr(args, name)
            if value is not None:
                kwargs[name] = parse_rational(value, signed=True)
        spec = build_increasing(args.form, **kwargs)
    text = dumps_spec(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return {}, OK


@functools.cache  # one parser per process, built at first use
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puiseux",
        description="Exact computations on additive monoids of nonnegative rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_budget=True):
        p.add_argument("spec", help="path to a spec JSON file, or - for stdin")
        p.add_argument("--output", choices=["text", "json"], default="text")
        if with_budget:
            p.add_argument(
                "--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget (default: %(default)s)"
            )

    p = sub.add_parser("classify", help="density classification with rule citation")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("atoms", help="atomicity verdict and atom list")
    add_common(p)
    p.add_argument("--limit", type=int, default=24, help="max atoms to list")
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("member", help="decide membership of a rational")
    add_common(p)
    p.add_argument("x", help='element, e.g. "5/6"')
    p.add_argument("--depth", type=int, default=DEFAULT_TRUNCATION_DEPTH, help="generator truncation depth")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("factorize", help="all factorizations of an element into atoms")
    add_common(p)
    p.add_argument("x", help='element, e.g. "6"')
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("lengths", help="set of factorization lengths of an element")
    add_common(p)
    p.add_argument("x", help='element, e.g. "12"')
    p.set_defaults(func=_cmd_lengths)

    p = sub.add_parser("frobenius", help="largest gap and conductor minimum (finitely generated)")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("closure", help="root closure description and generators")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("gp", help="difference group and its density verdict")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_gp)

    p = sub.add_parser("conductor", help="conductor shape by the rule table")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_conductor)

    p = sub.add_parser("probe", help="empirical density probe on a window")
    add_common(p, with_budget=False)
    p.add_argument("--interval", nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--eps", required=True, help='resolution, e.g. "1/1000"')
    p.add_argument("--depth", type=int, default=DEFAULT_PROBE_DEPTH, help="generator truncation depth")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("isolate", help="right-isolation radii of elements up to a bound")
    add_common(p, with_budget=False)
    p.add_argument("--T", required=True, help='upper bound, e.g. "3"')
    p.set_defaults(func=_cmd_isolate)

    p = sub.add_parser("construct", help="emit a spec JSON for an example construction")
    csub = p.add_subparsers(dest="family", required=True)

    pc = csub.add_parser("dense-atoms", help="atomic monoid with spreading atoms")
    pc.add_argument("--count", type=int, required=True)
    pc.add_argument("--seed", default=DEFAULT_SEED)
    pc.add_argument("--out", help="write the spec JSON here instead of stdout")
    pc.set_defaults(func=_cmd_construct)

    pc = csub.add_parser("cantor", help="shifted ternary endpoint monoid")
    pc.add_argument("--depth", type=int, required=True)
    pc.add_argument("--out", help="write the spec JSON here instead of stdout")
    pc.set_defaults(func=_cmd_construct)

    pc = csub.add_parser("increasing", help="increasing sequence from the tail catalog")
    pc.add_argument("--form", required=True, choices=["affine", "harmonic", "prime_harmonic", "geometric"])
    pc.add_argument("--prefix", default="", help='comma-separated terms, e.g. "3/2,5/3"')
    pc.add_argument("--offset")
    pc.add_argument("--slope")
    pc.add_argument("--limit")
    pc.add_argument("--coeff")
    pc.add_argument("--ratio")
    pc.add_argument("--out", help="write the spec JSON here instead of stdout")
    pc.set_defaults(func=_cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        if payload:
            _emit(payload, getattr(args, "output", "text"))
    except BudgetError as e:
        print(f"undecided (budget): {e}", file=sys.stderr)
        return UNDECIDED
    except (ValueError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERR_INPUT
    except Exception as e:  # anything else is the program's fault, not the input's
        message = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return ERR_INTERNAL
    return code


if __name__ == "__main__":
    raise SystemExit(main())
