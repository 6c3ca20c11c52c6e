"""Command-line interface.

Exit status: 0 for a successful or affirmative run, 1 for a negative
result (not convergent, not equal, not joinable, translation rejected,
certificate replay failed),
2 for usage, parse, or precondition errors (diagnostic on stderr), and
when standard output is closed before the output is written, as by
``srs normalize ... | head -c 10`` (no diagnostic, no traceback).
Output is deterministic.  Each command computes one JSON document;
``--format json`` prints it with a top-level ``"schema": 1`` field, and
the text output is rendered from it, so both carry the same data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path as FilePath

from . import abelian, completion, critical, rewrite, track, transport
from .errors import NotTerminatingError, RewritingError
from .presentation import (
    Presentation,
    format_word,
    parse_presentation,
    parse_word,
    print_presentation,
)

SCHEMA = 1


def _load(path: str) -> Presentation:
    return parse_presentation(FilePath(path).read_text(encoding="utf-8"))


def _require_terminating(p: Presentation, args):
    if not args.assume_terminating and not rewrite.check_termination(p).ok:
        raise NotTerminatingError(
            "presentation is not certified terminating "
            "(use --assume-terminating to attempt anyway)"
        )


def _footprint_json(fp: abelian.Footprint, p: Presentation) -> list[dict]:
    keys = sorted(fp, key=lambda k: (k[1], k[0], k[2]))
    return [
        {
            "left": format_word(k[0], p),
            "rule": k[1],
            "right": format_word(k[2], p),
            "coefficient": fp[k],
        }
        for k in keys
    ]


def _pi_json(x: abelian.PiElement, p: Presentation) -> list[dict]:
    keys = sorted(x, key=lambda k: (len(k[1]), k[1], k[0]))
    return [
        {
            "left": format_word(k[0][0], p),
            "right": format_word(k[0][1], p),
            "basis": k[1],
            "coefficient": x[k],
        }
        for k in keys
    ]


def _footprint_text(items: list[dict]) -> str:
    return " ".join(
        f"{t['coefficient']:+d}·({t['left']}, {t['rule']}, {t['right']})" for t in items
    ) or "0"


def _pi_text(items: list[dict]) -> str:
    return " ".join(
        f"{t['coefficient']:+d}·(({t['left']},{t['right']}), {t['basis']})" for t in items
    ) or "0"


# ---------------------------------------------------------------------------
# commands: each returns (exit status, JSON payload); each _text_* renders
# the text output from that payload alone


def _cmd_check(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    cert = critical.is_convergent(p)
    term = cert.termination
    lc = cert.local_confluence
    payload = {
        "terminating": term.ok,
        "locally_confluent": lc.ok if lc is not None else None,
        "convergent": cert.ok,
        "order_violations": list(term.violations),
        "unjoinable": [
            {
                "overlap": format_word(failure.branching.overlap, p),
                "left": format_word(failure.left_nf, p),
                "right": format_word(failure.right_nf, p),
            }
            for failure in (lc.failures if lc is not None else ())
        ],
    }
    if args.max_len is not None and term.ok:
        report = critical.brute_force_confluence(p, args.max_len)
        bf = payload["brute_force"] = {"max_len": args.max_len, "confluent": report.ok}
        if not report.ok:
            w, nf1, nf2 = report.counterexample
            bf["witness"] = format_word(w, p)
            bf["normal_forms"] = [format_word(nf1, p), format_word(nf2, p)]
    return (0 if cert.ok else 1), payload


def _text_check(payload: dict) -> list[str]:
    yn = lambda flag: "yes" if flag else "no"  # noqa: E731
    lc = payload["locally_confluent"]
    lines = [
        f"terminating: {yn(payload['terminating'])}; locally confluent: "
        f"{yn(lc) if lc is not None else 'not checked'}; "
        f"convergent: {yn(payload['convergent'])}"
    ]
    lines += [
        f"rule {rule_id}: not decreasing under the order"
        for rule_id in payload["order_violations"]
    ]
    lines += [
        f"branching overlap={u['overlap']} not joinable: {u['left']} vs {u['right']}"
        for u in payload["unjoinable"]
    ]
    bf = payload.get("brute_force")
    if bf is not None and bf["confluent"]:
        lines.append(f"brute force (≤{bf['max_len']}): confluent")
    elif bf is not None:
        nf1, nf2 = bf["normal_forms"]
        lines.append(
            f"brute force (≤{bf['max_len']}): witness {bf['witness']} reaches {nf1} and {nf2}"
        )
    return lines


def _cmd_normalize(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    _require_terminating(p, args)
    w = parse_word(args.word, p)
    nf, path = rewrite.normalize(w, p, fuel=args.fuel)
    return 0, {
        "input": format_word(w, p),
        "normal_form": format_word(nf, p),
        "path": track.format_path(path, p),
    }


def _text_normalize(payload: dict) -> list[str]:
    return [f"normal form: {payload['normal_form']}", f"path: {payload['path']}"]


def _cmd_equal(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    critical._require_convergent(p)
    nf_u = critical.normal_form(parse_word(args.left, p), p)
    nf_v = critical.normal_form(parse_word(args.right, p), p)
    payload = {
        "equal": nf_u == nf_v,
        "normal_forms": [format_word(nf_u, p), format_word(nf_v, p)],
    }
    return (0 if payload["equal"] else 1), payload


def _text_equal(payload: dict) -> list[str]:
    nf_u, nf_v = payload["normal_forms"]
    if payload["equal"]:
        return [f"equal (normal form: {nf_u})"]
    return [f"not equal (normal forms: {nf_u}, {nf_v})"]


def _cmd_critical_pairs(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    _require_terminating(p, args)
    report = critical.is_locally_confluent(p, args.fuel)
    return (0 if report.ok else 1), {
        "branchings": [_outcome_json(outcome, p) for outcome in report.outcomes],
        "locally_confluent": report.ok,
    }


def _outcome_json(outcome, p: Presentation) -> dict:
    b = outcome.branching
    entry = {
        "overlap": format_word(b.overlap, p),
        "rule1": b.rule1.rule_id,
        "rule2": b.rule2.rule_id,
        "offset": b.offset,
        "kind": b.kind,
        "joinable": isinstance(outcome, critical.GeneratingConfluence),
    }
    if entry["joinable"]:
        entry["loop"] = track.format_path(outcome.loop, p)
    else:
        entry["normal_forms"] = [format_word(outcome.left_nf, p), format_word(outcome.right_nf, p)]
    return entry


def _text_critical_pairs(payload: dict) -> list[str]:
    lines = []
    for b in payload["branchings"]:
        lines.append(
            f"overlap={b['overlap']} r1={b['rule1']}@0 r2={b['rule2']}@{b['offset']} "
            f"kind={b['kind']} joinable={'true' if b['joinable'] else 'false'}"
        )
        if b["joinable"]:
            lines.append(f"  loop: {b['loop']}")
        else:
            left, right = b["normal_forms"]
            lines.append(f"  normal forms: {left} vs {right}")
    return lines


def _cmd_complete(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    completed, trace = completion.knuth_bendix(p, fuel=args.fuel)
    events = [
        {
            "kind": event.kind,
            "rule": event.rule_id,
            "lhs": " ".join(event.lhs),
            "rhs": " ".join(event.rhs),
            "overlap": format_word(event.overlap, completed)
            if event.overlap is not None
            else None,
        }
        for event in trace
    ]
    return 0, {"presentation": print_presentation(completed), "trace": events}


def _text_complete(payload: dict) -> list[str]:
    lines = payload["presentation"].splitlines()
    for e in payload["trace"]:
        overlap = f" from overlap {e['overlap']}" if e["overlap"] is not None else ""
        lines.append(f"{e['kind']} {e['rule']}: {e['lhs']} -> {e['rhs']}".rstrip() + overlap)
    return lines


def _cmd_pi_basis(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    loops = abelian.basis_loops(p)
    return 0, {
        "loops": [
            {"id": bl.basis_id, "path": track.format_path(bl.loop, p)} for bl in loops
        ],
        "generated_by": len(loops),
    }


def _text_pi_basis(payload: dict) -> list[str]:
    lines = [f"{bl['id']}: {bl['path']}" for bl in payload["loops"]]
    return lines + [f"pi generated by {payload['generated_by']} element(s)"]


def _cmd_decompose(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    critical._require_convergent(p)
    loop = track.parse_path(args.path, p)
    if not loop.is_closed:
        raise RewritingError(
            f"path is not closed: base {format_word(loop.base, p)}, "
            f"target {format_word(loop.target, p)}"
        )
    cert = abelian.decompose_loop(loop, p)
    verified = abelian.verify_certificate(loop, cert, p).ok
    return 0 if verified else 1, {
        "entries": [
            {
                "sign": e.sign,
                "left": format_word(e.left, p),
                "right": format_word(e.right, p),
                "basis": e.basis_id,
                "conjugator": track.format_path(e.conjugator, p),
            }
            for e in cert.entries
        ],
        "pi": _pi_json(cert.pi, p),
        "footprint": _footprint_json(abelian.footprint(loop, p), p),
        "verified": verified,
    }


def _text_decompose(payload: dict) -> list[str]:
    lines = [
        f"ε={'+' if e['sign'] > 0 else '-'} ctx=({e['left']},{e['right']}) "
        f"basis={e['basis']} conj={e['conjugator']}"
        for e in payload["entries"]
    ]
    lines += [
        f"pi = {_pi_text(payload['pi'])}",
        f"footprint = {_footprint_text(payload['footprint'])}",
    ]
    if not payload["verified"]:
        lines.append("certificate replay: FAILED")
    return lines


def _cmd_footprint(args) -> tuple[int, dict]:
    p = _load(args.presentation)
    critical._require_convergent(p)
    path = track.parse_path(args.path, p)
    return 0, {"footprint": _footprint_json(abelian.footprint(path, p), p)}


def _text_footprint(payload: dict) -> list[str]:
    return [f"footprint = {_footprint_text(payload['footprint'])}"]


def _cmd_transport(args) -> tuple[int, dict]:
    sigma = _load(args.sigma)
    upsilon = _load(args.upsilon)
    m = transport.parse_translation_map(
        FilePath(args.map).read_text(encoding="utf-8"), sigma, upsilon
    )
    report = transport.check_translation(sigma, upsilon, m)
    if not report.ok:
        return 1, {"translation_ok": False, "failures": list(report.failures)}
    basis = tuple(bl.loop for bl in abelian.basis_loops(upsilon))
    generators = transport.transported_generators(sigma, upsilon, m, basis)
    return 0, {
        "translation_ok": True,
        "generators": [
            {"label": label, "path": track.format_path(loop, sigma)}
            for label, loop in generators
        ],
    }


def _text_transport(payload: dict) -> list[str]:
    if not payload["translation_ok"]:
        return ["translation: rejected"] + [f"  {msg}" for msg in payload["failures"]]
    lines = ["translation: ok"]
    lines += [f"{g['label']}: {g['path']}" for g in payload["generators"]]
    return lines + [f"transported generators: {len(payload['generators'])}"]


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and help text is formatted only when printed."""
    parser = argparse.ArgumentParser(
        prog="srs",
        description="String rewriting toolkit for monoid presentations: "
        "convergence checking, completion, and loop decomposition over the "
        "basis of generating confluences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, handler, render, fuel_default=None):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if fuel_default is not None:
            sp.add_argument("--fuel", type=int, default=fuel_default)
        sp.set_defaults(handler=handler, render=render)

    sp = sub.add_parser("check", help="termination, local confluence, convergence")
    sp.add_argument("presentation")
    sp.add_argument("--max-len", type=int, default=None)
    common(sp, _cmd_check, _text_check)

    sp = sub.add_parser("normalize", help="normal form and canonical path of a word")
    sp.add_argument("presentation")
    sp.add_argument("word")
    sp.add_argument("--assume-terminating", action="store_true")
    common(sp, _cmd_normalize, _text_normalize, fuel_default=rewrite.DEFAULT_FUEL)

    sp = sub.add_parser("equal", help="decide the word problem (needs convergence)")
    sp.add_argument("presentation")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp, _cmd_equal, _text_equal)

    sp = sub.add_parser("critical-pairs", help="critical branchings and their loops")
    sp.add_argument("presentation")
    sp.add_argument("--assume-terminating", action="store_true")
    common(sp, _cmd_critical_pairs, _text_critical_pairs, fuel_default=rewrite.DEFAULT_FUEL)

    sp = sub.add_parser("complete", help="Knuth-Bendix completion")
    sp.add_argument("presentation")
    common(sp, _cmd_complete, _text_complete, fuel_default=completion.DEFAULT_RULE_FUEL)

    sp = sub.add_parser("pi-basis", help="basis loops of the generating confluences")
    sp.add_argument("presentation")
    common(sp, _cmd_pi_basis, _text_pi_basis)

    sp = sub.add_parser("decompose", help="decompose a closed path over the basis")
    sp.add_argument("presentation")
    sp.add_argument("path")
    common(sp, _cmd_decompose, _text_decompose)

    sp = sub.add_parser("footprint", help="footprint of a path")
    sp.add_argument("presentation")
    sp.add_argument("path")
    common(sp, _cmd_footprint, _text_footprint)

    sp = sub.add_parser("transport", help="transport a basis along a translation map")
    sp.add_argument("sigma")
    sp.add_argument("upsilon")
    sp.add_argument("map")
    common(sp, _cmd_transport, _text_transport)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for flag, value in ("--max-len", vars(args).get("max_len")), ("--fuel", vars(args).get("fuel")):
        if value is not None and value < 0:
            print(f"srs: {flag} must be at least 0, got {value}", file=sys.stderr)
            return 2
    try:
        status, payload = args.handler(args)
    except OSError as exc:
        print(f"srs: cannot read {exc.filename}", file=sys.stderr)
        return 2
    except (RewritingError, ValueError, RecursionError, MemoryError) as exc:
        print(f"srs: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            document = {"schema": SCHEMA, "command": args.command, **payload}
            print(json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False))
        else:
            for line in args.render(payload):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the flush at
        # exit writes nowhere (the recipe in the docs of ``signal``)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
