"""Batch command-line frontend with machine-readable output.

Every subcommand wraps exactly one library operation and prints a
versioned payload, JSON by default.  Exit codes: 0 success, 1 domain
error (structured on stdout), 2 usage error (argparse, on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import closure as closure_mod
from . import kappa, languages, metric, semigroups, symbolic
from .errors import KitError
from .freegroup import format_group_word, parse_group_word

SCHEMA = "profinite-kit/v1"


@dataclass
class CommandResult:
    status: str
    data: dict
    diagnostics: list[str] = field(default_factory=list)

    def payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "status": self.status,
            "data": self.data,
            "diagnostics": self.diagnostics,
        }


def _read_semigroup(path: str) -> semigroups.FiniteSemigroup:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise KitError(f"cannot read {path}: {exc}") from exc
    return semigroups.FiniteSemigroup.from_json(text)


def _alphabet_for(regex_text: str, declared: Optional[str], extra: str = "") -> tuple[str, ...]:
    if declared:
        return tuple(sorted(set(declared) | set(extra)))
    letters = {ch for ch in regex_text if ch.isalnum()} | set(extra)
    return tuple(sorted(letters))


def _parse_lang(args) -> tuple[languages.Regex, tuple[str, ...]]:
    alphabet = _alphabet_for(args.lang, getattr(args, "alphabet", None),
                             extra=getattr(args, "word", "") or "")
    return languages.parse_regex(args.lang, alphabet), alphabet


def _cmd_syntactic(args) -> CommandResult:
    regex, alphabet = _parse_lang(args)
    result = languages.syntactic_semigroup(regex, alphabet)
    data = {
        "semigroup": result.semigroup.to_json_dict(),
        "letter_images": {ch: result.morphism.image_of_letter(ch) for ch in alphabet},
        "accept": sorted(result.accept),
        "accepts_empty": result.accepts_empty,
        "minimal_dfa_states": result.dfa.n_states,
    }
    return CommandResult("ok", data)


def _cmd_member(args) -> CommandResult:
    table = _read_semigroup(args.table)
    if args.pv:
        definition = kappa.lookup(args.pv, experimental=args.experimental)
    else:
        pid = kappa.parse_pseudoidentity(args.pid)
        definition = kappa.PseudovarietyDef(name=args.pid, basis=(pid,))
    ok, failure = kappa.member_witness(table, definition)
    data: dict = {"member": ok, "pseudovariety": definition.name}
    if failure is not None:
        pid, assignment = failure
        data["witness"] = {"pseudoidentity": str(pid), "assignment": assignment}
    return CommandResult("ok", data)


def _cmd_metric(args) -> CommandResult:
    definition = kappa.lookup(args.pv)
    result = metric.distance(args.u, args.v, definition, args.max_order)
    rank = result.rank.rank
    data: dict = {
        "u": args.u,
        "v": args.v,
        "pseudovariety": definition.name,
        "max_order": args.max_order,
        "rank": "inf" if rank is math.inf else rank,
    }
    if result.value is not None:
        data["distance"] = result.value
    else:
        data["interval"] = list(result.interval)
    witness = result.rank.witness
    if witness is not None:
        data["witness"] = {
            "table": witness.semigroup.to_json_dict(),
            "assignment": dict(witness.assignment),
        }
    return CommandResult("ok", data)


def _cmd_closure(args) -> CommandResult:
    regex, alphabet = _parse_lang(args)
    clos = closure_mod.pro_g_closure(regex, alphabet)
    members = {}
    for text in args.words or []:
        w = parse_group_word(text)
        members[text] = clos.contains(w)
    data = {
        "lang": args.lang,
        "alphabet": "".join(alphabet),
        "automaton_states": clos.automaton.n_states,
        "members": members,
    }
    return CommandResult("ok", data)


def _cmd_separate(args) -> CommandResult:
    regex, alphabet = _parse_lang(args)
    separable = closure_mod.separable_by_group_language(args.word, regex, alphabet)
    data: dict = {"word": args.word, "lang": args.lang, "separable": separable}
    diagnostics = []
    if separable and args.certificate:
        cert = closure_mod.separation_certificate(args.word, regex, alphabet)
        if cert is None:
            data["certificate"] = None
            diagnostics.append("separable (no small certificate)")
        else:
            data["certificate"] = {
                "group": cert.group_name,
                "assignment": dict(cert.assignment),
                "word_image": cert.word_image,
                "language_images": sorted(cert.language_images),
            }
    return CommandResult("ok", data, diagnostics)


def _cmd_kernel(args) -> CommandResult:
    table = _read_semigroup(args.table)
    monoid = semigroups.monoid_of(table)
    result = closure_mod.kernel_g(monoid)
    data: dict = {
        "order": monoid.order,
        "identity_adjoined": monoid is not table,
        "kernel": sorted(result.kernel),
    }
    if args.trace:
        data["trace"] = [list(step) for step in result.trace]
    return CommandResult("ok", data)


def _parse_elements(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise KitError(f"expected comma-separated element indices, got {text!r}") from None


def _cmd_pointlike(args) -> CommandResult:
    table = _read_semigroup(args.table)
    monoid = semigroups.monoid_of(table)
    subset = _parse_elements(args.set)
    ok, witness = closure_mod.g_pointlike(monoid, subset)
    data: dict = {"set": sorted(set(subset)), "pointlike": ok}
    if witness is not None:
        data["witness"] = format_group_word(witness)
    return CommandResult("ok", data)


def _cmd_inevitable(args) -> CommandResult:
    table = _read_semigroup(args.table)
    monoid = semigroups.monoid_of(table)
    if args.system == "loop":
        if args.y is None:
            raise KitError("the loop system needs --y")
        verdict = closure_mod.inevitable_loop(monoid, args.y)
        data = {"system": "loop", "y": args.y, "inevitable": verdict}
    else:
        if args.targets is None:
            raise KitError("the two-vertex system needs --targets")
        x = monoid.identity if args.x is None else args.x
        targets = _parse_elements(args.targets)
        verdict = closure_mod.inevitable_two_vertex(monoid, x, targets)
        data = {"system": "two-vertex", "x": x, "targets": sorted(set(targets)),
                "inevitable": verdict}
    return CommandResult("ok", data)


def _cmd_omega(args) -> CommandResult:
    table = _read_semigroup(args.table)
    profile = semigroups.monogenic_profile(table, args.element)
    data = {
        "element": profile.element,
        "index": profile.index,
        "period": profile.period,
        "omega": profile.omega,
        "omega_minus_one": profile.omega_minus_one,
    }
    return CommandResult("ok", data)


def _cmd_enumerate(args) -> CommandResult:
    upto_iso = not args.all_tables
    stream = semigroups.enumerate_semigroups(args.order, upto_iso=upto_iso)
    if args.count_only:
        count = sum(1 for _ in stream)
        data: dict = {"order": args.order, "upto_iso": upto_iso, "count": count}
    else:
        tables = [s.to_json_dict() for s in stream]
        data = {"order": args.order, "upto_iso": upto_iso,
                "count": len(tables), "semigroups": tables}
    return CommandResult("ok", data)


def _cmd_entropy(args) -> CommandResult:
    regex, alphabet = _parse_lang(args)
    shift = symbolic.factorial_trim(languages.to_minimal_dfa(regex, alphabet))
    value = symbolic.entropy(shift)
    data = {
        "lang": args.lang,
        "entropy": value,
        "presentation_nodes": len(shift.nodes),
    }
    return CommandResult("ok", data)


def _cmd_primitive(args) -> CommandResult:
    substitution = symbolic.parse_substitution(args.substitution)
    data = {
        "substitution": args.substitution,
        "primitive": symbolic.is_primitive(substitution),
    }
    return CommandResult("ok", data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profinite-kit",
        description="profinite-topology computations on finite semigroups and languages",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("syntactic", help="syntactic semigroup of a regex")
    p.add_argument("--lang", required=True)
    p.add_argument("--alphabet")
    p.set_defaults(handler=_cmd_syntactic)

    p = sub.add_parser("member", help="pseudovariety membership of a semigroup")
    p.add_argument("--table", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pv")
    group.add_argument("--pid")
    p.add_argument("--experimental", action="store_true")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("metric", help="pro-V separation rank and distance")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--pv", default="S")
    p.add_argument("--max-order", type=int, default=metric.DEFAULT_MAX_ORDER)
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("closure", help="pro-group closure membership queries")
    p.add_argument("--lang", required=True)
    p.add_argument("--alphabet")
    p.add_argument("--word", action="append", dest="words", default=[])
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("separate", help="separability by a group language")
    p.add_argument("--word", required=True)
    p.add_argument("--lang", required=True)
    p.add_argument("--alphabet")
    p.add_argument("--certificate", action="store_true",
                   help="search the groups C1-C6 and S3 for a separating morphism")
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("kernel", help="group kernel of a finite monoid")
    p.add_argument("--table", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("pointlike", help="is a subset pointlike for the groups")
    p.add_argument("--table", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_pointlike)

    p = sub.add_parser("inevitable", help="inevitability of the small graph systems")
    p.add_argument("--table", required=True)
    p.add_argument("--system", choices=("loop", "two-vertex"), required=True)
    p.add_argument("--y", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--targets")
    p.set_defaults(handler=_cmd_inevitable)

    p = sub.add_parser("omega", help="omega-power profile of an element")
    p.add_argument("--table", required=True)
    p.add_argument("--element", type=int, required=True)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser("enumerate", help="enumerate small semigroups")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--all-tables", action="store_true",
                   help="all associative tables instead of one per isomorphism class")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("entropy", help="entropy of the sofic shift of a regex")
    p.add_argument("--lang", required=True)
    p.add_argument("--alphabet")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("primitive", help="primitivity of a substitution")
    p.add_argument("--substitution", required=True)
    p.set_defaults(handler=_cmd_primitive)

    return parser


def run(argv: Sequence[str]) -> CommandResult:
    """Parse and execute; raises SystemExit(2) on usage errors."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KitError as exc:
        return CommandResult("error", {"error": str(exc)})


def _render_text(payload: dict, indent: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def render(result: CommandResult, fmt: str) -> str:
    payload = result.payload()
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    return "\n".join(_render_text(payload))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage failure, exits with 2
        return int(exc.code or 0)
    try:
        result = args.handler(args)
    except KitError as exc:
        result = CommandResult("error", {"error": str(exc)})
    print(render(result, args.format))
    return 0 if result.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
