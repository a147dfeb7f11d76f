"""Command-line front end: generate, label, verify, search, audit, sweep.

Exit codes: 0 success/verified; 1 verification failed; 2 unsupported
parameters; 3 malformed input; 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families, oracle
from .errors import MalformedLabelling, SearchBudgetExhausted, Unlabellable, WindmillError
from .sequences import (
    SequenceKind,
    fixed_small_twofold,
    gen_hooked_skolem,
    gen_langford_doubledefect,
    gen_near_skolem_topdefect,
    gen_power4,
    gen_skolem,
    gen_twofold_langford,
    gen_twofold_skolem,
    parse_sequence,
    validate,
)
from .windmill import (
    WindmillSpec,
    from_json,
    to_dot,
    to_json,
    verify,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNSUPPORTED = 2
EXIT_MALFORMED = 3
EXIT_BUDGET = 4

_GEN_KINDS = (
    "skolem",
    "hooked-skolem",
    "langford2d",
    "near-top",
    "twofold-skolem",
    "power4",
    "twofold-langford",
    "small-c",
)

_VALIDATE_KINDS = (
    "skolem",
    "hooked-skolem",
    "near-skolem",
    "hooked-near-skolem",
    "langford",
    "hooked-langford",
    "skolem-type",
    "two-fold-skolem",
    "two-fold-langford",
    "two-fold-skolem-type",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windmills",
        description="Construct and verify (near) graceful labellings of variable windmills.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="sequence generation and validation")
    seq_sub = seq.add_subparsers(dest="seq_command", required=True)

    gen = seq_sub.add_parser("gen", help="generate a sequence")
    gen.add_argument("--kind", required=True, choices=_GEN_KINDS)
    gen.add_argument("--order", type=int, help="order (or block index for power4/small-c)")
    gen.add_argument("--defect", type=int, help="defect (langford2d)")
    gen.add_argument("--trimmed", action="store_true", help="drop the trailing (1,1) pair (power4)")

    val = seq_sub.add_parser("validate", help="validate a comma-separated sequence")
    src = val.add_mutually_exclusive_group(required=True)
    src.add_argument("--stdin", action="store_true")
    src.add_argument("--file")
    val.add_argument("--kind", required=True, choices=_VALIDATE_KINDS)
    val.add_argument("--defect", type=int)
    val.add_argument("--fragment", action="store_true", help="allow half-paired symbols")

    label = sub.add_parser("label", help="label a windmill")
    label.add_argument("--graph", required=True, help='e.g. "c3=4,c4=3"')
    fmt = label.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--text", action="store_true")
    label.add_argument("--trace", action="store_true", help="print the construction trace")

    ver = sub.add_parser("verify", help="verify a labelling JSON file")
    ver.add_argument("--file", required=True)
    ver.add_argument("--permissive-near", action="store_true")

    orc = sub.add_parser("oracle", help="exhaustive search")
    orc.add_argument("--graph", help="windmill spec to search")
    orc.add_argument("--mode", choices=("graceful", "near-graceful"))
    orc.add_argument("--max-label", type=int)
    orc.add_argument("--budget", type=int, help="node budget")
    orc.add_argument("--seq-kind", choices=_VALIDATE_KINDS)
    orc.add_argument("--order", type=int)
    orc.add_argument("--defect", type=int)
    orc.add_argument("--all", action="store_true", help="enumerate all sequences")

    audit = sub.add_parser("audit", help="rule coverage per (t, s) cell")
    audit.add_argument("--t-max", type=int, required=True)
    audit.add_argument("--s-max", type=int, required=True)
    audit.add_argument("--csv", action="store_true")

    sweep = sub.add_parser("sweep", help="label and verify a parameter grid")
    sweep.add_argument("--family", choices=("c3c4",), default="c3c4")
    sweep.add_argument("--t", required=True, help="range A..B")
    sweep.add_argument("--s", required=True, help="range A..B")
    sweep.add_argument("--csv", action="store_true")
    return parser


def _parse_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        value = int(text)
        return range(value, value + 1)
    except ValueError as exc:
        raise MalformedLabelling(f"bad range {text!r}") from exc


def _cmd_seq_gen(args) -> int:
    kind = args.kind
    if kind == "langford2d":
        if args.defect is None:
            raise MalformedLabelling("langford2d needs --defect")
        seq = gen_langford_doubledefect(args.defect)
    else:
        if args.order is None:
            raise MalformedLabelling(f"{kind} needs --order")
        n = args.order
        seq = {
            "skolem": gen_skolem,
            "hooked-skolem": gen_hooked_skolem,
            "near-top": gen_near_skolem_topdefect,
            "twofold-skolem": gen_twofold_skolem,
            "twofold-langford": gen_twofold_langford,
            "small-c": fixed_small_twofold,
        }.get(kind, lambda n: gen_power4(n, trimmed=args.trimmed))(n)
    print(seq.to_text())
    return EXIT_OK


def _cmd_seq_validate(args) -> int:
    if args.stdin:
        text = sys.stdin.read()
    else:
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as exc:
            raise MalformedLabelling(f"cannot read {args.file}: {exc}") from exc
    seq = parse_sequence(text)
    kind = SequenceKind(args.kind, defect=args.defect)
    report = validate(seq, kind, fragment=args.fragment)
    if report.ok:
        print(f"accept: {args.kind} of order {seq.order}")
        return EXIT_OK
    for violation in report.violations:
        print(f"reject: {violation}")
    return EXIT_VERIFY_FAILED


def _label_for_spec(spec: WindmillSpec):
    counts = {length: spec.count_of(length) for length in (3, 4, 5, 6)}
    t, s, p, h = counts[3], counts[4], counts[5], counts[6]
    present = {length for length in (3, 4, 5, 6) if counts[length]}
    if present == {3}:
        return families.label_c3(t), None
    if present == {5}:
        return families.label_c5(p), None
    if present == {3, 4}:
        return families.label_c3c4(t, s)
    if present == {3, 5}:
        return families.label_c3c5(t, p), None
    if present == {3, 6}:
        return families.label_c3c6(t, h), None
    raise Unlabellable(f"no construction for vane lengths {sorted(present)}")


def _cmd_label(args) -> int:
    spec = WindmillSpec.parse(args.graph)
    labelling, trace = _label_for_spec(spec)
    if args.dot:
        print(to_dot(labelling))
    elif args.text or (not args.json and not args.trace):
        print(f"{spec.to_text()}  m={spec.edge_count}  mode={labelling.mode}")
        for vane in labelling.vanes:
            print("  " + ",".join(str(v) for v in vane))
    if args.json:
        print(to_json(labelling))
    if args.trace:
        if trace is not None:
            print(trace.format())
        else:
            print("(single-rule family; no trace recorded)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.file) as fh:
            labelling = from_json(fh.read())
    except OSError as exc:
        raise MalformedLabelling(f"cannot read {args.file}: {exc}") from exc
    report = verify(labelling, permissive_near=args.permissive_near)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_oracle(args) -> int:
    if args.graph:
        if not args.mode:
            raise MalformedLabelling("oracle --graph needs --mode")
        spec = WindmillSpec.parse(args.graph)
        result = oracle.search_labelling(
            spec, args.mode, max_label=args.max_label, node_budget=args.budget
        )
        if result.status == oracle.FOUND:
            print(json.dumps(oracle.fixture_json_obj(result, spec)))
            return EXIT_OK
        if result.status == oracle.NONE:
            print(f"none (exhaustive, {result.nodes} nodes)")
            return EXIT_OK
        print(f"budget exhausted after {result.nodes} nodes")
        return EXIT_BUDGET
    if args.seq_kind:
        if args.order is None:
            raise MalformedLabelling("oracle --seq-kind needs --order")
        kind = SequenceKind(args.seq_kind, defect=args.defect)
        results = oracle.search_sequence(kind, args.order, enumerate_all=args.all)
        if not results:
            print("none (exhaustive)")
            return EXIT_OK
        for seq in results:
            print(seq.to_text())
        return EXIT_OK
    raise MalformedLabelling("oracle needs --graph or --seq-kind")


def _cmd_audit(args) -> int:
    grid = families.coverage_audit(args.t_max, args.s_max)
    if args.csv:
        print("t,s,rule")
        for (t, s), rule in sorted(grid.items()):
            print(f"{t},{s},{rule}")
    else:
        gaps = sorted(cell for cell, rule in grid.items() if rule == families.GAP)
        for (t, s), rule in sorted(grid.items()):
            print(f"t={t} s={s}: {rule}")
        print(f"{len(gaps)} gap cells: {gaps}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    t_range = _parse_range(args.t)
    s_range = _parse_range(args.s)
    rows = []
    all_ok = True
    for t in t_range:
        for s in s_range:
            labelling, trace = families.label_c3c4(t, s)
            report = verify(labelling)
            all_ok = all_ok and report.ok
            rows.append(
                (t, s, labelling.spec.edge_count, labelling.mode, trace.rule, report.ok)
            )
    if args.csv:
        print("t,s,m,mode,rule,verified")
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        for t, s, m, mode, rule, ok in rows:
            print(f"t={t} s={s} m={m} {mode} via {rule}: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "seq":
            if args.seq_command == "gen":
                return _cmd_seq_gen(args)
            return _cmd_seq_validate(args)
        if args.command == "label":
            return _cmd_label(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except MalformedLabelling as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except SearchBudgetExhausted as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WindmillError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    return EXIT_MALFORMED  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
