"""Command-line front end: generate, label, verify, search, audit, sweep.

Exit codes: 0 success/verified; 1 verification failed; 2 unsupported
parameters; 3 malformed input; 4 search budget exhausted; 141 stdout closed
early, the code a shell reports for a death by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import families, oracle, sequences
from .errors import (
    MalformedLabelling,
    OutOfRange,
    SearchBudgetExhausted,
    WindmillError,
)
from .windmill import (
    WindmillSpec,
    from_json,
    labels,
    to_dot,
    to_json,
    verify,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNSUPPORTED = 2
EXIT_MALFORMED = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141

# kind -> (the option that sizes it, its generator)
_GEN_KINDS = {
    "skolem": ("order", sequences.gen_skolem),
    "hooked-skolem": ("order", sequences.gen_hooked_skolem),
    "langford2d": ("defect", sequences.gen_langford_doubledefect),
    "near-top": ("order", sequences.gen_near_skolem_topdefect),
    "twofold-skolem": ("order", sequences.gen_twofold_skolem),
    "power4": ("order", sequences.gen_power4),
    "twofold-langford": ("order", sequences.gen_twofold_langford),
    "small-c": ("order", sequences.fixed_small_twofold),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first ``main`` call and reused: ``parse_args`` returns a
    # fresh namespace each time and keeps no state in the parser.
    parser = argparse.ArgumentParser(
        prog="windmills",
        description="Construct and verify (near) graceful labellings of variable windmills.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="sequence generation and validation")
    seq_sub = seq.add_subparsers(dest="seq_command", required=True)

    gen = seq_sub.add_parser("gen", help="generate a sequence")
    gen.set_defaults(run=_cmd_seq_gen)
    gen.add_argument("--kind", required=True, choices=_GEN_KINDS)
    gen.add_argument("--order", type=int, help="order (or block index for power4/small-c)")
    gen.add_argument("--defect", type=int, help="defect (langford2d)")
    gen.add_argument("--trimmed", action="store_true", help="drop the trailing (1,1) pair (power4)")

    val = seq_sub.add_parser("validate", help="validate a comma-separated sequence")
    val.set_defaults(run=_cmd_seq_validate)
    src = val.add_mutually_exclusive_group(required=True)
    src.add_argument("--stdin", action="store_true")
    src.add_argument("--file")
    val.add_argument("--kind", required=True, choices=sequences.KNOWN_TAGS)
    val.add_argument("--defect", type=int)
    val.add_argument("--fragment", action="store_true", help="allow half-paired symbols")

    label = sub.add_parser("label", help="label a windmill")
    label.set_defaults(run=_cmd_label)
    label.add_argument("--graph", required=True, help='e.g. "c3=4,c4=3"')
    fmt = label.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--text", action="store_true")
    label.add_argument("--trace", action="store_true", help="print the construction trace")

    ver = sub.add_parser("verify", help="verify a labelling JSON file")
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("--file", required=True)
    ver.add_argument("--permissive-near", action="store_true")

    orc = sub.add_parser("oracle", help="exhaustive search")
    orc.set_defaults(run=_cmd_oracle)
    orc.add_argument("--graph", help="windmill spec to search")
    orc.add_argument("--mode", choices=("graceful", "near-graceful"))
    orc.add_argument("--max-label", type=int, help="largest vertex label to try")
    orc.add_argument("--budget", type=int, help="node budget")
    orc.add_argument("--seq-kind", choices=sequences.KNOWN_TAGS)
    orc.add_argument("--order", type=int)
    orc.add_argument("--defect", type=int)
    orc.add_argument("--all", action="store_true", help="enumerate all sequences")

    audit = sub.add_parser("audit", help="rule coverage per (t, s) cell")
    audit.set_defaults(run=_cmd_audit)
    audit.add_argument("--t-max", type=int, required=True)
    audit.add_argument("--s-max", type=int, required=True)
    audit.add_argument("--csv", action="store_true")

    sweep = sub.add_parser("sweep", help="label and verify a parameter grid")
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("--family", choices=("c3c4",), default="c3c4")
    sweep.add_argument("--t", required=True, help="range A..B")
    sweep.add_argument("--s", required=True, help="range A..B")
    sweep.add_argument("--csv", action="store_true")
    return parser


def _parse_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = range(int(lo), int(hi) + 1)
        else:
            value = int(text)
            values = range(value, value + 1)
    except ValueError as exc:
        raise MalformedLabelling(f"bad range {text!r}") from exc
    if not values:
        raise MalformedLabelling(f"empty range {text!r}")
    return values


def _check_edges(what: str, edges: int) -> None:
    # The library's cap on a sequence's cells caps edges too: a `label` graph's
    # or a `sweep`'s largest cell.  At it a labelling takes about 2 s and 270 MB.
    if edges > sequences.MAX_CELLS:
        raise OutOfRange(f"{what} has {edges} edges, above the limit of {sequences.MAX_CELLS}")


def _reject_unread(args, reader: str, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise MalformedLabelling(f"{reader} does not read --{name.replace('_', '-')}")


def _cmd_seq_gen(args) -> int:
    option, generate = _GEN_KINDS[args.kind]
    size = getattr(args, option)
    if size is None:
        raise MalformedLabelling(f"{args.kind} needs --{option}")
    _reject_unread(args, args.kind, "defect" if option == "order" else "order")
    if args.kind != "power4":
        _reject_unread(args, args.kind, "trimmed")
    seq = generate(size, trimmed=args.trimmed) if args.kind == "power4" else generate(size)
    if not seq.entries:
        raise MalformedLabelling(f"{args.kind} --{option} {size} is the empty sequence")
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
    seq = sequences.parse_sequence(text)
    kind = sequences.SequenceKind(args.kind, defect=args.defect)
    report = sequences.validate(seq, kind, fragment=args.fragment)
    if report.ok:
        print(f"accept: {args.kind} of order {seq.order}")
        return EXIT_OK
    for violation in report.violations:
        print(f"reject: {violation}")
    return EXIT_VERIFY_FAILED


def _cmd_label(args) -> int:
    spec = WindmillSpec.parse(args.graph)
    _check_edges(spec.to_text(), spec.edge_count)
    labelling, trace = families.label(spec)
    if args.dot:
        print(to_dot(labelling))
    elif args.text or (not args.json and not args.trace):
        print(f"{spec.to_text()}  m={spec.edge_count}  mode={labelling.mode}")
        for vane in labelling.vanes:
            print("  " + ",".join(str(v) for v in vane))
    if args.json:
        print(to_json(labelling))
    if args.trace:
        print(trace.format())
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
        _reject_unread(args, "oracle --graph", "seq_kind", "order", "defect", "all")
        if not args.mode:
            raise MalformedLabelling("oracle --graph needs --mode")
        if args.budget is not None and args.budget < 0:
            raise MalformedLabelling(f"--budget must be >= 0, got {args.budget}")
        if args.max_label is not None and args.max_label < 1:
            raise MalformedLabelling(f"--max-label must be >= 1, got {args.max_label}")
        spec = WindmillSpec.parse(args.graph)
        result = oracle.search_labelling(
            spec, args.mode, max_label=args.max_label, node_budget=args.budget
        )
        if result.status == oracle.FOUND:
            print(json.dumps(oracle.fixture_json_obj(result, spec)))
            return EXIT_OK
        if result.status == oracle.NONE:
            top = labels(spec.edge_count, args.mode)[-1]
            cut = args.max_label is not None and args.max_label < top
            scope = f" with labels up to {args.max_label}" if cut else ""
            print(f"none{scope} (exhaustive, {result.nodes} nodes)")
            return EXIT_OK
        print(f"budget exhausted after {result.nodes} nodes")
        return EXIT_BUDGET
    if args.seq_kind:
        _reject_unread(args, "oracle --seq-kind", "mode", "max_label", "budget")
        if args.order is None:
            raise MalformedLabelling("oracle --seq-kind needs --order")
        if args.order < 1:
            raise MalformedLabelling(f"--order must be >= 1, got {args.order}")
        kind = sequences.SequenceKind(args.seq_kind, defect=args.defect)
        results = oracle.search_sequence(kind, args.order, enumerate_all=args.all)
        if not results:
            print("none (exhaustive)")
            return EXIT_OK
        for seq in results:
            print(seq.to_text())
        return EXIT_OK
    raise MalformedLabelling("oracle needs --graph or --seq-kind")


def _cmd_audit(args) -> int:
    cells = families.coverage_audit(args.t_max, args.s_max)
    if args.csv:
        print("t,s,rule")
        for (t, s), rule in cells:
            print(f"{t},{s},{rule}")
    else:
        gaps = []
        for (t, s), rule in cells:
            print(f"t={t} s={s}: {rule}")
            if rule == families.GAP:
                gaps.append((t, s))
        print(f"{len(gaps)} gap cells: {gaps}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    # Each row is printed once its cell is verified, so a cell that raises or
    # hangs leaves every row before it on stdout.
    t_range = _parse_range(args.t)
    s_range = _parse_range(args.s)
    t, s = t_range[-1], s_range[-1]
    _check_edges(f"cell t={t} s={s}", WindmillSpec.of((3, t), (4, s)).edge_count)
    if args.csv:
        print("t,s,m,mode,rule,verified")
    all_ok = True
    for t in t_range:
        for s in s_range:
            labelling, trace = families.label(WindmillSpec.of((3, t), (4, s)))
            report = verify(labelling)
            all_ok = all_ok and report.ok
            m, mode, rule, ok = labelling.spec.edge_count, labelling.mode, trace.rule, report.ok
            if args.csv:
                line = f"{t},{s},{m},{mode},{rule},{ok}"
            else:
                line = f"t={t} s={s} m={m} {mode} via {rule}: {'ok' if ok else 'FAILED'}"
            print(line, flush=True)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except (MalformedLabelling, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except SearchBudgetExhausted as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WindmillError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BrokenPipeError:  # stdout to devnull, so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
