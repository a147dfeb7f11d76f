"""One repetition of a workload, run in a fresh interpreter by ``run.py``.

    python3 bench/worker.py --workload W --seed N --trace 0|1 [--spans FILE]
                            [--setup-only] [--unbounded] [--only I,J,...]

Imports ``windmills`` from the checkout's ``src``, builds the operation list
from the seed, then times every operation under a per-operation deadline and
checks its output outside the timed region.  The last stdout line is a JSON
report: ``first_op`` (``time.monotonic()`` just before the first operation),
the reference search's ``slowdown`` right after it, one record per operation
(each with the reference's slowdown around it), and the peak resident memory.  With ``--trace 1``
the spans are written to ``--spans`` as one JSON array per line.  ``--only``
runs just the operations at those positions of the list, in its order.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 10.0
SCRATCH = Path(__file__).resolve().parent / "out"

import checks  # noqa: E402  (the benchmark's own modules sit beside this file)
import workloads  # noqa: E402


# The machine is shared, and for stretches of up to a minute it runs pure
# Python at about half speed.  The worker times a fixed reference search
# around every operation; run.py divides each operation's time by how much
# slower than REFERENCE_S the reference ran.  REFERENCE_S is about the
# reference's time on a quiet core of the 2-vCPU machine the notes' numbers
# come from.
REFERENCE_S = 0.0008
REFERENCE_COUNT = 52


def reference_search(defect: int = 2, order: int = 7) -> int:
    """Count the Langford sequences with this defect and order, exhaustively.

    Backtracking over lists in pure Python, like the library's searches, and a
    fixed amount of work, unlike them.
    """
    length = 2 * order
    cells = [0] * length
    free = list(range(defect + order - 1, defect - 1, -1))

    def fill(i: int) -> int:
        if not free:
            return 1
        while cells[i]:
            i += 1
        found = 0
        for k, sym in enumerate(free):
            j = i + sym
            if j < length and not cells[j]:
                cells[i] = cells[j] = sym
                del free[k]
                found += fill(i + 1)
                free.insert(k, sym)
                cells[i] = cells[j] = 0
        return found

    return fill(0)


def reference_slowdown() -> float:
    """How many times REFERENCE_S the reference search takes right now."""
    start = time.perf_counter()
    count = reference_search()
    elapsed = time.perf_counter() - start
    if count != REFERENCE_COUNT:
        raise RuntimeError(f"reference search counted {count}, not {REFERENCE_COUNT}")
    return elapsed / REFERENCE_S


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so library handlers let it through."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_windmills() -> None:
    """Import the package and its layer modules from ``<checkout>/src``."""
    sys.path.insert(0, str(ROOT / "src"))
    from windmills import cli, families, oracle, sequences, windmill  # noqa: F401

    if not Path(windmill.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"windmills imported from {windmill.__file__}, not {ROOT / 'src'}")


class Runner:
    """Runs operations of one workload; module attributes are looked up per call
    so that an installed tracer sees every call."""

    def __init__(self, workload: str, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.cli, self.families, self.oracle, self.sequences, self.windmill = (
            sys.modules[f"windmills.{name}"]
            for name in ("cli", "families", "oracle", "sequences", "windmill")
        )
        signal.signal(signal.SIGALRM, _on_alarm)
        SCRATCH.mkdir(exist_ok=True)
        self.label_file = SCRATCH / f"label-{workload}.json"

    # -- timing --------------------------------------------------------------

    def timed(self, record: dict, part: str, fn, *args):
        root = self.tracer.open_root(part) if self.tracer else None
        error = True
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
            error = False
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if root is not None:
                self.tracer.close_root(root, error)
            record["parts"][part] = elapsed
        return result

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()

    # -- operations ------------------------------------------------------------

    def execute(self, record: dict, kind: str, args):
        """Run one operation's timed calls; return what the checks need."""
        if kind == "label":
            code, text = self.timed(record, "label", self.run_cli, ["label", "--graph", args[1], "--json"])
            self.label_file.write_text(text)
            verdict = self.timed(record, "verify", self.run_cli, ["verify", "--file", str(self.label_file)])
            return code, text, verdict
        if kind == "sweep":
            return self.timed(record, "sweep", self._label_and_verify, *args)
        if kind in ("oracle-find", "oracle-none"):
            spec = self.windmill.WindmillSpec.parse(args)
            mode = checks.parity_mode(spec.edge_count) if kind == "oracle-find" else checks.GRACEFUL
            return self.timed(record, kind, self.oracle.search_labelling, spec, mode)
        if kind == "seq-none":
            kind_obj = self.sequences.SequenceKind(args[0])
            return self.timed(record, kind, self.oracle.search_sequence, kind_obj, args[1])
        if kind == "c3c5":
            return self.timed(record, kind, self.families.label_c3c5, *args)
        if kind == "c3c4":
            return self.timed(record, kind, self.families.label_c3c4, *args)[0]
        raise ValueError(f"unknown operation kind {kind!r}")

    def _label_and_verify(self, t: int, s: int):
        labelling, _trace = self.families.label_c3c4(t, s)
        return labelling, self.windmill.verify(labelling)

    def check(self, kind: str, args, outcome) -> tuple[list[str], dict | None]:
        """Independent checks of one output: (errors, plain labelling or None)."""
        if kind == "label":
            code, text, (verify_code, verify_text) = outcome
            if code != 0:
                return [f"label exit code {code}"], None
            plain = checks.plain_from_json(text)
            errors = checks.labelling_errors(plain, workloads.parse_graph(args[1]))
            if verify_code != 0 or not verify_text.startswith("ok"):
                errors.append(f"verify exit code {verify_code}: {verify_text.strip()}")
            return errors, plain
        if kind in ("oracle-none", "seq-none"):
            return self._check_negative(kind, args, outcome), None
        if kind == "oracle-find":
            if outcome.status != self.oracle.FOUND:
                return [f"oracle status {outcome.status}"], None
            labelling, wanted = outcome.labelling, workloads.parse_graph(args)
            report = self.windmill.verify(labelling)
        elif kind == "sweep":
            labelling, report = outcome
            wanted = {3: args[0], 4: args[1]}
        else:
            labelling = outcome
            wanted = {3: args[0], 4 if kind == "c3c4" else 5: args[1]}
            report = self.windmill.verify(labelling)
        plain = checks.plain_from_object(labelling)
        errors = checks.labelling_errors(plain, {k: v for k, v in wanted.items() if v})
        if not report.ok:
            errors.append(f"windmill.verify: {report.summary()}")
        return errors, plain

    def _check_negative(self, kind: str, args, outcome) -> list[str]:
        if kind == "seq-none":
            tag, order = args
            expected = self.sequences.exists(tag, order)
            return [] if bool(outcome) == expected else [f"search says {bool(outcome)}, exists says {expected}"]
        m = sum(length * count for length, count in workloads.parse_graph(args).items())
        if outcome.status != self.oracle.NONE or not outcome.exhaustive:
            return [f"oracle status {outcome.status}"]
        if checks.parity_mode(m) == checks.GRACEFUL:
            return [f"graceful negative for m={m}, which the parity rule does not predict"]
        return []

    def run(self, ops: list[tuple]) -> list[dict]:
        """Time every operation, then check it; a deadline miss counts at the deadline.

        Each operation starts from an empty collector: otherwise when a full
        collection falls, and what it has to walk, depend on the operations
        before it, and so on the seed's shuffle.  Objects alive before the
        first operation (the imported modules) are frozen out of collections.
        """
        records = []
        gc.collect()
        gc.freeze()
        slowdowns = [reference_slowdown()]
        for index, (kind, args) in enumerate(ops):
            gc.collect()
            key = workloads.op_key((kind, args))
            record = {"key": key, "kind": kind, "parts": {}, "ok": False, "why": "", "missed": False}
            if kind == "label":
                record["family"] = args[0]
            if self.tracer:
                self.tracer.op = index
                self.tracer.active = True
            ran = False
            try:
                outcome = self.execute(record, kind, args)
                ran = True
            except DeadlineExceeded:
                record.update(s=DEADLINE_S, missed=True, why=f"over the {DEADLINE_S:g} s deadline")
            except Exception as exc:  # the operation failed; record it and go on
                record.update(s=DEADLINE_S, why=f"{type(exc).__name__}: {exc}")
            finally:
                if self.tracer:
                    self.tracer.active = False
            slowdowns.append(reference_slowdown())
            record["slowdown"] = (slowdowns[-2] + slowdowns[-1]) / 2
            if not ran:
                records.append(record)
                continue
            record["s"] = sum(record["parts"].values())
            try:
                errors, plain = self.check(kind, args, outcome)
            except Exception as exc:  # malformed output
                errors, plain = [f"unreadable output: {type(exc).__name__}: {exc}"], None
            record["ok"] = not errors
            record["why"] = "; ".join(errors)
            if plain is not None:
                record["digest"] = checks.digest(plain)
                reference = checks.reference_digests(self.workload).get(key)
                if reference is not None:
                    record["changed"] = record["digest"] != reference
            records.append(record)
        return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where --trace 1 writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--unbounded", action="store_true")
    parser.add_argument("--only", help="comma-separated positions in the operation list")
    args = parser.parse_args(argv)

    import_windmills()
    ops = workloads.make_ops(args.workload, args.seed, args.unbounded)
    if args.only:
        ops = [ops[int(i)] for i in args.only.split(",")]
    if args.setup_only:
        first_op = time.monotonic()
        sys.stdout.write(json.dumps({"first_op": first_op, "slowdown": reference_slowdown()}) + "\n")
        return 0
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(args.workload, tracer)
    report: dict = {"first_op": time.monotonic(), "slowdown": reference_slowdown()}
    report["ops"] = runner.run(ops)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
