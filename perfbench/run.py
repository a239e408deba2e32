#!/usr/bin/env python3
"""Benchmark of the hurwitzdiv command line, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan_rect|large_g|cmd_mix \\
        --seed N --seconds S --trace 0|1

The program is run from the checkout's own ``src`` directory; nothing is
installed.  Each operation is one ``hurwitzdiv`` command in a fresh child
process, started one after another by a small spawner process.  A round is the
workload's list of operations; rounds repeat until the next one would end
past ``--seconds`` (at least one round runs).  Once the timed rounds are
over, the first output of every operation is checked against ``checks.py``;
every later run of the operation must have reproduced it byte for byte.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each round runs once plainly and
once under ``traced_entry.py``, and the object carries the per-layer metrics.
Raw figures of each run go to ``perfbench/results/``, traces to
``perfbench/results/traces/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from checks import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

LAYERS = ("cli", "partitions", "spaces", "pushpull", "lowslope", "hurwitz", "bigness", "serialize")
SETUP_STARTS = 5  # before the first round and again after the last
COMMAND_TIMEOUT_S = 150  # the spawner also caps each child's CPU time

# The same start-up as the installed `hurwitzdiv` console script.
LAUNCH = "import sys; from hurwitzdiv.cli import entrypoint; sys.exit(entrypoint())"
PROBE = (
    "import time, hurwitzdiv.cli as cli; cli.build_parser(); t = time.monotonic(); "
    "import sys; sys.stdout.write(repr(t) + '\\n' + cli.__file__)"
)


@dataclass
class CommandRun:
    start: float
    seconds: float
    exit_code: int
    rss_mb: float
    out_bytes: int
    trace: Path | None = None


@dataclass
class Round:
    commands: list[CommandRun] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.commands)


class SetupError(Exception):
    """The program cannot be started from this checkout."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs commands one at a time through ``spawner.py``.

    The spawner forks every child, so the peak resident size each child
    reports is its own and not this process's, which grows while it checks
    outputs.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def run(self, argv: list[str], out_path: Path, err_path: Path) -> CommandRun:
        self.proc.stdin.write("\0".join([str(out_path), str(err_path), *argv]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 4:
            raise SetupError("the spawner stopped answering")
        start, end, code, rss_kib = float(reply[0]), float(reply[1]), int(reply[2]), int(reply[3])
        return CommandRun(start, end - start, code, rss_kib / 1024, out_path.stat().st_size)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setup_time(spawner: Spawner, scratch: Path) -> float:
    """Seconds from spawning an interpreter until the cli is imported and its parser built."""
    out, err = scratch / "probe.out", scratch / "probe.err"
    run = spawner.run([sys.executable, "-c", PROBE], out, err)
    if run.exit_code != 0:
        raise SetupError(f"cannot import hurwitzdiv.cli from {SRC}: {err.read_text()[-400:]}")
    ready, module_file = out.read_text().split("\n", 1)
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise SetupError(f"hurwitzdiv.cli was imported from {module_file}, not from {SRC}")
    return float(ready) - run.start


def load_serialize():
    """The package's serialize module, for the round-trip check only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hurwitzdiv.serialize as serialize

    return serialize


class Runner:
    """Runs rounds of one workload and checks every output."""

    def __init__(self, ops: list[workloads.Op], spawner: Spawner, scratch: Path,
                 trace_dir: Path) -> None:
        self.ops = ops
        self.spawner = spawner
        self.scratch = scratch
        self.trace_dir = trace_dir
        # Keyed by argv: a workload may run the same command more than once a round.
        self.reference: dict[tuple[str, ...], str] = {}
        self.items: dict[tuple[str, ...], int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []

    def run_round(self, number: int, traced: bool) -> Round:
        result = Round()
        for n, op in enumerate(self.ops):
            out = self.scratch / f"op{n}.out"
            if traced:
                trace = self.trace_dir / f"r{number}-op{n}.json"
                err = trace.with_suffix(".err")
                argv = [sys.executable, "-X", "importtime", str(HERE / "traced_entry.py"),
                        str(trace), *op.argv]
            else:
                trace, err = None, self.scratch / f"op{n}.err"
                argv = [sys.executable, "-c", LAUNCH, *op.argv]
            run = self.spawner.run(argv, out, err)
            run.trace = trace
            result.commands.append(run)
            self.attempted += 1
            if run.exit_code != 0:
                self.failed += 1
                self.failures.append(
                    f"exit {run.exit_code}: hurwitzdiv {' '.join(op.argv)}: "
                    f"{err.read_text(errors='replace')[-300:]}")
                continue
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if op.argv not in self.reference:
                self.reference[op.argv] = digest
                out.rename(self.first_output(n))
            elif digest != self.reference[op.argv]:
                self.check_errors.append(f"output changed between runs: {' '.join(op.argv)}")
        return result

    def first_output(self, n: int) -> Path:
        return self.scratch / f"op{n}.first"

    def check_outputs(self) -> None:
        """Check the first output of every command; later ones matched it byte for byte."""
        for n, op in enumerate(self.ops):
            if op.argv in self.items or not self.first_output(n).exists():
                continue
            try:
                self.items[op.argv] = op.check(self.first_output(n).read_bytes())
            except (CheckError, KeyError, TypeError, ValueError) as exc:
                self.items[op.argv] = 0
                self.check_errors.append(f"check failed: hurwitzdiv {' '.join(op.argv)}: {exc!r}")

    def items_per_round(self) -> int:
        return sum(self.items.get(op.argv, 0) for op in self.ops)


def end_to_end(setup: list[float], ops: list[workloads.Op], rounds: list[Round],
               items: int) -> dict:
    wall = statistics.median(r.seconds for r in rounds)
    runs_of: dict[tuple[str, ...], list[float]] = {}
    for r in rounds:
        for op, command in zip(ops, r.commands):
            runs_of.setdefault(op.argv, []).append(command.seconds)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "cmd_median_s": (statistics.median(statistics.median(t) for t in runs_of.values()), "s"),
        "peak_rss_mb": (max(c.rss_mb for r in rounds for c in r.commands), "MB"),
    }


def import_self_s(err_path: Path) -> dict[str, float]:
    """Per-layer self time of importing the layer's module, from `-X importtime`."""
    found: dict[str, float] = {}
    for line in err_path.read_text(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        module = fields[2]
        if module.startswith("hurwitzdiv.") and module.split(".")[1] in LAYERS:
            found[module.split(".")[1]] = int(fields[0]) / 1e6
    return found


def layer_figures(traced: Round) -> dict:
    """Per-layer self times and counts of one traced round."""
    counts: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    recipes = spans = 0
    oracle_s = 0.0
    import_s = []
    for command in traced.commands:
        if command.exit_code != 0:
            continue
        trace = json.loads(command.trace.read_text())
        counts.update(trace["counts"])
        self_s.update(trace["self_s"])
        self_s.update(import_self_s(command.trace.with_suffix(".err")))
        recipes += len(trace["recipes"])
        spans += len(trace["spans"])
        oracle_s += trace["oracle_s"]
        import_s.append(trace["import_s"])
    c = counts.get
    built = c("lowslope.recipes_built", 0)
    figures = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    figures.update({
        "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
        "serialize.bytes_out": (sum(cmd.out_bytes for cmd in traced.commands), "bytes"),
        "bigness.margin_evals": (c("bigness.stack_inequality_lhs", 0)
                                 + c("bigness.coarse_inequality_lhs", 0), "count"),
        "bigness.verify_calls": (c("bigness.verify_stack", 0) + c("bigness.verify_coarse", 0), "count"),
        "hurwitz.index_set_calls": (c("hurwitz.boundary_index_set", 0), "count"),
        "hurwitz.index_rows": (c("hurwitz.index_rows", 0), "count"),
        "hurwitz.class_builds": (c("hurwitz.HurwitzClass.make", 0), "count"),
        "lowslope.recipes_built": (built, "count"),
        "lowslope.recipe_useful_ratio": (recipes / built if built else 1.0, "ratio"),
        "pushpull.product_terms": (c("pushpull.product_terms", 0), "count"),
        "spaces.basis_builds": (c("spaces.Space.basis", 0), "count"),
        "spaces.coefficient_lookups": (c("spaces.DivisorClass.coefficient", 0), "count"),
        "partitions.harmonic_calls": (c("partitions.harmonic_inverse", 0), "count"),
        "partitions.partition_builds": (c("partitions.Partition.__post_init__", 0), "count"),
        "partitions.oracle_s": (oracle_s, "s"),
        "trace.spans": (spans, "count"),
    })
    return figures


def per_layer(plain: list[Round], traced: list[Round]) -> dict:
    per_round = [layer_figures(r) for r in traced]
    figures = {name: (statistics.median(f[name][0] for f in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    overhead = (statistics.median(r.seconds for r in traced)
                - statistics.median(r.seconds for r in plain))
    figures["trace.overhead_s"] = (overhead, "s")
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hurwitzdiv" / "cli.py").is_file():
        print(f"error: no hurwitzdiv sources under {SRC}", file=sys.stderr)
        return 2
    scratch = RESULTS / f"work-{os.getpid()}"
    trace_dir = RESULTS / "traces" / args.workload
    for directory in (scratch, trace_dir) if args.trace else (scratch,):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    spawner = Spawner()
    try:
        try:
            setup_time(spawner, scratch)  # warm-up: fills the bytecode cache of a fresh checkout
            setup = [setup_time(spawner, scratch) for _ in range(SETUP_STARTS)]
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ops = workloads.build(args.workload, args.seed, load_serialize)
        runner = Runner(ops, spawner, scratch, trace_dir)
        plain: list[Round] = []
        traced: list[Round] = []
        start = time.monotonic()
        while True:
            plain.append(runner.run_round(len(plain), traced=False))
            if args.trace:
                traced.append(runner.run_round(len(traced), traced=True))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(plain) > args.seconds:
                break
        setup += [setup_time(spawner, scratch) for _ in range(SETUP_STARTS)]
        runner.check_outputs()
    finally:
        spawner.close()
        shutil.rmtree(scratch, ignore_errors=True)

    items = runner.items_per_round()
    if args.trace:
        figures = per_layer(plain, traced)
    else:
        figures = end_to_end(setup, ops, plain, items)
    for message in runner.failures + runner.check_errors:
        print(message, file=sys.stderr)
    for name, (value, unit) in figures.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not runner.check_errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()},
    }
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setup, "items_per_round": items,
        "plain_round_s": [r.seconds for r in plain], "traced_round_s": [r.seconds for r in traced],
        "command_s": [[c.seconds for c in r.commands] for r in plain],
        "failures": runner.failures, "check_errors": runner.check_errors, "result": result,
    }
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(raw, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
