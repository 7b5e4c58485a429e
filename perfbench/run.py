#!/usr/bin/env python3
"""The varcong benchmark: fixed lists of CLI operations, timed and checked.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 10 --trace 0

One process, one thread.  Each operation is one call of varcong.cli.main(argv)
with stdout captured (stdin carries the block list for `classify`).  A run
sets up (imports varcong, builds the workload's first context), then repeats
whole rounds of the workload's operation list until their operations have
taken --seconds in all, so a run is one round when a round takes longer.
Each round's outputs are checked as soon as it ends, outside the timings,
against computations made apart from the program (checks.py) and against
perfbench/reference.json, which perfbench/reference.py regenerates from
the oracle.

Times are CPU seconds of the program's thread, scaled to a reference
speed of the host by a speed probe sampled during operations (speed.py), so
that outside load on a shared host, which slows the process for seconds to
minutes at a time, does not move them.  Raw CPU and wall times go to the
detail file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
round and then one round with spans around every layer (tracer.py), and
prints the per-layer metrics, among them the traced round time and the
tracing overhead: traced round time over untraced round time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Per-operation timings and the span dump go to perfbench/out/.
"""

import argparse
import contextlib
import ctypes
import gc
import io
import json
import random
import re
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import speed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

HEADLINE, JOINS = "4: 1 2 3 3", "4: 1 1 3 3"

# workload -> the sandwich of its first build_context, timed in set-up
SETUP_SANDWICH = {"headline": HEADLINE, "joins": JOINS, "sweep": "4: 1 2 3 4"}


def set_up(workload):
    """Import varcong from this checkout and build the first context."""
    sys.path.insert(0, str(SRC))
    try:
        import varcong.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import varcong from {SRC}: {exc}")
    if SRC not in Path(varcong.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: varcong was imported from {varcong.cli.__file__}, "
                 f"not from {SRC}")
    varcong.build_context(SETUP_SANDWICH[workload])
    # the main thread's CPU time since the process started: interpreter
    # start, imports, first context
    setup_cpu_s = time.thread_time()
    # collections during operations then scan only what operations allocate
    gc.collect()
    gc.freeze()
    return varcong.cli, setup_cpu_s


# glibc's malloc_trim hands freed heap pages back to the system, so that
# the heap left by earlier operations, which the seed orders, does not
# add to peak_rss_mb; a no-op where the C library lacks it
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)


class Runner:
    """Calls cli.main(argv) with captured streams and records each operation.

    main is looked up on the module at each call, so that a tracer's
    wrapper around it is the one called.  Garbage left by the previous
    operation is collected, untimed, before each call, so every operation
    starts from the same collector state, as it would in a fresh CLI
    process, whatever order the seed chose.

    An operation is timed in the CPU time of this thread, the one the
    program runs on; that leaves out the time the host gives to other
    tenants, and the idle spinning of numpy's own worker threads.  Outside
    load also slows the CPU time itself, so the prober (speed.py) samples
    the host's speed during the operations, and finish() scales each
    operation's CPU time to the probe's reference speed.
    """

    def __init__(self, cli, prober, tracer=None):
        self.cli = cli
        self.prober = prober
        self.tracer = tracer
        self.ops = []
        self.position = 0.0  # CPU seconds of this round's operations so far
        prober.start_round()

    def __call__(self, kind, a, argv, stdin=""):
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        error = None
        gc.collect()
        _malloc_trim(0)
        start, start_cpu = time.perf_counter(), time.thread_time()
        self.prober.arm(self.position)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # an operation that fails is counted, not fatal
            rc, error = None, f"{exc!r} {err.getvalue()[-300:]}"
        finally:
            probe_cpu, probe_wall = self.prober.disarm()
            cpu_s = time.thread_time() - start_cpu - probe_cpu
            wall_s = time.perf_counter() - start - probe_wall
            sys.stdin = saved_stdin
        op = {"kind": kind, "sandwich": a, "argv": argv, "stdin": stdin,
              "key": (tuple(argv), hash(stdin)), "rc": rc, "error": error,
              "stdout": out.getvalue(), "at": self.position, "cpu_s": cpu_s,
              "wall_s": wall_s}
        self.position += cpu_s
        self.ops.append(op)
        return op

    def finish(self):
        speed.scale(self.ops, self.prober.finish_round(self.position))


def lattice_round(run, a, seed):
    """The lattice commands on one sandwich, and classify on every congruence.

    The block output comes first: it supplies the classify inputs.  The
    other five commands sit at evenly spaced places among the classify
    calls, so a burst of load from outside the process, seconds long, slows
    a share of the classify calls rather than all of them.
    """
    blocks = run("blocks", a, ["congruences", "--a", a, "--method", "structural"])
    others = [
        ("both", ["congruences", "--a", a, "--method", "both"]),
        ("json", ["congruences", "--a", a, "--method", "structural", "--format", "json"]),
        ("height", ["height", "--a", a, "--format", "json"]),
        ("eggbox", ["eggbox", "--a", a]),
        ("image_t", ["congruences", "--a", a, "--semigroup", "image-T", "--method", "both"]),
    ]
    lines = blocks["stdout"].splitlines()
    order = random.Random(seed).sample(range(len(lines)), len(lines))
    calls = [("classify", ["classify", "--a", a, "-"], lines[i]) for i in order]
    for j, (kind, argv) in reversed(list(enumerate(others))):
        calls.insert(len(order) * (j + 1) // (len(others) + 1), (kind, argv, ""))
    for kind, argv, stdin in calls:
        run(kind, a, argv, stdin)


def sweep_round(run, seed):
    """Structural enumeration on every idempotent sandwich, n <= 4, in two
    passes in different orders.  Each operation so runs twice, half a round
    apart, and its time is the better of the two (op_times)."""
    rng = random.Random(seed)
    for _ in range(2):
        sandwiches = checks.idempotent_sandwiches(4)
        rng.shuffle(sandwiches)
        for a in sandwiches:
            run("blocks", a, ["congruences", "--a", a, "--method", "structural"])


WORKLOADS = {
    "headline": lambda run, seed: lattice_round(run, HEADLINE, seed),
    "joins": lambda run, seed: lattice_round(run, JOINS, seed),
    "sweep": sweep_round,
}


def _report(text):
    """The CLI's 'key = value' report as a dict of strings."""
    return dict(line.split(" = ", 1) for line in text.splitlines())


# wall-clock fields ("oracle_seconds = 7.98") are the only part of the
# output that varies between runs; they count as one digit
_TIMING = re.compile(r'(_seconds"?(?: =|:) )[0-9.]+')


def _stdout_bytes(ops):
    return sum(len(_TIMING.sub(r"\g<1>0", op["stdout"]).encode()) for op in ops)


_DCLASS = re.compile(r"D-class \d+ \(depth \d+\): (\d+) R x (\d+) L, H-size (\d+)")


def _eggbox_sizes(text):
    """Elements per semigroup counted off the egg-box text: sum of R*L*H."""
    sizes, name = {}, None
    for line in text.splitlines():
        if line.startswith("== "):
            name = line.strip("= ")
            sizes[name] = 0
        elif m := _DCLASS.match(line):
            r, l, h = map(int, m.groups())
            sizes[name] += r * l * h
    return sizes


def check_ops(ops, ref):
    """Problems found in the outputs of the operations that did not fail."""
    problems = []
    tables = {}
    counts = defaultdict(set)
    layers, tally = None, Counter()

    for op in ops:
        if op["rc"] != 0:
            continue
        a, kind, out = op["sandwich"], op["kind"], op["stdout"]
        images = checks.parse_map(a)
        n, shape = len(images), checks.block_shape(images)
        want = ref["shapes"][checks.shape_key(shape)]
        found = []
        if kind == "both":
            p = _report(out)
            if not (p["match"] == "True" and p["only_oracle"] == p["only_structural"] == "0"
                    and int(p["oracle_count"]) == int(p["structural_count"])
                    == want["congruences"]):
                found.append(f"oracle and structural differ: {p}")
        elif kind == "blocks":
            if a not in tables:
                tables[a] = checks.star_table(a)
            found, count = checks.check_congruence_lines(tables[a], out)
            counts[shape].add(count)
            if count != want["congruences"]:
                found.append(f"{count} congruences, reference {want['congruences']}")
            if len(shape) == 1 and count != checks.bell(n):
                found.append(f"rank 1 gives {count}, not Bell({n}) = {checks.bell(n)}")
        elif kind == "json":
            p = json.loads(out)
            layers = p["layers"]
            if not (p["size"] == sum(layer["size"] for layer in layers)
                    == want["congruences"] and p["height"] == want["height"]):
                found.append(f"size {p['size']} height {p['height']} against {want}")
        elif kind == "height":
            p = json.loads(out)
            closed = checks.height_closed_form(n, shape)
            if not (p["match"] is True and p["formula"] == p["search"] == closed
                    == want["height"]):
                found.append(f"formula {p['formula']} search {p['search']}, "
                             f"closed form {closed}, reference {want['height']}")
        elif kind == "eggbox":
            r = len(shape)
            expect = {"full-variant": n ** n, "regular-part": want["elements"],
                      "image-T": r ** r}
            if _eggbox_sizes(out) != expect:
                found.append(f"egg-box sizes {_eggbox_sizes(out)}, expected {expect}")
        elif kind == "image_t":
            p = _report(out)
            monoid = ref["image_monoids"][str(len(shape))]["congruences"]
            if not (p["match"] == "True" and int(p["chain_count"])
                    == int(p["oracle_count"]) == monoid):
                found.append(f"chain {p['chain_count']} oracle {p['oracle_count']}, "
                             f"|Cong(T_r)| = {monoid}")
        elif kind == "classify":
            p = json.loads(out)
            classes = len(json.loads(op["stdin"]))
            if p == {"universal": True}:
                tally["universal"] += 1
                if classes != 1:
                    found.append("called universal with more than one class")
            else:
                tally[p["q"], p["N"]] += 1
                if not (p["psystem_rank"] >= p["q"] - 1 and p["csystem_rank"] >= p["q"] - 1
                        and p["classes"] == classes):
                    found.append(f"ranks or classes wrong: {p}")
        problems += [f"{kind} {a}: {msg}" for msg in found]

    if tally and layers is not None:
        # the universal congruence sits in the top layer
        want = Counter({(layer["q"], layer["N"]): layer["size"] for layer in layers})
        top = layers[-1]
        tally[top["q"], top["N"]] += tally.pop("universal", 0)
        if tally != want:
            problems.append(f"classify tally {dict(tally)} against layers {dict(want)}")
    for shape, found_counts in counts.items():
        if len(found_counts) > 1:
            problems.append(f"isomorphic sandwiches of shape {shape} disagree: "
                            f"counts {found_counts}")
    return problems


def _round_time(ops, key="seconds"):
    """Time of a round: its operations' times, without the untimed
    collections and probes between them; scaled CPU time by default."""
    return sum(op[key] for op in ops)


def op_times(rounds):
    """Each distinct operation's time: the least over its executions in the
    run, so that a burst of load from outside the process that slows one
    execution does not count when another escaped it."""
    best = {}
    for ops in rounds:
        for op in ops:
            best[op["key"]] = min(best.get(op["key"], op["seconds"]), op["seconds"])
    return list(best.values())


def run_rounds(cli, prober, workload, seed, seconds, ref, tracer=None):
    """Whole rounds until `seconds` of round time have passed.

    Each round is checked as soon as it ends, and its outputs are then
    dropped, so the memory held does not grow with the number of rounds.
    Returns the rounds (operations without their outputs), the problems
    found, the stdout bytes of each round, and the peak resident memory
    in MB through set-up and the first round, read before its checks.
    """
    rounds, problems, stdout_bytes, peak_rss_mb = [], [], [], None
    while not rounds or sum(map(_round_time, rounds)) < seconds:
        runner = Runner(cli, prober, tracer)
        WORKLOADS[workload](runner, seed)
        runner.finish()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += check_ops(runner.ops, ref)
        stdout_bytes.append(_stdout_bytes(runner.ops))
        rounds.append([{k: v for k, v in op.items() if k not in ("stdout", "stdin")}
                       for op in runner.ops])
    return rounds, problems, stdout_bytes, peak_rss_mb


def _metric(name, value):
    if name.endswith("_s"):
        unit = "s"
    elif name.endswith("_mb"):
        unit = "MB"
    elif name.endswith("_ratio"):
        unit = "ratio"
    else:
        unit = "count"
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, setup_cpu_s = set_up(args.workload)
    ref = json.loads((HERE / "reference.json").read_text())
    prober = speed.Prober()
    if args.trace:
        untraced, problems, _, _ = run_rounds(cli, prober, args.workload, args.seed, 0, ref)
        with Tracer(prober.clock) as tracer:
            t0 = prober.clock()
            rounds, traced_problems, stdout_bytes, _ = run_rounds(
                cli, prober, args.workload, args.seed, 0, ref, tracer)
        problems += traced_problems
        traced_s = _round_time(rounds[0])
        metrics = tracer.layer_metrics()
        metrics["cli.stdout_bytes"] = stdout_bytes[0]
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.round_s"] = traced_s
        metrics["trace.overhead_ratio"] = traced_s / _round_time(untraced[0])
        rounds = untraced + rounds
    else:
        rounds, problems, _, peak_rss_mb = run_rounds(cli, prober, args.workload,
                                                      args.seed, args.seconds, ref)
        # set-up is scaled by the host's speed over the first round: one
        # probe at set-up's end reads up to twice the usual in some runs
        setup_s = (setup_cpu_s * speed.REFERENCE_S
                   / statistics.median(s for _, s in prober.rounds[0]))
        metrics = {"setup_s": setup_s,
                   "round_s": statistics.median(_round_time(ops) for ops in rounds),
                   "op_median_s": statistics.median(op_times(rounds)),
                   "peak_rss_mb": peak_rss_mb}

    ops = [op for round_ops in rounds for op in round_ops]
    failed = [op for op in ops if op["rc"] != 0]
    for op in failed:
        print(f"failed: {' '.join(op['argv'])}: rc {op['rc']} {op['error'] or ''}",
              file=sys.stderr)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    result = {"correct": not problems, "attempted": len(ops), "failed": len(failed),
              "metrics": {name: _metric(name, value) for name, value in metrics.items()}}
    detail = dict(result, round_s=[_round_time(ops) for ops in rounds],
                  round_cpu_s=[_round_time(ops, "cpu_s") for ops in rounds],
                  round_wall_s=[_round_time(ops, "wall_s") for ops in rounds],
                  ops=[{k: op[k] for k in ("kind", "sandwich", "rc", "seconds",
                                           "cpu_s", "wall_s", "probe_s", "at")}
                       for op in ops])
    detail["samples"] = prober.rounds
    detail["setup_cpu_s"] = setup_cpu_s
    if args.trace:
        tracer.dump(OUT / f"spans_{stem}.json", t0)
        detail["span_totals_by_kind"] = tracer.totals_by_kind([op["kind"] for op in rounds[-1]])
    (OUT / f"result_{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
