"""Benchmark worker: one process per measured run.

Usage: python3 worker.py JOB_JSON

It caps its own address space when the job asks for it, imports semilab,
prints "ready" (the parent times spawn-to-ready as set-up), then runs the
workload's op list through ``semilab.cli.main`` pass after pass (see
run_job) until another pass would overrun the job's seconds.  Ops run one
after another, so this is a closed loop with one client.  Answers are
checked after each pass, outside the timed interval, in a forked child
without the cap.  A traced job runs each op traced and plain in turn, so
that the tracer's overhead is measured in the same process.  The last stdout
line is a JSON summary.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _set_cap(cap_mib):
    """Soft RLIMIT_AS of this process only; the hard limit stays, so a
    forked child can lift the cap again."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = hard if cap_mib is None else cap_mib << 20
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# The reference kernels: the benchmark's own code, the same for every
# version of the program.  One of them runs after each timed op, in turn, so
# that times can be given in units of their summed mean time (see run.py).
# Each follows the host's slowdowns the way one kind of op does; their sum
# followed every workload's ops better than any one of them.


def reference_keys() -> list:
    return [f"k{(i * 7919) % 1_000_003}" for i in range(200_000)]


def _index_keys(keys):
    """Index ``keys`` in a dict and look each one up: a working set of a few
    MiB, like the ops' hash tables."""
    index = {}
    for i, key in enumerate(keys):
        index[key] = i
    total = 0
    for key in reversed(keys):
        total += index[key]


def _rewrite_words(keys):
    """Breadth-first search over the words that swapping adjacent letters
    reaches from one word: branchy string code, like rewriting."""
    swaps = (("ab", "ba"), ("ba", "ab"), ("bc", "cb"), ("cb", "bc"),
             ("ca", "ac"), ("ac", "ca"))
    seen = {"abcabcabcabc": None}
    frontier = list(seen)
    while frontier and len(seen) < 5000:
        found = []
        for word in frontier:
            for old, new in swaps:
                pos = word.find(old)
                while pos != -1:
                    nxt = word[:pos] + new + word[pos + len(old):]
                    if nxt not in seen:
                        seen[nxt] = (word, pos)
                        found.append(nxt)
                    pos = word.find(old, pos + 1)
        frontier = found


def _encode_rows(keys):
    """Build many small tuples and encode them as JSON, like the reports."""
    rows = [(i, i * 7 % 13, str(i), (i, -i)) for i in range(40_000)]
    json.dumps(rows)
    return {row[2] for row in rows}


REFERENCE_KERNELS = (_index_keys, _rewrite_words, _encode_rows)


def reference_s(kernel: int, keys) -> tuple:
    """Wall and CPU seconds of one run of reference kernel ``kernel``."""
    gc.disable()
    try:
        t, c = time.perf_counter(), time.process_time()
        REFERENCE_KERNELS[kernel](keys)
        return time.perf_counter() - t, time.process_time() - c
    finally:
        gc.enable()


def run_op(main, argv):
    """Run one CLI op; returns (exit code, stdout text, error or None)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except MemoryError:
        return None, "", "MemoryError"
    except Exception as exc:  # an op that raises is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, "", repr(exc)
    return rc, buf.getvalue(), None


def run_job(ops, job, main, tracer=None) -> dict:
    """Run passes over ``ops`` (workloads.Op) for about job["seconds"].

    The first pass runs the ops in the listed order, with nothing else in
    the process yet, and gives the peak RSS; it also warms up the process
    and is not timed.  The timed passes follow in seed-shuffled orders, with
    a reference kernel after each op.  With a ``tracer``, a timed pass runs
    each op twice in a row, once with the tracer installed and once without,
    the traced run first for every other op; the pair's times differ by the
    tracer's overhead and little host drift.

    An op fails if it raises (a MemoryError under the cap included) or its
    answer is wrong.  A report byte-identical to one already checked for the
    same op gets that check's verdict again without re-running it, so that
    the checks leave more of the run to timed passes."""
    rng = random.Random(job["seed"])
    traced_main = tracer.wrap("cli.main", main) if tracer else None
    passes = []
    verdict_of = {}
    attempted = failed = timed = 0
    problems = []
    start = time.perf_counter()
    keys = peak_rss = None
    while True:
        order = list(range(len(ops)))
        if keys is not None:
            rng.shuffle(order)
        if tracer is not None:
            tracer.reset()
        results = []  # (op index, exit code, report, error, wall, cpu, traced)
        traced_wall = 0.0
        refs = []
        for i in order:
            modes = (False,)
            if tracer is not None and keys is not None:
                modes = (True, False) if timed % 2 == 0 else (False, True)
            for traced in modes:
                if traced:
                    tracer.install()
                cpu0, t0 = time.process_time(), time.perf_counter()
                rc, out, err = run_op(traced_main if traced else main,
                                      ops[i].resolve(job["input_dir"]))
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                if traced:
                    tracer.uninstall()
                    traced_wall += wall
                results.append((i, rc, out, err, wall, cpu, traced))
            if keys is not None:
                kernel = timed % len(REFERENCE_KERNELS)
                refs.append((kernel, *reference_s(kernel, keys)))
                timed += 1
        if keys is None:
            peak_rss = _peak_rss_mib()
            keys = reference_keys()
        else:
            plain = [r for r in results if not r[6]]
            record = {
                "wall_s": sum(r[4] for r in plain),
                "cpu_s": sum(r[5] for r in plain),
                "reference": refs,
                "report_bytes": sum(len(r[2]) for r in plain),
                "op_s": {ops[r[0]].label: r[4] for r in plain}}
            if tracer is not None:
                record["traced_wall_s"] = traced_wall
                record["trace"] = tracer.summary()
            passes.append(record)

        keyed = [((i, rc, err, hashlib.sha256(out.encode()).hexdigest()),
                  i, rc, out, err) for i, rc, out, err, *_ in results]
        todo = [r for r in keyed if r[0] not in verdict_of]
        if todo:
            verdict_of.update(zip([r[0] for r in todo], in_child(lambda: [
                [err] if err else ops[i].check(rc, out, job["input_dir"])
                for _, i, rc, out, err in todo])))
        for key, i, *_ in keyed:
            attempted += 1
            if verdict_of[key]:
                failed += 1
                problems.append({"op": ops[i].label,
                                 "problems": verdict_of[key][:5]})

        elapsed = time.perf_counter() - start
        if passes and timed >= len(REFERENCE_KERNELS) and \
                elapsed * (len(passes) + 2) / (len(passes) + 1) > \
                job["seconds"]:
            break
    return {"passes": passes, "peak_rss_mib": peak_rss,
            "attempted": attempted, "failed": failed,
            "problems": problems[:20]}


def in_child(fn):
    """Return fn() computed in a forked child without the cap, so that the
    answer checks count neither against this worker's cap nor its peak RSS.
    ``fn`` must return JSON data."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            _set_cap(None)
            with os.fdopen(wfd, "w") as fh:
                json.dump(fn(), fh)
            code = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("the answer-check process failed")
    return json.loads(data)


def main():
    job = json.loads(sys.argv[1])
    _set_cap(job["cap_mib"])
    sys.path.insert(0, job["src"])
    import semilab.cli

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
    print("ready", flush=True)
    if job["setup_only"]:
        return
    from workloads import WORKLOADS
    ops = WORKLOADS[job["workload"]]
    print(json.dumps(run_job(ops, job, semilab.cli.main, tracer)),
          flush=True)


if __name__ == "__main__":
    main()
