"""Print the statements of `src/frontlab/` that a run never executes.

    python tests/line_coverage.py            # the tier-1 suite
    python tests/line_coverage.py --bench    # every benchmark job once
    python tests/line_coverage.py --bench --seed 12345

No coverage package is needed: the run goes under `sys.settrace`, which
traces only frames of `src/frontlab/` and stops tracing a code object once
all of its lines have run.  Tracing starts before frontlab is imported, so
module-level statements count.  A statement is reported when none of the
lines that carry its own bytecode ran (a compound statement's header, not
its body); statements with no bytecode (docstrings, `global`) are never
reported.  Output goes to stdout only: no bytecode, pytest cache or
hypothesis database is written.  The tier-1 pass takes about 1.5 minutes
on a 2-vCPU host, some 2.5x the untraced suite.

Two tests are deselected: `TestAreaDensity`'s
`test_det3_single_point_is_a_batch_row` and `test_dot_equals_einsum` in
`tests/test_front.py`.  Their premise is that a single point's arithmetic
on numpy scalars gives the NaN signs of a batch row, which holds only
where CPython specializes those operations; a tracer turns specialization
off, so both fail under any tracer, with no change to frontlab.
"""

import argparse
import ast
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frontlab"
TRACER_SENSITIVE = (
    "tests/test_front.py::TestAreaDensity::test_det3_single_point_is_a_batch_row",
    "tests/test_front.py::TestAreaDensity::test_dot_equals_einsum",
)


def _code_lines(code):
    """The lines of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


class LineTracer:
    """Records the lines run in files under `root`."""

    def __init__(self, root):
        self.root = str(root)
        self.hit = {}  # filename -> set of line numbers
        self.todo = {}  # code object -> its lines not yet run

    def __call__(self, frame, event, arg):
        code = frame.f_code
        todo = self.todo.get(code)
        if todo is None:
            if not code.co_filename.startswith(self.root):
                self.todo[code] = todo = set()
            else:
                todo = {line for _, _, line in code.co_lines() if line}
                self.todo[code] = todo
                self.hit.setdefault(code.co_filename, set())
        if not todo:
            return None
        hit = self.hit[code.co_filename]
        # a function's first line (its def or first decorator) starts no
        # line event in its own frame; the enclosing scope ran it
        hit.add(frame.f_lineno)
        todo.discard(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
                todo.discard(frame.f_lineno)
                if not todo:
                    return None
            return local

        return local


def _statements(tree):
    """(statement, the lines that belong to it and not to a nested body)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        bodies = [b for field in ("body", "orelse", "finalbody", "handlers")
                  for b in getattr(node, field, ()) or ()]
        last = min((b.lineno for b in bodies), default=node.end_lineno + 1) - 1
        yield node, range(first, max(first, last) + 1)


def missed(path, hit):
    """(line, source line) of each statement of `path` that never ran."""
    source = path.read_text()
    lines = source.splitlines()
    runnable = _code_lines(compile(source, str(path), "exec"))
    out = []
    for node, own in _statements(ast.parse(source)):
        carried = runnable.intersection(own)
        if carried and not carried & hit:
            out.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(out)


class _NoExampleDatabase:
    """pytest plugin: hypothesis keeps no example database."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("line_coverage", database=None)
        settings.load_profile("line_coverage")


def _run_tests():
    import pytest

    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
            str(ROOT / "tests")]
    for test in TRACER_SENSITIVE:
        args += ["--deselect", test]
    return pytest.main(args, plugins=[_NoExampleDatabase()])


def _run_bench(seed):
    import test_bench_jobs

    failed = 0
    for workload in sorted(test_bench_jobs.BENCH.BUILDERS):
        for job in test_bench_jobs.BENCH.setup(workload, seed):
            try:
                job.run()
            except Exception as exc:  # a failing job is reported, the rest still run
                failed += 1
                print(f"{workload} {job.name}: {type(exc).__name__}: {exc}")
    return int(failed > 0)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="run every benchmark job once instead of tier-1")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the benchmark jobs (default 7)")
    opts = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    tracer = LineTracer(PACKAGE)
    sys.settrace(tracer)
    try:
        status = _run_bench(opts.seed) if opts.bench else _run_tests()
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        gaps = missed(path, tracer.hit.get(str(path), set()))
        total += len(gaps)
        for line, text in gaps:
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{total} statements of {PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
