"""Run Tier-1 and print every executable line of src/ipj that no test reached.

    python3.12 tools/reached.py [pytest arguments]

A `sys.monitoring` LINE hook (PEP 669, Python 3.12 or later) is installed
before `ipj` is imported; Tier-1 then runs in this process through
`pytest.main`. Code that tests start in a subprocess is not traced, so a
line that only such code runs needs an entry in `REASONS`, keyed by its
module and its stripped source text. The exit code is pytest's when the
tests fail, 1 when an unreached line has no reason or a listed line is
reached or gone (so the list cannot outlive its reasons), and 0 otherwise.
"""

import sys

if sys.version_info < (3, 12):
    sys.exit("reached.py needs Python 3.12 or later (sys.monitoring)")

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ipj"

# (module, stripped line) -> why Tier-1 does not reach that line in process
_MAIN = "runs only as `python -m ipj`, in the subprocess of test_cli.py's test_python_m_ipj"
_PIPE = ("runs only when stdout is closed, in the subprocesses of test_cli.py's "
         "test_a_closed_stdout_keeps_the_verdicts_code")
REASONS = {
    ("__main__.py", "import sys"): _MAIN,
    ("__main__.py", "from .cli import main"): _MAIN,
    ("__main__.py", 'if __name__ == "__main__":'): _MAIN,
    ("__main__.py", "sys.exit(main())"): _MAIN,
    ("cli.py", "except BrokenPipeError:"): _PIPE,
    ("cli.py", "devnull = os.open(os.devnull, os.O_WRONLY)"): _PIPE,
    ("cli.py", "os.dup2(devnull, sys.stdout.fileno())"): _PIPE,
    ("cli.py", "os.close(devnull)"): _PIPE,
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m ipj.cli`, in the subprocess of test_cli.py's test_python_m_ipj",
    ("proofcheck.py", 'raise NoMatch("too many opaque subformulas for the tautology check")'):
        "the tautology leaf cap, which ROADMAP item 9 replaces; "
        "a test here would pin a verdict that item calls wrong",
}


def executable_lines(code, out):
    """Add the lines of `code` and of every code object nested in it to `out`."""
    for _, _, line in code.co_lines():
        if line:  # None, or a module's line-0 pseudo-line
            out.add(line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            executable_lines(const, out)
    return out


def main(args):
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    reached = set()
    prefix = str(PACKAGE) + "/"

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            reached.add((code.co_filename, line))
        return mon.DISABLE

    mon.use_tool_id(tool, "reached")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args, str(ROOT / "tests")])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    imported = sys.modules.get("ipj")
    if imported is not None and not str(imported.__file__).startswith(prefix):
        sys.exit(f"reached.py: the tests imported ipj from {imported.__file__}, not from {PACKAGE}")

    unlisted, excused = 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = executable_lines(compile(source, str(path), "exec"), set())
        for line in sorted(lines):
            if (str(path), line) in reached:
                continue
            stripped = text[line - 1].strip()
            reason = REASONS.get((path.name, stripped))
            print(f"{path.name}:{line}: {stripped}" + (f"  [{reason}]" if reason else ""))
            unlisted += reason is None
            excused.add((path.name, stripped))
    stale = REASONS.keys() - excused
    for module, stripped in sorted(stale):
        print(f"reached.py: a listed line is reached or gone: {module}: {stripped}")
    print(f"reached.py: {unlisted} unreached line(s) without a listed reason")
    if status != 0:
        return int(status)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
