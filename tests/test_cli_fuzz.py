"""Seeded mutation fuzz of the CLI over the golden corpus's input files.

Each case takes one entry of tests/data/cli_golden.json that reads input
files, mutates one of them (tokens and lines replaced, duplicated or
dropped, extreme numbers inserted) and runs the entry's command in-process
with a small node budget.  Whatever the input, the command must end with a
stable exit code (0 to 3), print no traceback and finish within CASE_SECONDS.
"""

import contextlib
import io
import json
import random
import signal
from pathlib import Path

import pytest

from dpcolor.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())
ENTRIES = [case for case in GOLDEN if any(a.startswith("@") for a in case["argv"])]

SEED = 1609
CASES = 1000
CASE_SECONDS = 5
NODE_BUDGET = "2000"
EXTREMES = ["0", "-1", "1", "2", "3", "31", "1000", "1001", "100000", "100001",
            "2147483648", "99999999999999999999", "-99999999999999999999",
            "1e3", "0x10", "nan", "+5", "", "x"]


def mutate(text, rng):
    """text with one to three random edits of its lines and tokens."""
    lines = [line.split() for line in text.splitlines()] or [[]]
    for _ in range(rng.randint(1, 3)):
        r = rng.randrange(len(lines))
        line = lines[r]
        edit = rng.choice(["replace", "duplicate", "drop", "insert",
                           "dup-line", "drop-line", "new-line"])
        c = rng.randrange(len(line)) if line else 0
        if edit == "replace" and line:
            line[c] = rng.choice(EXTREMES)
        elif edit == "duplicate" and line:
            line.insert(c, line[c])
        elif edit == "drop" and line:
            del line[c]
        elif edit == "insert":
            line.insert(c, rng.choice(EXTREMES))
        elif edit == "dup-line":
            lines.insert(r, list(line))
        elif edit == "drop-line" and len(lines) > 1:
            del lines[r]
        else:
            lines.insert(r, [rng.choice(EXTREMES) for _ in range(rng.randint(1, 4))])
    return "\n".join(" ".join(line) for line in lines) + "\n"


class CaseTimeout(BaseException):
    """Raised by the alarm; not an Exception, so the CLI cannot catch it."""


def _alarm(signum, frame):
    raise CaseTimeout


def cases():
    rng = random.Random(SEED)
    for index in range(CASES):
        entry = rng.choice(ENTRIES)
        files = [a for a in entry["argv"] if a.startswith("@")]
        target = rng.choice(files)
        yield index, entry, target, mutate((DATA / target[1:]).read_text(), rng)


def test_mutated_inputs_end_in_a_stable_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    previous = signal.signal(signal.SIGALRM, _alarm)
    exits = {}
    try:
        for index, entry, target, text in cases():
            mutated = tmp_path / f"case{index}-{target[1:]}"
            mutated.write_text(text)
            argv = ["--node-budget", NODE_BUDGET]
            argv += [str(mutated) if a == target else
                     str(DATA / a[1:]) if a.startswith("@") else a
                     for a in entry["argv"]]
            err = io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
            except CaseTimeout:
                pytest.fail(f"case {index} ({entry['id']}, {target}) ran over "
                            f"{CASE_SECONDS} s on:\n{text}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            detail = f"case {index} ({entry['id']}, {target}) on:\n{text}\n{err.getvalue()}"
            assert code in (0, 1, 2, 3), detail
            assert "Traceback" not in err.getvalue(), detail
            exits[code] = exits.get(code, 0) + 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the mutations reach past the parsers: some inputs still get an answer
    assert exits.get(0, 0) + exits.get(1, 0) > 0, exits
