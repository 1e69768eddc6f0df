"""Seeded mutation fuzz of the CLI over the golden corpus's input files.

Each case takes one entry of tests/data/cli_golden.json that reads input
files, mutates one of them and runs the entry's command in-process with a
small node budget.  Whatever the input, the command must end with a stable
exit code (0 to 3), print no traceback and finish within CASE_SECONDS.

Two seeded batches.  The first edits freely (tokens and lines replaced,
duplicated or dropped, extreme numbers inserted), so most of its inputs
stop at a parser.  The second keeps each line's shape and every number in
range, so most of its inputs reach the solvers.
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
IN_RANGE_SEED = 2718
IN_RANGE_CASES = 300
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


def edit_in_range(text, suffix, rng):
    """text with one to three edits that keep each line's shape: a field
    set, a data line dropped or a data line added.  Vertices stay in 1..n,
    the two ends of a pair distinct and ascending, multiplicities in 1..3,
    list sizes in 0..4 and color indices in 1..4.  A graph's new pair is
    one it lacks while there is one."""
    lines = [line.split() for line in text.splitlines() if line.split()]
    if suffix == ".lists":  # 'v color ...' for every vertex, no header
        n, first = len(lines), 0
    else:  # a graph's data starts on line 2, a cover's after its sizes line
        n, first = int(lines[0][0]), 1 if suffix == ".graph" else 2
    ends = (0, 1) if suffix == ".graph" else (0, 2)  # the vertex fields

    def colors():
        return rng.sample("abcd", rng.randint(0, 4))

    def new_line():
        if suffix == ".lists":
            return [str(rng.randint(1, n))] + colors()
        line = [str(rng.randint(1, 3 if suffix == ".graph" else 4))
                for _ in range(3 if suffix == ".graph" else 4)]
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        if suffix == ".graph":
            have = {(int(a), int(b)) for a, b, _ in lines[first:]}
            pairs = [pair for pair in pairs if pair not in have] or pairs
        for c, v in zip(ends, rng.choice(pairs)):
            line[c] = str(v)
        return line

    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(["set", "set", "drop-line", "new-line"])
        if edit == "new-line" or len(lines) == first:
            lines.insert(rng.randint(first, len(lines)), new_line())
        elif edit == "drop-line":
            del lines[rng.randrange(first, len(lines))]
        elif suffix == ".lists":
            row = rng.randrange(len(lines))
            lines[row] = new_line()[:1] + lines[row][1:] if rng.random() < 0.5 \
                else lines[row][:1] + colors()
        elif suffix == ".cover" and rng.random() < 0.3:  # the sizes line
            sizes = lines[1]
            sizes[rng.randrange(len(sizes))] = str(rng.randint(0, 4))
        else:
            row = rng.randrange(first, len(lines))
            c = rng.randrange(len(lines[row]))
            # a vertex field redraws both ends, another field only itself
            lines[row] = [old if d != c and (c not in ends or d not in ends) else new
                          for d, (old, new) in enumerate(zip(lines[row], new_line()))]
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


def in_range_cases():
    rng = random.Random(IN_RANGE_SEED)
    for index in range(IN_RANGE_CASES):
        entry = rng.choice(ENTRIES)
        files = [a for a in entry["argv"] if a.startswith("@")]
        target = rng.choice(files)
        path = DATA / target[1:]
        yield index, entry, target, edit_in_range(path.read_text(), path.suffix, rng)


def run_cases(tmp_path, batch):
    """Run each case's command on its mutated file; returns {exit code: count}."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    exits = {}
    try:
        for index, entry, target, text in batch:
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
    return exits


def test_mutated_inputs_end_in_a_stable_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exits = run_cases(tmp_path, cases())
    # the mutations reach past the parsers: some inputs still get an answer
    assert exits.get(0, 0) + exits.get(1, 0) > 0, exits


def test_in_range_edits_reach_the_search(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exits = run_cases(tmp_path, in_range_cases())
    assert 2 * (exits.get(0, 0) + exits.get(1, 0)) >= IN_RANGE_CASES, exits
