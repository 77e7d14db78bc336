#!/usr/bin/env python3
"""Differential test of Regexlite against CPython's `re` (`make regex-diff`).

Generates seeded random patterns over `a`/`b` with every quantifier
form (`* + ? {m} {m,n} {m,} {,n}`), greedy and lazy, over every kind
of body, nullable bodies and empty alternatives included, plus `{`
and `}` atoms that start no repeat, and random short inputs over
`a`/`b`/`{`, some with a final newline.  Each (pattern, input) pair
is answered by CPython (`re.match` end, `re.fullmatch`, `re.search`
span) and by the library through `regex_diff.exe`, and the answers
are compared.  Inputs go to `regex_diff.exe` one per line with a
newline written as `\\n` (no generated input holds a backslash).

Two kinds of pair are left out, counted and printed:
  - CPython runs past 0.2 s on it (an interval timer interrupts `re`);
  - the library's answer changes under 100x its default fuel.

Exits 1 on any other disagreement.  CPython 3.11's possessive
repeats (`a*+`) are outside the generated syntax.

usage: regex_diff.py [path/to/regex_diff.exe]
"""

import random
import re
import signal
import subprocess
import sys

SEEDS = (1, 2, 3, 4)
PATTERNS_PER_SEED = 1000
INPUTS_PER_PATTERN = 10
MAX_INPUT_LEN = 8
CPYTHON_TIMEOUT_S = 0.2
DEFAULT_EXE = "_build/default/test/regex_diff/regex_diff.exe"


def gen_pattern(rng, depth=2):
    def quant():
        k = rng.randrange(13)
        if k == 0:
            q = "*"
        elif k == 1:
            q = "+"
        elif k == 2:
            q = "?"
        elif k == 3:
            q = "{%d}" % rng.randrange(3)
        elif k == 4:
            m = rng.randrange(3)
            q = "{%d,%d}" % (m, m + rng.randrange(3))
        elif k in (5, 6):
            q = "{%d,}" % rng.randrange(3)
        elif k == 7:
            q = "{,%d}" % rng.randrange(3)
        else:
            return ""
        return q + "?" if rng.randrange(3) == 0 else q

    def node(depth):
        if depth == 0 or rng.randrange(3) > 0:
            atom = rng.choice(("a", "b", "[ab]", ".", "a", "b", "{", "}"))
        else:
            alts = [seq(depth - 1) for _ in range(1 + rng.randrange(3))]
            atom = "(" + "|".join(alts) + ")"
        return atom + quant()

    def seq(depth):
        items = [node(depth) for _ in range(rng.randrange(4))]
        if rng.randrange(20) == 0:
            items.insert(0, "^")
        if rng.randrange(20) == 0:
            items.append("$")
        return "".join(items)

    return seq(depth)


class Timeout(Exception):
    pass


def on_alarm(_signum, _frame):
    raise Timeout()


def cpython_answer(pat, s):
    rx = re.compile(pat)
    signal.setitimer(signal.ITIMER_REAL, CPYTHON_TIMEOUT_S)
    try:
        m = rx.match(s)
        f = rx.fullmatch(s)
        sr = rx.search(s)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return "%s\t%d\t%s" % (
        "-" if m is None else m.end(),
        f is not None,
        "-" if sr is None else "%d,%d" % sr.span(),
    )


def main():
    exe = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_EXE
    signal.signal(signal.SIGALRM, on_alarm)
    cases, expected = [], []
    timeouts = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(PATTERNS_PER_SEED):
            pat = gen_pattern(rng)
            for _ in range(INPUTS_PER_PATTERN):
                s = "".join(
                    rng.choice("aaabbb{") for _ in range(rng.randrange(MAX_INPUT_LEN + 1))
                )
                if rng.randrange(4) == 0:
                    s += "\n"
                try:
                    want = cpython_answer(pat, s)
                except Timeout:
                    timeouts += 1
                    continue
                cases.append((pat, s))
                expected.append(want)
    stdin = "".join("%s\t%s\n" % (pat, s.replace("\n", "\\n")) for pat, s in cases)
    out = subprocess.run(
        [exe], input=stdin, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    if len(out) != len(cases):
        sys.exit("regex-diff: %d answers for %d cases" % (len(out), len(cases)))
    fuel = 0
    disagreements = []
    for (pat, s), want, got in zip(cases, expected, out):
        if got.endswith("\t1"):
            fuel += 1
            continue
        got = got[: -len("\t0")] if got.endswith("\t0") else got
        if got != want:
            disagreements.append((pat, s, want, got))
    total = len(cases) + timeouts
    print(
        "regex-diff: %d pairs, %d compared, %d disagreements; excluded: "
        "%d CPython timeouts (> %.1f s), %d fuel-sensitive (answer changes "
        "under 100x fuel)"
        % (total, len(cases) - fuel, len(disagreements), timeouts,
           CPYTHON_TIMEOUT_S, fuel)
    )
    for pat, s, want, got in disagreements[:10]:
        print("  %r on %r: CPython %r, library %r" % (pat, s, want, got))
    sys.exit(1 if disagreements else 0)


if __name__ == "__main__":
    main()
