#!/usr/bin/env python3
"""Differential test of Regexlite against CPython's `re` (`make regex-diff`).

Generates seeded random patterns over `a`/`b` with every quantifier
form (`* + ? {m} {m,n} {m,}`) over every kind of body, nullable bodies
and empty alternatives included, and random short inputs.  Each
(pattern, input) pair is answered by CPython (`re.match` end,
`re.fullmatch`, `re.search` span) and by the library through
`regex_diff.exe`, and the answers are compared.

Two kinds of pair are left out, counted and printed:
  - CPython runs past 0.2 s on it (an interval timer interrupts `re`);
  - the library's answer changes under 100x its default fuel.

Exits 1 on any other disagreement.  Lazy quantifiers, `$` before a
final newline, `{,n}` and a literal `{` are outside the generated
syntax.

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
        k = rng.randrange(12)
        if k == 0:
            return "*"
        if k == 1:
            return "+"
        if k == 2:
            return "?"
        if k == 3:
            return "{%d}" % rng.randrange(3)
        if k == 4:
            m = rng.randrange(3)
            return "{%d,%d}" % (m, m + rng.randrange(3))
        if k in (5, 6):
            return "{%d,}" % rng.randrange(3)
        return ""

    def node(depth):
        if depth == 0 or rng.randrange(3) > 0:
            atom = rng.choice(("a", "b", "[ab]", "."))
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
                    rng.choice("ab") for _ in range(rng.randrange(MAX_INPUT_LEN + 1))
                )
                try:
                    want = cpython_answer(pat, s)
                except Timeout:
                    timeouts += 1
                    continue
                cases.append((pat, s))
                expected.append(want)
    stdin = "".join("%s\t%s\n" % c for c in cases)
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
