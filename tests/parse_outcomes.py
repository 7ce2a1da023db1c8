"""The parse-outcome golden, tests/data/parse_outcomes.txt: about 2,000
texts, each parsed over one of GF(3), GF(9) and GF(3^5), both as a field
constant and as a rational function, with exprparse.MAX_POWER_DEGREE at
CAP.

A line is `3^k<TAB>text<TAB>constant<TAB>rational`, the last two the
outcome of parse_field_element and of parse_rational_function: the value's
str() or the error raised, as `type offset message` (offset `-` for an
error that has none).
test_exprparse parses each text of the file again and diffs the lines,
so the test needs no code from bench/. This script made the file, and
prints it again:

    PYTHONPATH=src python tests/parse_outcomes.py > tests/data/parse_outcomes.txt

The texts are drawn from the grammar, taken from the benchmark's jobs
(bench/workloads.py, sweep-small at seeds 1 and 2) and from the records in
tests/data, and then mutated by one token each: a token dropped or
doubled, a stray ')' or '/', 't' over GF(3), 'x' in place of a literal,
a zero denominator, or a power past CAP.
"""

import random
import re
import sys
from pathlib import Path

from char3iso import Char3Error, FieldParams, exprparse
from char3iso.exprparse import parse_field_element, parse_rational_function

CAP = 64
FIELDS = (1, 2, 5)
GOLDEN = Path(__file__).parent / "data" / "parse_outcomes.txt"
TOKEN = re.compile(r"[0-9]+|\S")


def line(field, text):
    """The golden line of `text` parsed over the field written `3^k`."""
    outcomes = []
    for parse in (parse_field_element, parse_rational_function):
        try:
            outcomes.append(str(parse(text, FieldParams(int(field[2:])))))
        except Char3Error as err:
            outcomes.append(f"{type(err).__name__} {getattr(err, 'offset', '-')} "
                            f"{getattr(err, 'message', err)}")
    return "\t".join([field, text, *outcomes])


def _atom(rng, depth):
    if depth > 0 and rng.random() < 0.35:
        return f"({_expr(rng, depth - 1)})"
    pick = rng.random()
    if pick < 0.35:
        return "x"
    if pick < 0.55:
        return "t"
    return str(rng.choice([0, 1, 2, 3, 4, 5, 10, 12, 221, rng.randrange(10 ** 12)]))


def _factor(rng, depth):
    text = ("-" if rng.random() < 0.2 else "") + _atom(rng, depth)
    if rng.random() < 0.3:
        text += "^" + rng.choice(["0", "1", "2", "3", "4", "007", "9", str(rng.randrange(80))])
    return text


def _chain(rng, operand, ops, depth):
    text = operand(rng, depth)
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        text += rng.choice(ops) + operand(rng, depth)
    return text


def _term(rng, depth):
    return _chain(rng, _factor, "***/", depth)


def _expr(rng, depth):
    return _chain(rng, _term, "++-", depth)


def _spaced(rng, tokens):
    """The tokens joined, with a space between some of them."""
    return "".join(token + (" " if rng.random() < 0.1 else "") for token in tokens).strip()


def _mutated(rng, text, k):
    """(k, text) with one token changed."""
    tokens = TOKEN.findall(text) or [""]
    i = rng.randrange(len(tokens))
    kind = rng.choice(["drop", "double", ")", "/", "t", "x", "zero", "cap"])
    if kind == "drop":
        del tokens[i]
    elif kind == "double":
        tokens.insert(i, tokens[i])
    elif kind in ")/":
        tokens.insert(rng.randrange(len(tokens) + 1), kind)
    elif kind == "t":
        tokens[i] = "t"
        k = 1
    elif kind == "x":
        tokens[i] = "x"
    elif kind == "zero":
        tokens.insert(i + 1, rng.choice(["/0", "/(x-x)", "/(t-t)", "/(3*x)", "/(x^2-x*x)"]))
    else:
        tokens.insert(i + 1, rng.choice([f"^{CAP + 1}", f"^{CAP // 2 + 1}", "^1000000",
                                         f"*x^{CAP}", f"/x^{CAP}", f"-x^{CAP}*x"]))
    return k, _spaced(rng, tokens)


def _benchmark_texts():
    """(k, text) of every constant, seed and map the benchmark's jobs pass."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
    import workloads

    jobs = [workloads.mul2_job(), workloads.nonrational_job(), workloads.identify_job()]
    jobs += workloads.sweep_jobs(1) + workloads.sweep_jobs(2)
    texts = {}
    for job in jobs:
        k = job.spec["k"]
        args = iter(job.argv)
        for arg in args:
            name, eq, value = arg.partition("=")
            if name in ("--A", "--B", "--c", "--fx", "--fy-factor") or name.startswith("--seed-"):
                texts[k, value if eq else next(args)] = None
    return list(texts)


def _record_texts():
    """(k, text) of every constant and form in the records of tests/data."""
    keys = ("A", "B", "c", "seed", "rational", "y_factor", "fx", "fy_factor", "eta",
            "gamma0", "psi0", "alpha1", "beta_minus1", "modulus")
    texts = {}
    for path in sorted((Path(__file__).parent / "data").glob("*.records.txt")):
        pairs = [row.partition("=")[::2] for row in path.read_text().splitlines()]
        k = int(dict(pairs)["field"][2:])
        for key, value in pairs:
            if key in keys and value != "none":
                texts[k, value] = None
    return list(texts)


def corpus():
    """The (k, text) pairs of the golden, in its order."""
    rng = random.Random("parse-outcomes")
    sources = [(k, text) for k, text in _benchmark_texts() + _record_texts()]
    for i in range(700):  # every other one a constant, with no 'x'
        tokens = TOKEN.findall(_expr(rng, rng.randint(0, 2)))
        tokens = [token if i % 2 or token != "x" else "2" for token in tokens]
        sources.append((rng.choice(FIELDS), _spaced(rng, tokens)))
    sources = [(k if k in FIELDS else rng.choice(FIELDS), text) for k, text in sources]
    mutants = [_mutated(rng, text, k) for k, text in rng.choices(sources, k=1000)]
    return sources + mutants


if __name__ == "__main__":
    exprparse.MAX_POWER_DEGREE = CAP
    for k, text in corpus():
        if "\t" in text or "\n" in text:
            raise SystemExit(f"a text may hold no tab or newline: {text!r}")
        print(line(f"3^{k}", text))
