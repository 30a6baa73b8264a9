"""The parser and canonical form give what they gave when the corpus golden
was written: for each text its tree and canonical form, or its error.

Run as a script, ``python tests/test_parse_corpus.py`` rewrites
``tests/golden/parse_corpus.txt``."""

import random
from pathlib import Path

from quorumopt.errors import QuorumError
from quorumopt.expr import canonical, parse

GOLDEN = Path(__file__).parent / "golden" / "parse_corpus.txt"

BAD_TEXTS = [
    "(a + b",  # a missing )
    "choose(x, [a, b])",
    "choose(2, a, b])",  # a missing [
    "a b",  # trailing input
    "",
    "   ",
    "(" * 101 + "a" + ")" * 101,
    "choose(0, [a, b])",
    "choose(3, [a, b])",
    "choose(2, [a])",
    "majority([a])",
    "a + ?",
    "a * (b + )",
    "choose(2, [a, b]",
]


def random_text(rng: random.Random, depth: int) -> str:
    """A valid text over few names, so that names repeat: nested sums and
    products, parentheses, and choose with k = 1, k = m or in between."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("abcde")
    kind = rng.choice(["+", "*", "()", "choose", "majority"])
    if kind == "()":
        return f"({random_text(rng, depth - 1)})"
    parts = [random_text(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    if kind in "+*":
        return rng.choice([kind, f" {kind} "]).join(parts)
    items = ", ".join(parts)
    if kind == "majority":
        return f"majority([{items}])"
    k = rng.choice([1, len(parts), rng.randint(1, len(parts))])
    return f"choose({k}, [{items}])"


def corpus() -> list[str]:
    rng = random.Random(1729)
    return [random_text(rng, 3) for _ in range(200)] + BAD_TEXTS


def render(text: str) -> str:
    """One tab-separated line: the text, then its tree and canonical form,
    or its error class, message and position."""
    try:
        e = parse(text)
    except QuorumError as err:
        return f"{text!r}\t{type(err).__name__}\t{err}\t{getattr(err, 'position', '-')}\n"
    return f"{text!r}\t{e!r}\t{canonical(e)}\n"


def test_parse_corpus_is_byte_stable():
    assert "".join(map(render, corpus())).encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_text("".join(map(render, corpus())))
