"""The benchmark's workloads and the correctness gate on every invocation.

An invocation is either a CLI call, ``("cli", argv)`` passed to
``gpdescent.cli.main``, or ribbon round-trips over all of ``D_lam`` for each
shape of a list, ``("roundtrip", shapes)``.  The seed only shuffles the calls
inside each group; the groups keep their order, so the larger shapes come
last.

The gate does not trust the route being measured: family sizes and
t-factorials come from closed forms computed here, and the captured CLI
output must hash to the value recorded once from the seed code
(``expected.json``).
"""

from __future__ import annotations

import hashlib
import json
import random
from math import factorial
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Why each workload was chosen, its calls and the shapes left out are
# recorded in definition.json.
WORKLOADS = ("verify", "expand", "enumerate")


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of ``n``, largest first."""
    result = []

    def extend(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return result


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0] if lam else 0))


def family_size(lam: tuple[int, ...]) -> int:
    """``|D_lam|`` = n! / (lam'_1! ... lam'_h!), the dimension of the quotient."""
    size = factorial(sum(lam))
    for part in conjugate(lam):
        size //= factorial(part)
    return size


def t_factorial(n: int) -> list[int]:
    """Coefficients of [1]_t [2]_t ... [n]_t, lowest degree first."""
    coeffs = [1]
    for k in range(1, n + 1):
        product = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                product[i + j] += c
        coeffs = product
    return coeffs


def text(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam))


def generate(name: str, seed: int) -> list[tuple]:
    """The invocations of one sweep, in the order the seed draws."""
    rng = random.Random(seed)

    def shuffled(items: list) -> list:
        rng.shuffle(items)
        return items

    if name == "verify":
        small = [("cli", ["verify", text(lam)]) for n in (4, 5) for lam in partitions(n)]
        return shuffled(small) + shuffled([("cli", ["verify", "3,3"]), ("cli", ["verify", "3,2,1"])])
    if name == "expand":
        calls = [("cli", ["hall-littlewood", text(lam)]) for lam in partitions(7)]
        return shuffled(calls) + [("cli", ["hall-littlewood", "3,1,1,1,1,1", "--n-bound", "8"])]
    if name == "enumerate":
        calls = [
            ("cli", ["enumerate", kind, text(lam)])
            for kind in ("D", "Jmaj", "R0")
            for lam in partitions(7)
        ]
        calls += [("cli", ["enumerate", "PF0", text(lam)]) for lam in partitions(6)]
        return shuffled(calls) + [("roundtrip", shuffled(partitions(7)))]
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def label(invocation: tuple) -> str:
    kind, arg = invocation
    return " ".join(arg) if kind == "cli" else f"roundtrip over {len(arg)} shapes"


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def check_cli(argv: list[str], code: int, output: str, expected: dict[str, str]) -> list[str]:
    """Problems found in one CLI invocation's result; empty when it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if expected.get(" ".join(argv)) != digest(output):
        problems.append("output differs from the recorded seed output")
    lines = output.splitlines()
    command = argv[0]
    shape = tuple(int(part) for part in argv[2 if command == "enumerate" else 1].split(","))
    if command == "verify":
        document = json.loads(lines[-1])
        if not document["checks"] or not all(document["checks"].values()):
            problems.append(f"checks {document['checks']}")
        hilbert = {int(d): c for d, c in document["hilbert"].items()}
        if sum(hilbert.values()) != family_size(shape):
            problems.append("Hilbert series at t = 1 differs from the family size")
        if len(shape) == 1:
            expected_series = dict(enumerate(t_factorial(shape[0])))
            if hilbert != expected_series:
                problems.append("coinvariant Hilbert series differs from the t-factorial")
    elif command == "hall-littlewood":
        if "# routes agree" not in lines:
            problems.append("no '# routes agree' line")
    elif command == "enumerate":
        summary = json.loads(lines[-1])
        if not summary["count"] == summary["multinomial"] == family_size(shape) == len(lines) - 1:
            problems.append(f"count summary {summary} for {len(lines) - 1} items")
    return problems
