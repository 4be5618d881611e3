"""Alphabets and the continued-fraction contraction maps.

1D: phi_e(x) = 1/(x+e) on [0,1], e a natural number.
2D: phi_e(p) = (p+e)/|p+e|^2 on the square [0,1] x [-1/2,1/2], e = (e1,e2)
with e1 >= 1; the conformal derivative norm is |p+e|^{-2}.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Alphabet:
    d: int
    letters: tuple  # sorted tuple of ints (d=1) or (e1,e2) pairs (d=2)

    def __post_init__(self):
        if not self.letters:
            raise ValueError("empty alphabet")
        if self.d == 1:
            if any((not isinstance(e, int)) or e < 1 for e in self.letters):
                raise ValueError("1D letters must be integers >= 1")
        elif self.d == 2:
            for e in self.letters:
                if len(e) != 2 or e[0] < 1 or not all(isinstance(c, int) for c in e):
                    raise ValueError("2D letters must be integer pairs with e1 >= 1")
        else:
            raise ValueError("only d in {1, 2} supported")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters")

    @property
    def max_component(self) -> int:
        """Largest feature the mesh must resolve: max e (1D) or
        max(e1, |e2|+1) per letter (2D)."""
        if self.d == 1:
            return max(self.letters)
        return max(max(e1, abs(e2) + 1) for e1, e2 in self.letters)

    def describe(self) -> str:
        if self.d == 1:
            return ",".join(str(e) for e in self.letters)
        return ",".join(f"({e1},{e2})" for e1, e2 in self.letters)

    def maps(self, p: Array) -> tuple[Array, Array]:
        """phi_e and log ||Dphi_e|| at the points p (m, d) for every letter
        e: the images (d, m, |E|), coordinate axis first, and the log norms
        (m, |E|).  q = p + e and |q|^2 are formed once, per coordinate."""
        e = np.asarray(self.letters, dtype=np.float64).reshape(
            len(self.letters), self.d)
        q = [p[:, k, None] + e[:, k] for k in range(self.d)]
        if self.d == 1:
            return (1.0 / q[0])[None], -2.0 * np.log(q[0])
        r2 = q[0] * q[0] + q[1] * q[1]
        return np.stack(q) / r2, -np.log(r2)


def make_alphabet_1d(letters) -> Alphabet:
    return Alphabet(d=1, letters=tuple(sorted(set(int(e) for e in letters))))


def make_alphabet_2d(letters) -> Alphabet:
    return Alphabet(d=2, letters=tuple(sorted({(int(a), int(b)) for a, b in letters})))


def primes_below(N: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if N <= 2:
        return []
    sieve = np.ones(N, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(N ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.nonzero(sieve)[0].tolist()


_INT = r"-?\d+"
_RANGE = rf"{_INT}\.\.{_INT}"
_ITEM = rf"(?:{_RANGE}|{_INT})"


def _expand_axis(token: str) -> list[int]:
    if ".." in token:
        a, b = token.split("..")
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty range '{token}'")
        return list(range(lo, hi + 1))
    return [int(token)]


def _split_items(spec: str) -> list[str]:
    items, depth, cur = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    items.append("".join(cur))
    return [it for it in items if it]


def parse_alphabet(spec: str) -> Alphabet:
    """Alphabet DSL: comma-separated items; item = integer | 'a..b' inclusive
    range | 'primes<N' | '(a,b)' pair | '(a..b,c..d)' pair ranges (cartesian).
    Whitespace ignored.  Pairs and scalars cannot be mixed."""
    compact = re.sub(r"\s+", "", spec)
    if not compact:
        raise ValueError("empty alphabet spec")
    letters_1d: list[int] = []
    letters_2d: list[tuple[int, int]] = []
    for item in _split_items(compact):
        m = re.fullmatch(r"primes<(\d+)", item)
        if m:
            letters_1d.extend(primes_below(int(m.group(1))))
            continue
        m = re.fullmatch(rf"\(({_ITEM}),({_ITEM})\)", item)
        if m:
            for a in _expand_axis(m.group(1)):
                for b in _expand_axis(m.group(2)):
                    letters_2d.append((a, b))
            continue
        if re.fullmatch(_ITEM, item):
            letters_1d.extend(_expand_axis(item))
            continue
        raise ValueError(f"malformed alphabet item '{item}'")
    if letters_1d and letters_2d:
        raise ValueError("cannot mix scalar and pair letters")
    if letters_2d:
        return make_alphabet_2d(letters_2d)
    return make_alphabet_1d(letters_1d)
