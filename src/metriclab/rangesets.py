"""Range sets and shrinking sequences.

A range set S is a subset of [0, inf) containing 0, given in one of
three closed-world forms so that "least element >= x" is exact:

* explicit   -- a finite sorted tuple of values including 0;
* geometric  -- {0} u {scale * ratio**n : n >= 0} with ratio in (0, 1);
* double_exponential -- {0} u {base ** (2**n) : n >= 0} with base in (0, 1).

Shrinking sequences are strictly decreasing positive tuples, optionally
carrying an envelope (a, M) certifying M**-1 * a**k <= s(k) <= M * a**k.
The exponential-window check, the enveloped-sequence extractor, and the
annulus obstruction search live here because they are pure range-set
questions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import WindowMiss

EXPLICIT = "explicit"
GEOMETRIC = "geometric"
DOUBLE_EXPONENTIAL = "double_exponential"

# Slack used when verifying a claimed envelope against float values.
_ENVELOPE_RTOL = 1e-12


@dataclass(frozen=True)
class RangeSet:
    """A closed-world subset of [0, inf) with 0 as a member."""

    kind: str
    values: tuple[float, ...] | None = None
    ratio: float | None = None
    scale: float | None = None
    base: float | None = None

    def __post_init__(self):
        if self.kind == EXPLICIT:
            if not self.values:
                raise ValueError("explicit range set needs values")
            vals = tuple(float(v) for v in self.values)
            if sorted(set(vals)) != list(vals):
                raise ValueError("explicit values must be sorted and distinct")
            if vals[0] != 0.0:
                raise ValueError("a range set must contain 0")
            object.__setattr__(self, "values", vals)
        elif self.kind == GEOMETRIC:
            if self.ratio is None or not 0 < self.ratio < 1:
                raise ValueError("geometric ratio must lie in (0, 1)")
            scale = 1.0 if self.scale is None else float(self.scale)
            if not scale > 0:
                raise ValueError("geometric scale must be positive")
            object.__setattr__(self, "scale", scale)
        elif self.kind == DOUBLE_EXPONENTIAL:
            if self.base is None or not 0 < self.base < 1:
                raise ValueError("double-exponential base must lie in (0, 1)")
        else:
            raise ValueError(f"unknown range-set kind {self.kind!r}")


def geometric_range_set(ratio: float, scale: float = 1.0) -> RangeSet:
    return RangeSet(GEOMETRIC, ratio=float(ratio), scale=float(scale))


def double_exponential_range_set(base: float) -> RangeSet:
    return RangeSet(DOUBLE_EXPONENTIAL, base=float(base))


def _element(S: RangeSet, n: int) -> float:
    """The n-th positive element of S in decreasing order (0 past the
    last element of an explicit set)."""
    if S.kind == EXPLICIT:
        return S.values[-1 - n] if n < len(S.values) else 0.0
    if S.kind == GEOMETRIC:
        return S.scale * S.ratio**n
    return S.base ** (2**n)


def _exponent(S: RangeSet, x: float) -> int:
    """Least n >= 0 with _element(S, n) <= x, for x > 0.

    Elements never increase with n and reach 0 (an explicit set past its
    last value, a parametric one by underflow), so the answer exists.
    The search reads S only through _element: it gallops up from n = 0,
    doubling hi until it brackets the answer, then bisects.
    """
    if x >= _element(S, 0):
        return 0
    # Bracket: _element(lo) > x >= _element(hi).
    lo, hi = 0, 1
    while _element(S, hi) > x:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _element(S, mid) <= x:
            hi = mid
        else:
            lo = mid
    return hi


def least_geq(S: RangeSet, x: float) -> float:
    """Smallest element of S u {inf} that is >= x (exact per kind)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0.0
    if x > _element(S, 0):
        return math.inf
    n = _exponent(S, x)
    value = _element(S, n)
    return value if value == x else _element(S, n - 1)


def greatest_leq(S: RangeSet, x: float) -> float:
    """Largest element of S that is <= x (0 always qualifies)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0.0
    return _element(S, _exponent(S, x))


def contains(S: RangeSet, x: float, tol: float = 0.0) -> bool:
    """Membership test, with an absolute slack for float-valued inputs."""
    lo = max(x - tol, 0.0)
    return least_geq(S, lo) <= x + tol


@dataclass(frozen=True)
class ShrinkingSequence:
    """Strictly decreasing positive values, optionally enveloped.

    An envelope (a, M) certifies M**-1 * a**k <= values[k] <= M * a**k
    for every index k (verified on construction, up to float rounding).
    """

    values: tuple[float, ...]
    envelope: tuple[float, float] | None = None

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("a shrinking sequence needs at least one value")
        if any(v <= 0 for v in vals):
            raise ValueError("sequence values must be positive")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sequence values must be strictly decreasing")
        object.__setattr__(self, "values", vals)
        if self.envelope is not None:
            a, big_m = (float(v) for v in self.envelope)
            if not 0 < a < 1:
                raise ValueError("envelope ratio a must lie in (0, 1)")
            if big_m < 1:
                raise ValueError("envelope constant M must be >= 1")
            for k, v in enumerate(vals):
                lo = a**k / big_m
                hi = big_m * a**k
                if v < lo * (1 - _ENVELOPE_RTOL) or v > hi * (1 + _ENVELOPE_RTOL):
                    raise ValueError(
                        f"value s({k}) = {float(v)!r} escapes envelope [{float(lo)!r}, {float(hi)!r}]"
                    )
            object.__setattr__(self, "envelope", (a, big_m))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        return self.values[k]


def realized_envelope(values, a: float) -> tuple[float, float]:
    """Tightest (a, M) envelope holding for the given values."""
    big_m = 1.0
    for k, v in enumerate(values):
        band = a**k
        big_m = max(big_m, v / band, band / v)
    return (a, big_m)


@dataclass(frozen=True)
class WindowCheck:
    """Result of an exponential-window scan.

    ``witnesses[n]`` is the least element of S in the n-th window for
    every window checked before the first failure (all of them when ok).
    """

    ok: bool
    witnesses: tuple[float, ...]
    first_fail: int | None = None


def is_exponential_window(S: RangeSet, a: float, big_m: float, n_max: int) -> WindowCheck:
    """Does [a**n / M, M * a**n] intersect S for every n <= n_max?"""
    if not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    if big_m < 1:
        raise ValueError("M must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    witnesses = []
    for n in range(n_max + 1):
        lo = a**n / big_m
        hi = big_m * a**n
        w = least_geq(S, lo)
        if w > hi:
            return WindowCheck(False, tuple(witnesses), n)
        witnesses.append(w)
    return WindowCheck(True, tuple(witnesses), None)


def exponential_sequence(S: RangeSet, b: float, big_m: float, length: int) -> ShrinkingSequence:
    """Extract an enveloped shrinking sequence from an exponential range set.

    With p = -log M / log b and a = b**(2p + 1), picks
    s(n) = least element of S >= a**n / M.  The output envelope records
    the constants actually realized by the picked values (a is kept; M
    is retightened), which can exceed the requested M when the windows
    of S sit askew of the a-grid.  Raises WindowMiss when a window fails
    or the picks stop decreasing strictly.
    """
    if not 0 < b < 1:
        raise ValueError("b must lie in (0, 1)")
    if big_m < 1:
        raise ValueError("M must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    check = is_exponential_window(S, b, big_m, max(length, 1))
    if not check.ok:
        raise WindowMiss(
            f"window n = {check.first_fail} of (b={b!r}, M={big_m!r}) misses S",
            index=check.first_fail,
        )
    p = -math.log(big_m) / math.log(b)
    a = b ** (2 * p + 1)
    # a**n / M <= 1 / M, and window 0 put least_geq(S, 1 / M) <= M: every pick is finite
    values = [least_geq(S, a**n / big_m) for n in range(length)]
    if any(y >= x for x, y in zip(values, values[1:])):
        raise WindowMiss("picked values are not strictly decreasing")
    return ShrinkingSequence(tuple(values), realized_envelope(values, a))


def ladder(S: RangeSet, top: float, count: int) -> tuple[float, ...]:
    """`count` strictly decreasing positive elements of S, all <= top.

    The first rung is the largest element <= top; later rungs follow
    the structure of S (consecutive exponents for the parametric kinds,
    consecutive listed values for explicit sets).  Raises ValueError
    when S does not hold `count` positive values below the cap, or when
    those values round to repeated floats or to 0 (subnormal elements).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not top > 0:
        raise ValueError("top must be positive")
    n0 = _exponent(S, top)
    rungs = tuple(_element(S, n0 + j) for j in range(count))
    if rungs[0] == 0.0:
        raise ValueError(f"no positive element of S lies below {top!r}")
    # An explicit set runs out of values; past the normal range a
    # parametric set's consecutive elements round to one value or to 0.
    if S.kind == EXPLICIT and rungs[-1] == 0.0:
        raise ValueError(
            f"explicit set holds only {rungs.index(0.0)} positive values <= {top!r}"
        )
    if rungs[-1] == 0.0 or any(b >= a for a, b in zip(rungs, rungs[1:])):
        raise ValueError(
            f"S holds no {count} strictly decreasing positive floats from {rungs[0]!r} down"
        )
    return rungs


def up_obstruction(S: RangeSet, c: float, n_max: int) -> int | None:
    """Least n <= n_max whose annulus window [c**(n+1), c**(n-1)] misses S
    while S still holds an element above the window.

    Such an n is a usable obstruction: an S-valued ultrametric can have
    its diameter above the window, yet every annulus [c * r, r] with
    r in [c**n, c**(n-1)] is empty of S values, so the space cannot be
    c-uniformly-perfect across that scale.  Windows lying entirely above
    the whole of S (no element >= the window floor) witness nothing — no
    S-valued space has any distance near them — and are skipped.
    """
    if not 0 < c < 1:
        raise ValueError("c must lie in (0, 1)")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for n in range(n_max + 1):
        lo = c ** (n + 1)
        hi = c ** (n - 1)
        above = least_geq(S, lo)
        if hi < above < math.inf:
            return n
    return None


def rangeset_from_json(obj: dict) -> RangeSet:
    try:
        kind = obj["kind"]
        if kind == EXPLICIT:
            return RangeSet(EXPLICIT, values=tuple(float(v) for v in obj["values"]))
        if kind == GEOMETRIC:
            return RangeSet(
                GEOMETRIC, ratio=float(obj["ratio"]), scale=float(obj.get("scale", 1.0))
            )
        if kind == DOUBLE_EXPONENTIAL:
            return RangeSet(DOUBLE_EXPONENTIAL, base=float(obj["base"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed range-set object: {exc}") from exc
    raise ValueError(f"unknown range-set kind {kind!r}")


def sequence_to_json(s: ShrinkingSequence) -> dict:
    envelope = None
    if s.envelope is not None:
        envelope = {"a": s.envelope[0], "M": s.envelope[1]}
    return {"values": list(s.values), "envelope": envelope}


def sequence_from_json(obj: dict) -> ShrinkingSequence:
    try:
        values = tuple(float(v) for v in obj["values"])
        envelope = obj.get("envelope")
        if envelope is not None:
            envelope = (float(envelope["a"]), float(envelope["M"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sequence object: {exc}") from exc
    return ShrinkingSequence(values, envelope)
