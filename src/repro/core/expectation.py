"""Closed-form expectations for checkpointed computations under failures.

This module implements Equation (1) of the paper and its companions:

.. math::

    E[t(w; c; r)] = e^{\\lambda r} \\left(\\frac{1}{\\lambda} + D\\right)
                    \\left(e^{\\lambda (w + c)} - 1\\right)

which is the expected time to perform ``w`` seconds of work followed by a
``c``-second checkpoint when failures strike as a Poisson process of rate
:math:`\\lambda`, every failure is followed by a constant downtime ``D`` and a
``r``-second recovery, and failures may also strike during checkpoints and
recoveries.  The formula comes from [Bougeret et al., SC'2011] and
[Robert, Vivien, Zaidouni, FTXS'2012], cited as [17, 20] in the paper.

All functions gracefully handle the failure-free limit :math:`\\lambda \\to 0`.
"""

from __future__ import annotations

import math

__all__ = [
    "expected_execution_time",
    "expected_time_lost",
    "success_probability",
    "expected_number_of_failures",
    "OVERFLOW_EXPONENT",
]

#: Largest exponent ``x`` for which ``exp(x)`` is considered representable.
#: Beyond this the expectation is effectively infinite (the schedule will never
#: complete in practice); we return ``math.inf`` rather than raising
#: ``OverflowError`` so that heuristics can still rank such schedules last.
OVERFLOW_EXPONENT = 700.0

#: Exposure ``lambda * (w + c)`` below which Equation (1) returns the
#: failure-free duration ``w + c``; the array backends apply the same guard.
_SMALL_EXPOSURE = 1e-12


def _safe_exp(x: float) -> float:
    """``exp(x)`` that saturates to ``inf`` instead of raising OverflowError."""
    if x > OVERFLOW_EXPONENT:
        return math.inf
    return math.exp(x)


def _safe_expm1(x: float) -> float:
    """``expm1(x)`` that saturates to ``inf`` instead of raising OverflowError."""
    if x > OVERFLOW_EXPONENT:
        return math.inf
    return math.expm1(x)


def expected_execution_time(
    work: float,
    checkpoint: float,
    recovery: float,
    failure_rate: float,
    downtime: float = 0.0,
) -> float:
    """Expected time :math:`E[t(w; c; r)]` of Equation (1).

    Parameters
    ----------
    work:
        Failure-free duration ``w`` of the computation (seconds).
    checkpoint:
        Duration ``c`` of the checkpoint taken right after the computation
        (``0`` if the output is not checkpointed).
    recovery:
        Duration ``r`` of the recovery performed after each failure, before the
        computation is re-attempted.  The first attempt does not pay it.
    failure_rate:
        Exponential failure rate :math:`\\lambda` of the platform.
    downtime:
        Constant downtime ``D`` after each failure.

    Returns
    -------
    float
        The expected completion time.  Equals ``w + c`` when ``failure_rate`` is
        zero and ``inf`` when the exponent overflows (practically
        un-completable work).
    """
    if work < 0 or checkpoint < 0 or recovery < 0:
        raise ValueError("work, checkpoint and recovery must be non-negative")
    if failure_rate < 0:
        raise ValueError("failure_rate must be non-negative")
    if downtime < 0:
        raise ValueError("downtime must be non-negative")
    if failure_rate == 0.0:
        return work + checkpoint
    lam = failure_rate
    # Written as expm1(.)/lam + D*expm1(.) rather than (1/lam + D)*expm1(.) so
    # that vanishingly small failure rates do not go through an infinite 1/lam
    # intermediate (the limit is simply w + c).
    exposure = lam * (work + checkpoint)
    if exposure < _SMALL_EXPOSURE:
        # The probability of a failure during this computation is negligible
        # (and the general expression below would lose precision in denormal
        # arithmetic): the expectation equals the failure-free duration.
        return work + checkpoint
    grown = _safe_expm1(exposure)
    if math.isinf(grown):
        return math.inf
    return _safe_exp(lam * recovery) * (grown / lam + downtime * grown)


def expected_time_lost(work: float, failure_rate: float) -> float:
    """Expected time lost :math:`E[t_{lost}(w)]` when a failure interrupts ``w``.

    This is the expected elapsed time before the failure, *given* that a failure
    strikes during a computation of length ``w``:

    .. math::

        E[t_{lost}(w)] = \\frac{1}{\\lambda} - \\frac{w}{e^{\\lambda w} - 1}

    In the failure-free limit this converges to ``w / 2`` (a uniformly random
    interruption point), which is what we return when ``failure_rate`` is zero
    or :math:`\\lambda w` is tiny enough to make the formula numerically
    unstable.
    """
    if work < 0:
        raise ValueError("work must be non-negative")
    if failure_rate < 0:
        raise ValueError("failure_rate must be non-negative")
    if work == 0.0:
        return 0.0
    x = failure_rate * work
    if x < 1e-12:
        # Second-order Taylor expansion of the exact formula around x = 0.
        return work / 2.0 - failure_rate * work * work / 12.0
    denom = _safe_expm1(x)
    if math.isinf(denom):
        return 1.0 / failure_rate
    return 1.0 / failure_rate - work / denom


def success_probability(duration: float, failure_rate: float) -> float:
    """Probability that no failure strikes during ``duration`` seconds."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if failure_rate < 0:
        raise ValueError("failure_rate must be non-negative")
    return math.exp(-failure_rate * duration)


def expected_number_of_failures(
    work: float,
    checkpoint: float,
    recovery: float,
    failure_rate: float,
) -> float:
    """Expected number of failures before ``w + c`` completes successfully.

    Each attempt after the first pays the recovery ``r``; an attempt succeeds
    with probability :math:`e^{-\\lambda(r + w + c)}` (first attempt:
    :math:`e^{-\\lambda(w+c)}`).  The count follows a geometric law, giving

    .. math::

        E[\\#failures] = e^{\\lambda(w+c)} \\left(1 +
            (e^{\\lambda r} - 1) \\right) - 1
                       = e^{\\lambda(r + w + c)} - 1 + (1 - e^{\\lambda r})

    simplified below.  Mostly used by the simulator's summary statistics and by
    tests that sanity-check the Monte-Carlo engine.
    """
    if failure_rate == 0.0:
        return 0.0
    if work < 0 or checkpoint < 0 or recovery < 0:
        raise ValueError("work, checkpoint and recovery must be non-negative")
    lam = failure_rate
    p_first = math.exp(-lam * (work + checkpoint))
    p_retry = math.exp(-lam * (recovery + work + checkpoint))
    if p_retry == 0.0:
        return math.inf
    # 1 - p_first failures to leave the first attempt, then a geometric number
    # of failed retries with success probability p_retry.
    return (1.0 - p_first) + (1.0 - p_first) * (1.0 - p_retry) / p_retry
