"""Bicameral cycle classification (Definition 10) and candidate selection.

A residual cycle ``O`` with totals ``(c, d)`` is, relative to the current
solution's gaps ``DeltaD = D - sum d(P_i)`` (negative while infeasible) and
``DeltaC = C_OPT - sum c(P_i)`` (positive under the Lemma 11 invariant):

* **type-0** — ``d < 0, c <= 0`` or ``d <= 0, c < 0``: improves at least one
  criterion for free; always usable.
* **type-1** — ``d < 0, 0 < c <= C_OPT`` and ``d/c <= DeltaD/DeltaC``:
  buys delay with cost at a good enough exchange rate.
* **type-2** — ``d >= 0, -C_OPT <= c < 0`` and ``d/c >= DeltaD/DeltaC``:
  sells delay for cost without wrecking the rate.

``C_OPT`` is unknown at run time; the solver substitutes a lower bound
(the flow-LP optimum), which makes the type-1 test stricter and the
type-2 test looser (see :mod:`repro.core.cancellation` and DESIGN.md
"Substitutions"). All ratio tests are exact integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro import obs
from repro._util.intmath import ratio_cmp


class CycleType(Enum):
    """Bicameral classes of Definition 10 (NONE = not bicameral)."""

    TYPE0 = 0
    TYPE1 = 1
    TYPE2 = 2
    NONE = -1


@dataclass(frozen=True)
class CandidateCycle:
    """A residual cycle plus its exact signed totals.

    ``edges`` are residual edge ids (== original edge ids, see
    :mod:`repro.core.residual`).
    """

    edges: tuple[int, ...]
    cost: int
    delay: int

    def ratio_key(self) -> float:
        """d/c as a float for *display only* — selection never uses this."""
        return self.delay / self.cost if self.cost else float("inf")


def classify(
    cost: int,
    delay: int,
    delta_d: int,
    delta_c: int | None,
    cost_cap: int | None,
) -> CycleType:
    """Classify a cycle's totals per Definition 10.

    Parameters
    ----------
    delta_d:
        ``D - current delay`` (negative while infeasible).
    delta_c:
        ``C_OPT_estimate - current cost``; ``None`` disables the rate tests
        (then only type-0 can be certified).
    cost_cap:
        The ``|c(O)| <= C_OPT`` cap; ``None`` disables the cap test.
    """
    if (delay < 0 and cost <= 0) or (delay <= 0 and cost < 0):
        return CycleType.TYPE0
    if delta_c is None or delta_c <= 0:
        return CycleType.NONE
    if delay < 0 and cost > 0:
        if cost_cap is not None and cost > cost_cap:
            return CycleType.NONE
        # d/c <= delta_d/delta_c, both denominators positive here.
        if ratio_cmp(delay, cost, delta_d, delta_c) <= 0:
            return CycleType.TYPE1
        return CycleType.NONE
    if delay >= 0 and cost < 0:
        if cost_cap is not None and -cost > cost_cap:
            return CycleType.NONE
        if ratio_cmp(delay, cost, delta_d, delta_c) >= 0:
            return CycleType.TYPE2
        return CycleType.NONE
    return CycleType.NONE


def better_type1(a: CandidateCycle, b: CandidateCycle) -> CandidateCycle:
    """Prefer the more negative delay/cost ratio (most delay bought per unit
    cost); ties break toward smaller cost, then lexicographic edges for
    determinism. Both args must have d<0, c>0."""
    cmp = ratio_cmp(a.delay, a.cost, b.delay, b.cost)
    if cmp != 0:
        return a if cmp < 0 else b
    if a.cost != b.cost:
        return a if a.cost < b.cost else b
    return a if a.edges <= b.edges else b


def better_type2(a: CandidateCycle, b: CandidateCycle) -> CandidateCycle:
    """Prefer the larger (closer to zero) delay/cost ratio — the least delay
    conceded per unit of cost recovered. Both args must have d>=0, c<0."""
    cmp = ratio_cmp(a.delay, a.cost, b.delay, b.cost)
    if cmp != 0:
        return a if cmp > 0 else b
    if a.cost != b.cost:
        return a if a.cost < b.cost else b  # more cost recovered
    return a if a.edges <= b.edges else b


def select_candidate(
    candidates: list[CandidateCycle],
    delta_d: int,
    delta_c_estimate: int | None,
    cost_cap: int | None,
    fallback: str = "type1_first",
    type2_only_if_no_type1: bool = False,
) -> tuple[CandidateCycle, CycleType] | None:
    """Pick the cycle to cancel next, mirroring Algorithm 3's endgame.

    Order of preference:

    1. any type-0 cycle (free improvement; smallest delay first);
    2. a cycle passing the *strict* Definition-10 test against the
       ``DeltaC`` estimate — best type-1 first, then best type-2;
    3. an uncertified fallback, controlled by ``fallback``:

       * ``"type1_first"`` (default): the best type-1-shaped candidate
         (delay strictly decreases every step), resorting to type-2 only
         when no type-1-shaped cycle exists at all. This is the
         convergence-friendly reading; the state-repetition guard in the
         cancellation loop backstops it.
       * ``"paper_step3"``: the literal comparative rule of Algorithm 3
         step 3 — return whichever of the best type-1/type-2 candidates
         has the smaller absolute ratio ``|d/c|``, type-1 on ties. Kept
         for fidelity experiments; the brief announcement's step 3 is
         internally inconsistent (see DESIGN.md), so production code
         defaults to ``"type1_first"``.

    ``type2_only_if_no_type1`` suppresses type-2 certification whenever any
    type-1-shaped candidate exists. With *estimated* ``DeltaC`` a certified
    type-2 can be spurious and exactly undo the previous type-1 step
    (oscillation); with the exact optimum (tests) the paper's Lemma 12
    argument makes type-2 genuinely productive, so callers pass ``False``
    there.

    Returns ``None`` when no candidate moves any criterion in a useful
    direction (i.e. no bicameral cycle exists among the candidates).
    """
    type0 = [c for c in candidates if classify(c.cost, c.delay, delta_d, None, None) is CycleType.TYPE0]
    if type0:
        best = min(type0, key=lambda c: (c.delay, c.cost, c.edges))
        return best, CycleType.TYPE0

    t1_shaped = [c for c in candidates if c.delay < 0 and c.cost > 0]
    t2_shaped = [c for c in candidates if c.delay >= 0 and c.cost < 0]
    if cost_cap is not None:
        shaped = len(t1_shaped) + len(t2_shaped)
        t1_shaped = [c for c in t1_shaped if c.cost <= cost_cap]
        t2_shaped = [c for c in t2_shaped if -c.cost <= cost_cap]
        obs.add(
            "bicameral.rejected_by_cost_cap",
            shaped - len(t1_shaped) - len(t2_shaped),
        )

    best1 = None
    for c in t1_shaped:
        best1 = c if best1 is None else better_type1(best1, c)
    best2 = None
    for c in t2_shaped:
        best2 = c if best2 is None else better_type2(best2, c)

    # Strict certification against the DeltaC estimate.
    if best1 is not None and classify(
        best1.cost, best1.delay, delta_d, delta_c_estimate, cost_cap
    ) is CycleType.TYPE1:
        return best1, CycleType.TYPE1
    type2_allowed = best1 is None or not type2_only_if_no_type1
    if (
        type2_allowed
        and best2 is not None
        and classify(best2.cost, best2.delay, delta_d, delta_c_estimate, cost_cap)
        is CycleType.TYPE2
    ):
        return best2, CycleType.TYPE2

    if fallback == "paper_step3":
        # Comparative fallback: |d1/c1| vs |d2/c2| exactly.
        if best1 is not None and best2 is not None:
            cmp = ratio_cmp(abs(best1.delay), best1.cost, abs(best2.delay), -best2.cost)
            return (best1, CycleType.TYPE1) if cmp <= 0 else (best2, CycleType.TYPE2)
    if best1 is not None:
        return best1, CycleType.TYPE1
    if best2 is not None:
        return best2, CycleType.TYPE2
    return None
