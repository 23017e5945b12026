"""Three-valued verdicts: the engine's divergence-handling contract.

Queries over recursive databases are partial — a QLhs loop, a GMhs
run, or a counter search may diverge, and Section 4 of the paper forces
step bounds everywhere.  Following the *complete approximations*
reading (Corman–Nutt–Savković, PAPERS.md): when evaluation cannot
complete within its :class:`~repro.trace.Budget`, the engine reports a
sound partial answer instead of raising.  :meth:`Engine.eval
<repro.engine.executor.Engine.eval>` therefore returns a
:class:`Verdict`:

* ``TRUE`` / ``FALSE`` — evaluation completed; :attr:`Verdict.value`
  carries the evaluated relation;
* ``UNKNOWN`` — the budget tripped; :attr:`Verdict.reason` is the
  machine-readable dimension (``out_of_fuel`` / ``deadline`` /
  ``cancelled``) and :attr:`Verdict.steps` how far the run got.

``bool(verdict)`` is deliberately strict: it raises on ``UNKNOWN`` so
three-valued answers cannot silently collapse into two.

The comparison surface — :meth:`Verdict.agrees`,
:meth:`Verdict.conflicts`, and :func:`merge_verdicts` — implements the
*approximation-soundness* discipline the differential checker
(:mod:`repro.check`) relies on: two verdicts for the same question
conflict only when **both** completed and answered differently, so an
``UNKNOWN`` can never flip a genuine TRUE/FALSE disagreement into
"agreement", nor invent one.  The comparison is deterministic: it looks
only at ``status`` — never at the evaluated ``value`` (whose
representation differs across frontends) nor at ``steps`` (which
differ across routes).

Doctest::

    >>> from repro.engine.verdict import Verdict, merge_verdicts
    >>> Verdict.unknown("deadline").is_unknown
    True
    >>> bool(Verdict.of(True))
    True
    >>> bool(Verdict.unknown("out_of_fuel"))
    Traceback (most recent call last):
        ...
    ValueError: Verdict is UNKNOWN (out_of_fuel); test .is_unknown first
    >>> Verdict.of(True).agrees(Verdict.unknown("deadline"))
    True
    >>> Verdict.of(True).conflicts(Verdict.of(False))
    True
    >>> merge_verdicts([Verdict.unknown("deadline"),
    ...                 Verdict.of(True)]).is_true
    True
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..fcf.relation import FcfValue

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"


def truth(value) -> bool:
    """Truth of an evaluated relation: nonemptiness.

    Rank-0 fcf values test ``()``-membership, honouring co-finiteness;
    a ``bool`` (a stored membership answer) is its own truth.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, FcfValue):
        return value.contains(()) if value.rank == 0 else bool(
            value.tuples or value.cofinite)
    return not value.is_empty


@dataclass(frozen=True)
class Verdict:
    """One engine answer under the three-valued contract."""

    status: str
    reason: str | None = None
    value: object = None
    steps: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def of(truth: bool, value: object = None) -> "Verdict":
        """A known verdict from a boolean (keeping the evaluated value)."""
        return Verdict(TRUE if truth else FALSE, value=value)

    @staticmethod
    def unknown(reason: str, steps: int | None = None) -> "Verdict":
        """A sound don't-know answer with its machine-readable reason."""
        return Verdict(UNKNOWN, reason=reason, steps=steps)

    # -- predicates ----------------------------------------------------------

    @property
    def known(self) -> bool:
        """Whether evaluation completed (``TRUE`` or ``FALSE``)."""
        return self.status != UNKNOWN

    @property
    def is_true(self) -> bool:
        """Whether the verdict is ``TRUE``."""
        return self.status == TRUE

    @property
    def is_false(self) -> bool:
        """Whether the verdict is ``FALSE``."""
        return self.status == FALSE

    @property
    def is_unknown(self) -> bool:
        """Whether the budget tripped before an answer was reached."""
        return self.status == UNKNOWN

    # -- deterministic comparison (the checker's contract) -------------------

    def agrees(self, other: "Verdict") -> bool:
        """Agreement modulo ``UNKNOWN``: true unless both completed and
        answered differently.

        This is the soundness direction the differential oracles need —
        a tripped budget (``UNKNOWN``) abstains rather than voting, so
        it can neither mask nor manufacture a TRUE/FALSE disagreement.
        """
        return not self.conflicts(other)

    def conflicts(self, other: "Verdict") -> bool:
        """Whether both verdicts completed with *different* answers.

        Deterministic: compares ``status`` only — the evaluated
        ``value`` (frontend-specific representation) and ``steps``
        (route-specific cost) are ignored.
        """
        return self.known and other.known and self.status != other.status

    def __bool__(self) -> bool:
        if self.status == UNKNOWN:
            raise ValueError(
                f"Verdict is UNKNOWN ({self.reason}); test .is_unknown "
                "first")
        return self.status == TRUE

    def __repr__(self) -> str:
        if self.status == UNKNOWN:
            extra = f", reason={self.reason!r}"
            if self.steps is not None:
                extra += f", steps={self.steps}"
            return f"Verdict(UNKNOWN{extra})"
        return f"Verdict({self.status.upper()})"


def merge_verdicts(verdicts: "Sequence[Verdict] | Iterable[Verdict]"
                   ) -> Verdict:
    """The deterministic consensus of several verdicts for *one* question.

    * every pair must :meth:`~Verdict.agree <Verdict.agrees>` — a
      TRUE/FALSE conflict raises :class:`ValueError` (the caller, e.g. a
      differential oracle, wants to see the conflict, not average it);
    * if any verdict completed, the consensus is that known answer
      (``UNKNOWN`` members merely abstain);
    * if all are ``UNKNOWN``, the consensus is ``UNKNOWN`` carrying the
      lexicographically smallest reason — a deterministic choice that
      does not depend on route ordering.

    Doctest::

        >>> from repro.engine.verdict import Verdict, merge_verdicts
        >>> merge_verdicts([Verdict.unknown("out_of_fuel"),
        ...                 Verdict.unknown("deadline")]).reason
        'deadline'
        >>> merge_verdicts([Verdict.of(False), Verdict.of(True)])
        Traceback (most recent call last):
            ...
        ValueError: conflicting verdicts: FALSE vs TRUE
    """
    verdicts = list(verdicts)
    if not verdicts:
        raise ValueError("merge_verdicts needs at least one verdict")
    known = [v for v in verdicts if v.known]
    for v in known[1:]:
        if v.conflicts(known[0]):
            raise ValueError(
                f"conflicting verdicts: {known[0].status.upper()} vs "
                f"{v.status.upper()}")
    if known:
        return known[0]
    reason = min((v.reason or "") for v in verdicts) or None
    return Verdict.unknown(reason or "unknown")
