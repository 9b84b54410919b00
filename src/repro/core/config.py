"""Search configuration: which filters are active.

Koios, the paper's Baseline, Baseline+ (§VIII-A4), and every ablation
bench are the *same* engine under different :class:`FilterConfig`
settings, so filter attribution is measured on identical code paths:

* ``koios()`` — everything on (the published algorithm);
* ``baseline()`` — no refinement pruning, no post-processing filters:
  every candidate set is verified with a full graph matching;
* ``baseline_plus()`` — baseline with only the iUB-Filter activated,
  which is how the paper makes WDC feasible for the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.bounds import PAPER, validate_iub_mode
from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class FilterConfig:
    """Switches for every filter in the Koios pipeline.

    Attributes
    ----------
    use_first_sight_ub:
        Apply the UB-Filter (Lemma 2) when a candidate is first discovered.
    use_iub_buckets:
        Maintain the bucketized iUB-Filter (Lemma 6) during refinement.
    use_no_em:
        Accept sets with ``LB >= theta_ub`` without matching (Lemma 7).
    use_em_early_termination:
        Abort Hungarian runs whose label sum drops below ``theta_lb``
        (Lemma 8).
    vanilla_initialization:
        Initialize a candidate's partial matching with its vanilla
        overlap ``|Q ∩ C|`` (§V); the ablation bench turns this off.
    iub_mode:
        ``"paper"`` reproduces Lemma 6 verbatim; ``"safe"`` uses the
        provably sound per-query-element cap bound (see
        :mod:`repro.core.bounds` for the distinction).
    exhaustive_verification:
        Verify *every* candidate surviving refinement instead of
        stopping once the top-k upper bounds are settled — the
        behaviour of the paper's Baseline and Baseline+ (§VIII-A4).
    """

    use_first_sight_ub: bool = True
    use_iub_buckets: bool = True
    use_no_em: bool = True
    use_em_early_termination: bool = True
    vanilla_initialization: bool = True
    iub_mode: str = PAPER
    exhaustive_verification: bool = False

    def __post_init__(self) -> None:
        validate_iub_mode(self.iub_mode)

    @classmethod
    def koios(
        cls, *, iub_mode: str = PAPER, engine: str = "columnar"
    ) -> "FilterConfig":
        """The full published configuration.

        ``engine`` selects nothing: Koios has one engine, and
        ``"columnar"`` is the only value accepted. The keyword stays
        only because the frozen end-to-end benchmark
        (``benchmarks/e2e/workloads.py``) still passes it; the next
        ``[benchmark]`` change drops that argument and removes it here.
        """
        if engine != "columnar":
            raise InvalidParameterError(
                f"engine must be 'columnar', got {engine!r}"
            )
        return cls(iub_mode=iub_mode)

    @classmethod
    def baseline(cls) -> "FilterConfig":
        """The paper's Baseline: verify every candidate set."""
        return cls(
            use_first_sight_ub=False,
            use_iub_buckets=False,
            use_no_em=False,
            use_em_early_termination=False,
            exhaustive_verification=True,
        )

    @classmethod
    def baseline_plus(cls) -> "FilterConfig":
        """Baseline with only the iUB-Filter active (§VIII-A4)."""
        return cls(
            use_no_em=False,
            use_em_early_termination=False,
            exhaustive_verification=True,
        )

    def without(self, **overrides) -> "FilterConfig":
        """A copy with the given fields overridden (ablation helper)."""
        return replace(self, **overrides)

    @property
    def track_caps(self) -> bool:
        """Safe iUB mode needs per-query-element similarity caps."""
        return self.iub_mode != PAPER
