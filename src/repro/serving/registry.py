"""Versioned model registry with staged champion/challenger rollout.

A deployed allocation system never swaps models atomically: a freshly
calibrated challenger first takes a small slice of live traffic, its
online metrics are compared against the incumbent champion, and only
then is it promoted.  :class:`ModelRegistry` implements that lifecycle
for any scorer exposing ``predict_roi(x)`` (``DRPModel``,
``RobustDRP``, TPM baselines, or a plain callable wrapper).

Routing is deterministic per user key — the same user always sees the
same model version at a fixed split, which keeps online metrics
comparable — and falls back to a seeded random draw for keyless
requests.

Every version carries an :class:`OutcomeLedger` of the realised
outcomes attributed to it (one entry per *decided* request: treated or
skipped, realised incremental revenue and cost).  The ledger keeps
streaming first and second moments, which is exactly what
:func:`repro.utils.stats.welch_ci_from_moments` needs, so the
:class:`~repro.serving.promotion.AutoPromoter` can run a significance
test over millions of outcomes without storing any of them.

Lifecycle invariant (pinned in the tests): **a champion transition
archives any staged challenger unless that challenger is itself the
model being promoted.**  A hotfix ``register(promote=True)`` or a
``promote(<archived id>)`` invalidates a running experiment — its
baseline champion is gone — so the stale challenger must stop taking
split traffic instead of silently running against a model it was never
compared to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["ModelRegistry", "ModelVersion", "OutcomeLedger"]

CHAMPION = "champion"
CHALLENGER = "challenger"
ARCHIVED = "archived"

# keyed routing buckets: 64-bit hash space, so splits far below 1e-4
# (a cautious first ramp step) still route the right traffic fraction
_BUCKET_SPACE = float(2**64)


@dataclass
class OutcomeLedger:
    """Streaming account of one version's realised online outcomes.

    One :meth:`record` per decided request attributed to the version
    (skipped users count with zero realised outcomes — the ledger
    measures the *policy's* per-request value, not just the treated
    subset).  First and second moments of both candidate metrics are
    kept so a Welch interval needs no raw samples:

    * ``net``  — realised incremental revenue minus realised
      incremental cost per request (the campaign profit objective);
    * ``revenue`` — realised incremental revenue per request.
    """

    n: int = 0
    n_treated: int = 0
    spend: float = 0.0
    revenue: float = 0.0
    _net_sumsq: float = 0.0
    _revenue_sumsq: float = 0.0

    def record(self, treated: bool, y_r: float, y_c: float) -> None:
        """Add one decided request's realised (revenue, cost) outcome."""
        self.n += 1
        self.n_treated += int(treated)
        self.revenue += y_r
        self.spend += y_c
        net = y_r - y_c
        self._net_sumsq += net * net
        self._revenue_sumsq += y_r * y_r

    def reset(self) -> None:
        """Zero the ledger (a fresh comparison window)."""
        self.n = 0
        self.n_treated = 0
        self.spend = 0.0
        self.revenue = 0.0
        self._net_sumsq = 0.0
        self._revenue_sumsq = 0.0

    def moments(self, metric: str = "net") -> tuple[float, float, int]:
        """``(mean, sample variance, n)`` of the per-request metric."""
        if metric == "net":
            total, sumsq = self.revenue - self.spend, self._net_sumsq
        elif metric == "revenue":
            total, sumsq = self.revenue, self._revenue_sumsq
        else:
            raise ValueError(f"metric must be 'net' or 'revenue', got {metric!r}")
        if self.n == 0:
            return 0.0, 0.0, 0
        mean = total / self.n
        if self.n < 2:
            return mean, 0.0, self.n
        # sample variance from the raw moments; clip the tiny negative
        # float residue a constant stream can leave
        var = max(0.0, (sumsq - self.n * mean * mean) / (self.n - 1))
        return mean, var, self.n


@dataclass
class ModelVersion:
    """One registered model and its rollout state.

    Attributes
    ----------
    version:
        Monotonically increasing integer id assigned at registration.
    name:
        Human label (defaults to ``"model-v<version>"``).
    model:
        The scorer; must expose ``predict_roi(x)``.
    stage:
        ``"champion"``, ``"challenger"`` or ``"archived"``.
    requests:
        Requests whose score this version's **model actually computed**
        (counted when the scoring engine's flush scores the batch).
        Cache-hit serves are deliberately excluded — they land in
        :attr:`cache_hits` instead — so per-version online metrics
        normalised by ``requests`` measure what the model did, not what
        the cache replayed.
    cache_hits:
        Requests served from this version's cached scores without
        touching the model.
    ledger:
        Realised online outcomes attributed to this version (see
        :class:`OutcomeLedger`).
    """

    version: int
    name: str
    model: object
    stage: str
    requests: int = field(default=0)
    cache_hits: int = field(default=0)
    ledger: OutcomeLedger = field(default_factory=OutcomeLedger)

    @property
    def served(self) -> int:
        """Requests this version answered, by model or by cache."""
        return self.requests + self.cache_hits


class ModelRegistry:
    """Holds model versions and routes requests across the active pair.

    Parameters
    ----------
    traffic_split:
        Fraction of traffic routed to the challenger when one is
        staged (0 disables the challenger without unstaging it).
    random_state:
        Seed/generator for routing requests that carry no user key.
    """

    def __init__(
        self,
        traffic_split: float = 0.1,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        #: lifecycle revision: bumped by every mutation that changes
        #: routing (register/promote/demote/rollback and
        #: ``traffic_split`` changes).  The traffic replay ends a run
        #: when it moves, and a sharded engine refuses traffic once it
        #: differs from the revision its shards were built from;
        #: per-request accounting (``record_outcome``, counters)
        #: deliberately does not bump it.
        self.revision = 0
        self._versions: dict[int, ModelVersion] = {}
        self._next_version = 1
        self._champion: int | None = None
        self._challenger: int | None = None
        self._previous_champion: int | None = None
        self._rng = as_generator(random_state)
        self.traffic_split = traffic_split

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def traffic_split(self) -> float:
        return self._traffic_split

    @traffic_split.setter
    def traffic_split(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"traffic_split must be in [0, 1], got {value}")
        self._traffic_split = float(value)
        self.revision += 1

    def register(
        self, model: object, name: str | None = None, promote: bool = False
    ) -> int:
        """Add a model; it becomes the challenger (or champion if first).

        Parameters
        ----------
        model:
            Any object with a ``predict_roi(x)`` method.
        name:
            Optional display name.
        promote:
            When True the model becomes champion immediately (initial
            deployment / emergency hotfix path).  A staged challenger
            is archived: its experiment baseline is the champion being
            displaced, so letting it keep its traffic split against the
            new champion would poison both versions' online metrics.

        Returns
        -------
        int
            The assigned version id.
        """
        if not callable(getattr(model, "predict_roi", None)):
            raise TypeError("model must expose a callable predict_roi(x)")
        version = self._next_version
        self._next_version += 1
        name = name or f"model-v{version}"
        if self._champion is None or promote:
            stage = CHAMPION
        else:
            stage = CHALLENGER
        entry = ModelVersion(version=version, name=name, model=model, stage=stage)
        self._versions[version] = entry
        if stage == CHAMPION:
            if self._champion is not None:
                self._archive(self._champion)
                self._previous_champion = self._champion
            self._champion = version
            self._unstage_challenger()
        else:
            if self._challenger is not None:
                self._archive(self._challenger)
            self._challenger = version
        self.revision += 1
        return version

    def promote(self, version: int | None = None) -> int:
        """Make the (given or current) challenger the champion.

        The displaced champion is archived but kept for
        :meth:`rollback`.  Promoting any model other than the staged
        challenger (e.g. re-promoting an archived version) archives the
        staged challenger — see the lifecycle invariant in the module
        docstring.  Returns the promoted version id.
        """
        version = self._challenger if version is None else version
        if version is None or version not in self._versions:
            raise ValueError("no challenger staged to promote")
        entry = self._versions[version]
        if entry.stage == CHAMPION:
            return version
        old_champion = self._champion
        if old_champion is not None:
            self._archive(old_champion)
        self._previous_champion = old_champion
        entry.stage = CHAMPION
        self._champion = version
        if self._challenger == version:
            self._challenger = None
        else:
            self._unstage_challenger()
        self.revision += 1
        return version

    def demote(self, version: int | None = None) -> int:
        """Archive the staged challenger without promoting it.

        The experiment-over path: the challenger failed to beat the
        champion (or degraded it significantly), so it leaves the
        split without touching the champion.  Returns the demoted
        version id; raises when the given version is not the staged
        challenger.
        """
        version = self._challenger if version is None else version
        if version is None or version != self._challenger:
            raise ValueError("no such challenger staged to demote")
        self._archive(version)
        self._challenger = None
        self.revision += 1
        return version

    def rollback(self) -> int:
        """Restore the champion displaced by the last :meth:`promote`.

        The bad champion is archived, and so is any staged challenger
        (its baseline was the champion being rolled away)."""
        if self._previous_champion is None:
            raise RuntimeError("no previous champion to roll back to")
        bad = self._champion
        restored = self._previous_champion
        self._versions[restored].stage = CHAMPION
        self._champion = restored
        self._previous_champion = None
        if bad is not None:
            self._archive(bad)
        self._unstage_challenger()
        self.revision += 1
        return restored

    def _archive(self, version: int) -> None:
        self._versions[version].stage = ARCHIVED

    def _unstage_challenger(self) -> None:
        """Archive the staged challenger on a champion transition."""
        if self._challenger is not None:
            self._archive(self._challenger)
            self._challenger = None

    # ------------------------------------------------------------------
    # per-version outcome attribution
    # ------------------------------------------------------------------
    def record_outcome(
        self, version: int, treated: bool, y_r: float, y_c: float
    ) -> None:
        """Attribute one decided request's realised outcome to a version.

        ``version`` is the id whose score drove the decision (the
        engine's :meth:`~repro.serving.engine.ScoringEngine.version_of`
        tells the caller which); ``y_r`` / ``y_c`` are the realised
        incremental revenue and cost (both 0 for skipped users).
        """
        self._versions[version].ledger.record(bool(treated), float(y_r), float(y_c))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def champion(self) -> ModelVersion:
        if self._champion is None:
            raise RuntimeError("registry has no champion; register a model first")
        return self._versions[self._champion]

    @property
    def challenger(self) -> ModelVersion | None:
        return self._versions[self._challenger] if self._challenger is not None else None

    def get(self, version: int) -> ModelVersion:
        """Look up a version id (KeyError if unknown)."""
        return self._versions[version]

    def versions(self) -> list[ModelVersion]:
        """All registered versions, oldest first."""
        return [self._versions[v] for v in sorted(self._versions)]

    @property
    def routing_is_static(self) -> bool:
        """True when :meth:`route` returns the champion for *every* key
        without touching the RNG (no challenger staged, or a zero
        split).  This is the predicate behind the engine's
        ``submit_batch`` paths: one ``route(None)`` call stands in for
        N per-row calls *exactly* — same result, same RNG stream — only
        while this holds; otherwise each row routes at its turn.
        """
        return self._challenger is None or self._traffic_split <= 0.0

    def route(self, key: str | int | None = None) -> ModelVersion:
        """Pick the version serving one request (a pure routing decision;
        request accounting happens where the request is actually served,
        so cache hits and model scores are told apart — see
        :class:`ModelVersion`).

        Keyed requests hash deterministically into the split (stable
        user→version assignment for the *current* challenger; the hash
        is salted with the challenger version so successive experiments
        draw different user slices).  The hash lands in a 64-bit bucket
        space, so even a ``traffic_split`` of 1e-6 — a cautious first
        ramp step on heavy traffic — routes the right fraction instead
        of quantising to zero.  Keyless requests draw from the
        registry's RNG.
        """
        champion = self.champion  # raises if none
        chosen = champion
        if self._challenger is not None and self._traffic_split > 0.0:
            if key is None:
                u = float(self._rng.random())
            else:
                salted = f"{key}:{self._challenger}".encode()
                digest = hashlib.blake2b(salted, digest_size=8).digest()
                u = int.from_bytes(digest, "big") / _BUCKET_SPACE
            if u < self._traffic_split:
                chosen = self._versions[self._challenger]
        return chosen
