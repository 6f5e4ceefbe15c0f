"""The simulated incentivized-advertising platform."""

from __future__ import annotations

import numpy as np

from repro.core.allocation import spend_down_prefix
from repro.data.rct import RCTDataset
from repro.data.settings import MIN_ROWS, iter_dataset_chunks, load_dataset
from repro.data.shift import concept_drift, exponential_tilt_shift
from repro.runtime import ExecutionBackend
from repro.utils.rng import as_generator

__all__ = ["Platform"]


def _check_uniforms(u: np.ndarray | None, n: int, name: str) -> np.ndarray | None:
    """Validate an externally-supplied per-user uniform tensor."""
    if u is None:
        return None
    u = np.asarray(u, dtype=float).ravel()
    if u.shape[0] != n:
        raise ValueError(f"{name} must have one value per cohort user ({n}), got {u.shape[0]}")
    # two reductions, no bool temporaries; NaN fails both comparisons
    if not (u.min(initial=0.0) >= 0.0 and u.max(initial=0.0) < 1.0):
        raise ValueError(f"{name} must be uniforms in [0, 1)")
    return u


def _check_arm_indices(order: np.ndarray, n: int) -> None:
    """Validate arm indices in O(n) array ops (no Python-object churn):
    in range and hitting no user twice.  Arms of a partitioned day are
    disjoint but need not cover the cohort; a full-length array passing
    this check is necessarily a permutation of ``range(n)``.
    """
    if order.size == 0:
        return
    if int(order.min()) < 0 or int(order.max()) >= n:
        raise ValueError("treat_order indices out of range — must be a permutation subset of the cohort indices")
    # duplicate check by bool scatter: one n-byte array instead of
    # bincount's 8n-byte count vector, same O(n)
    seen = np.zeros(n, dtype=bool)
    seen[order] = True
    if int(np.count_nonzero(seen)) != order.size:
        raise ValueError("treat_order repeats cohort indices — arms must be a permutation / disjoint")


class Platform:
    """Daily-traffic generator with ground-truth reward/cost effects.

    Parameters
    ----------
    dataset:
        Which analog population the platform serves (``"criteo"``,
        ``"meituan"``, ``"alibaba"``).
    shifted:
        When True, deployment-time cohorts come from the tilted
        (holiday/campaign) distribution — the ``*Co`` scenarios.
    shift_strength:
        Tilt strength for shifted cohorts.
    day_effect:
        Amplitude of a deterministic day-of-week multiplier applied to
        the effect sizes (adds the day-to-day wobble visible in Fig. 6).
    drift_day, drift_strength:
        Inject concept drift: from day ``drift_day`` (1-based) onward,
        every cohort passes through
        :func:`~repro.data.shift.concept_drift` at ``drift_strength``
        — ``Y | X`` changes, so models fitted on pre-drift days rank
        post-drift traffic wrongly.  The transform is deterministic
        per row, preserving CRN pairing across seeds.  ``None``
        (default) disables drift.
    base_revenue_rate:
        Baseline (untreated) revenue probability per user — the
        denominator traffic every arm shares.
    chunk_size:
        Cohorts larger than this are generated chunk-by-chunk
        (:func:`repro.data.settings.iter_dataset_chunks`), bounding
        peak memory to a small constant multiple of the cohort (~2x:
        the accumulated chunks plus the concatenated output) instead
        of the one-shot path's multiple-``n`` oversample pool — what
        makes million-user days feasible.
    backend:
        A shared :class:`~repro.runtime.ExecutionBackend` for chunked
        generation.  One pool then serves every ``daily_cohort`` call
        (and every day of an :class:`~repro.ab.experiment.ABTest`)
        instead of being rebuilt per call.  Output is bit-identical to
        the serial path (chunks live on per-index seed substreams);
        only wall time changes.  The platform never shuts it down —
        lifetime belongs to the caller.
    random_state:
        Seed/generator for cohort draws and outcome realisation.
    """

    def __init__(
        self,
        dataset: str = "criteo",
        shifted: bool = False,
        shift_strength: float = 1.2,
        day_effect: float = 0.1,
        drift_day: int | None = None,
        drift_strength: float = 1.0,
        base_revenue_rate: float = 0.25,
        chunk_size: int = 200_000,
        backend: ExecutionBackend | None = None,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= day_effect < 1.0:
            raise ValueError(f"day_effect must be in [0, 1), got {day_effect}")
        if drift_day is not None and drift_day < 1:
            raise ValueError(f"drift_day must be >= 1, got {drift_day}")
        if drift_strength < 0:
            raise ValueError(f"drift_strength must be >= 0, got {drift_strength}")
        if not 0.0 < base_revenue_rate < 1.0:
            raise ValueError(f"base_revenue_rate must be in (0, 1), got {base_revenue_rate}")
        if chunk_size < 50:
            raise ValueError(f"chunk_size must be >= 50, got {chunk_size}")
        self.dataset = dataset
        self.shifted = bool(shifted)
        self.shift_strength = float(shift_strength)
        self.day_effect = float(day_effect)
        self.drift_day = None if drift_day is None else int(drift_day)
        self.drift_strength = float(drift_strength)
        self.base_revenue_rate = float(base_revenue_rate)
        self.chunk_size = int(chunk_size)
        self.backend = backend
        self._rng = as_generator(random_state)

    def daily_cohort(
        self,
        n: int,
        day: int,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RCTDataset:
        """Draw the users arriving on ``day`` (1-based).

        The returned :class:`RCTDataset` carries ground-truth ``tau_r``
        / ``tau_c`` which :meth:`realize_arm` consumes; its ``t``/``y``
        columns are ignored by the A/B harness (assignment is decided
        by the policies, not by the generator).

        ``backend`` overrides the platform's backend for this draw only;
        the cohort is bit-identical either way.  Pass
        ``backend=SerialBackend()`` to force a fully in-process draw
        (needed e.g. inside a worker process, where nested pools are
        forbidden).
        """
        if n < 3:
            raise ValueError(f"cohort size must be >= 3, got {n}")
        if day < 1:
            raise ValueError(f"day must be >= 1, got {day}")
        if n <= self.chunk_size:
            cohort = self._draw_cohort_oneshot(n)
        else:
            cohort = self._draw_cohort_chunked(n, backend if backend is not None else self.backend)
        # deterministic day-of-week multiplier on the effects, applied
        # in place — the cohort's arrays are freshly generated (or
        # views of freshly generated chunks), so nothing else sees them
        multiplier = 1.0 + self.day_effect * np.sin(2.0 * np.pi * day / 7.0)
        np.multiply(cohort.tau_r, multiplier, out=cohort.tau_r)
        np.clip(cohort.tau_r, 1e-6, None, out=cohort.tau_r)
        np.multiply(cohort.tau_c, multiplier, out=cohort.tau_c)
        np.clip(cohort.tau_c, 1e-6, None, out=cohort.tau_c)
        if self.drift_day is not None and day >= self.drift_day:
            cohort = concept_drift(cohort, strength=self.drift_strength)
        return cohort

    def _draw_cohort_oneshot(self, n: int) -> RCTDataset:
        """Single-pool draw for cohorts that fit in one chunk."""
        # meituan's binarisation keeps ~40% of generated rows; the tilt
        # keeps the requested fraction of its pool — oversample for both
        # so the cohort always has exactly n users, doubling the factor
        # on the rare draws where the yield still falls short
        oversample = 3.0 if self.dataset == "meituan" else 1.2
        # a tiny cohort still asks the generator for the rows it accepts
        least = MIN_ROWS.get(self.dataset, 0)
        cohort = None
        for attempt in range(3):
            if attempt:
                oversample *= 2.0
            if self.shifted:
                pool = load_dataset(
                    self.dataset, max(least, int(2 * n * oversample)), random_state=self._rng
                )
                if pool.n < n:
                    cohort = pool  # short pool: tilting would fail, retry bigger
                    continue
                cohort = exponential_tilt_shift(
                    pool, strength=self.shift_strength, n_out=n, random_state=self._rng
                )
            else:
                cohort = load_dataset(
                    self.dataset, max(least, int(n * oversample)), random_state=self._rng
                )
            if cohort.n >= n:
                break
        if cohort.n < n:
            raise RuntimeError(
                f"Cohort generation produced {cohort.n} < {n} users even at "
                f"oversample factor {oversample:.1f}"
            )
        if cohort.n > n:
            cohort = cohort.subset(np.arange(n))
        return cohort

    def _draw_cohort_chunked(self, n: int, backend: ExecutionBackend | None) -> RCTDataset:
        """Chunked draw: peak memory ~2x the cohort (accumulated chunks
        plus the concatenated output; pool chunks on the shifted path
        are ``2 * chunk_size`` rows), never a multiple-``n`` oversample
        pool.

        Unshifted chunks stream straight from
        :func:`~repro.data.settings.iter_dataset_chunks`; shifted
        cohorts tilt each pool chunk down to half, which targets the
        same shifted marginal as one global tilt (the tilt weights are
        i.i.d. functions of each row's features).  ``backend`` fans
        chunk generation out across a worker pool (tilting stays
        in-process — it is subsampling, not generation).
        """
        parts: list[RCTDataset] = []
        have = 0
        if self.shifted:
            for attempt in range(5):
                need = n - have
                if need <= 0:
                    break
                # 2:1 pool:output ratio, same as the one-shot path
                for pool in iter_dataset_chunks(
                    self.dataset,
                    2 * need,
                    chunk_size=2 * self.chunk_size,
                    random_state=self._rng,
                    backend=backend,
                ):
                    if pool.n < 2:
                        continue
                    kept = exponential_tilt_shift(
                        pool,
                        strength=self.shift_strength,
                        n_out=pool.n // 2,
                        random_state=self._rng,
                    )
                    parts.append(kept)
                    have += kept.n
                    if have >= n:
                        break
            if have < n:
                raise RuntimeError(
                    f"Chunked shifted cohort generation produced {have} < {n} users"
                )
        else:
            for chunk in iter_dataset_chunks(
                self.dataset,
                n,
                chunk_size=self.chunk_size,
                random_state=self._rng,
                backend=backend,
            ):
                parts.append(chunk)
                have += chunk.n
                if have >= n:
                    break
        overshoot = have - n
        if overshoot > 0:
            # trim the tail chunk by view — concat copies (or, single
            # part, the chunk is private), so no bytes move here
            parts[-1] = parts[-1].head(parts[-1].n - overshoot)
        return RCTDataset.concat(parts, copy=False)

    def iter_events(
        self,
        cohort: RCTDataset,
        random_state: int | np.random.Generator | None = None,
    ):
        """Stream a cohort one arrival at a time (the serving-side view).

        Yields ``(index, x_row)`` pairs in a random arrival order —
        production traffic does not arrive sorted by ROI, which is
        exactly why online allocation needs pacing instead of the
        offline sort of Algorithm 1.  ``index`` addresses the cohort's
        ground-truth ``tau_r`` / ``tau_c`` for outcome realisation, and
        ``x_row`` is ``cohort.x[index]``: a replay may read a run's
        rows as one gather of ``cohort.x`` (a traffic source standing
        in for a platform keeps the same contract).

        Parameters
        ----------
        cohort:
            A cohort from :meth:`daily_cohort`.
        random_state:
            Optional dedicated generator for the arrival order; by
            default the platform's own stream is used.
        """
        rng = self._rng if random_state is None else as_generator(random_state)
        for i in rng.permutation(cohort.n):
            i = int(i)
            yield i, cohort.x[i]

    def realize_arm(
        self,
        cohort: RCTDataset,
        treat_order: np.ndarray,
        budget: float,
        cost_uniforms: np.ndarray | None = None,
        reward_uniforms: np.ndarray | None = None,
    ) -> dict:
        """Spend ``budget`` down the given treatment order and realise outcomes.

        Users are treated strictly in ``treat_order``; each treated
        user's *realised* incremental cost (a Bernoulli draw with
        probability ``tau_c``) accrues against the budget — the
        platform semantics of "allocate ... until the budget B is
        reached" (Algorithm 1 line 2).  Costs are not known before
        treating, so there is no skip-ahead: the policy's only lever is
        the *order*.

        Budget boundary (the C-BTAP constraint, enforced strictly):
        treating stops *before* the draw whose cost would make
        cumulative spend reach or cross ``budget`` — the platform never
        authorises a spend it cannot cover.  Realised ``spend`` is
        therefore always ``<= budget`` (strictly below any positive
        budget), and ``budget=0`` treats nobody.  Implemented as one
        batched Bernoulli draw plus a searchsorted spend-down
        (:func:`repro.core.allocation.spend_down_prefix`).

        ``cost_uniforms`` / ``reward_uniforms`` optionally supply the
        per-user uniform draws (common random numbers) — see
        :meth:`realize_arms`.

        Returns
        -------
        dict
            ``revenue`` (baseline + incremental realised revenue),
            ``baseline_revenue``, ``incremental_revenue``,
            ``spend`` and ``n_treated``.
        """
        order = np.asarray(treat_order, dtype=np.int64).ravel()
        # length here + the in-range/no-duplicate checks in realize_arms
        # together demand a full permutation (pigeonhole)
        if order.shape[0] != cohort.n:
            raise ValueError("treat_order must be a permutation of the cohort indices")
        if not budget >= 0:  # rejects NaN too
            raise ValueError(f"budget must be >= 0, got {budget}")
        # one full-cohort arm: same draws, same boundary, one code path
        return self.realize_arms(
            cohort,
            [order],
            [budget],
            cost_uniforms=cost_uniforms,
            reward_uniforms=reward_uniforms,
        )[0]

    def realize_arms(
        self,
        cohort: RCTDataset,
        orders: "list[np.ndarray] | tuple[np.ndarray, ...]",
        budgets: "np.ndarray | list[float]",
        cost_uniforms: np.ndarray | None = None,
        reward_uniforms: np.ndarray | None = None,
    ) -> list[dict]:
        """Realise *all* arms of a day in one batched pass.

        The vectorised counterpart of calling :meth:`realize_arm` once
        per arm on per-arm ``subset`` copies: a single Bernoulli cost
        draw covers every arm, each arm's spend-down is one
        searchsorted over its contiguous segment, and reward draws are
        batched over the union of treated users.  No cohort copies, no
        per-user (or per-arm O(n) Python) work — this is what makes
        million-user A/B days array-speed.

        Outcome draws are **per user**: user ``i``'s realised cost is
        ``U_c[i] < tau_c[i]`` and realised reward ``U_r[i] < tau_r[i]``,
        where ``U_c`` / ``U_r`` are cohort-length uniform tensors.  By
        default the platform draws them from its own stream; passing
        ``cost_uniforms`` / ``reward_uniforms`` supplies them externally
        — the common-random-numbers hook that lets
        :class:`~repro.ab.replay.PolicyReplay` score every policy set
        against *identical* outcome draws (a user realises the same
        cost/reward under every policy that treats them, whatever
        position they are treated in).

        Parameters
        ----------
        cohort:
            The day's full cohort.
        orders:
            One index array per arm, each listing *cohort* indices in
            that arm's treatment order.  Arms must be disjoint (a user
            sees one arm); together they need not cover the cohort.
        budgets:
            Per-arm budgets, aligned with ``orders``.
        cost_uniforms, reward_uniforms:
            Optional cohort-length arrays of uniforms in ``[0, 1)``.
            When supplied, the platform's own RNG stream is left
            untouched by that draw.

        Returns
        -------
        list of dict
            Per-arm outcome dicts with the same keys and the same
            strict budget-boundary semantics as :meth:`realize_arm`
            (``spend <= budget`` always; ``budget=0`` treats nobody).
        """
        budgets = np.asarray(budgets, dtype=float).ravel()
        if len(orders) != budgets.shape[0]:
            raise ValueError(
                f"{len(orders)} orders but {budgets.shape[0]} budgets"
            )
        if np.any(budgets < 0) or np.any(np.isnan(budgets)):
            raise ValueError("budgets must all be >= 0")
        n = cohort.n
        cost_u = _check_uniforms(cost_uniforms, n, "cost_uniforms")
        reward_u = _check_uniforms(reward_uniforms, n, "reward_uniforms")
        orders = [np.asarray(o, dtype=np.int64).ravel() for o in orders]
        sizes = np.array([o.shape[0] for o in orders], dtype=np.int64)
        # single-arm days (realize_arm's path) skip the concat copy
        if len(orders) == 1:
            order_all = orders[0]
        elif orders:
            order_all = np.concatenate(orders)
        else:
            order_all = np.empty(0, dtype=np.int64)
        _check_arm_indices(order_all, n)

        # one per-user uniform tensor realises every arm's costs
        if cost_u is None:
            cost_u = self._rng.random(n)
        costs_in_order = cost_u[order_all] < cohort.tau_c[order_all]
        starts = np.concatenate(([0], np.cumsum(sizes)))

        outcomes: list[dict] = []
        treated_parts: list[np.ndarray] = []
        for a in range(len(orders)):
            segment = costs_in_order[starts[a] : starts[a + 1]]
            k, cumulative = spend_down_prefix(
                segment, float(budgets[a]), stop_before_crossing=True
            )
            spend = float(cumulative[k - 1]) if k > 0 else 0.0
            treated_parts.append(order_all[starts[a] : starts[a] + k])
            # The baseline is the *expected* untreated revenue of the
            # group.  The real platform serves millions of users per
            # day, so the relative noise of the realised baseline is
            # negligible; drawing it per-user at simulator scale would
            # bury the policy effect in binomial noise that the
            # production metric does not have.
            baseline = float(sizes[a] * self.base_revenue_rate)
            outcomes.append(
                {
                    "revenue": baseline,  # incremental added below
                    "baseline_revenue": baseline,
                    "incremental_revenue": 0.0,
                    "spend": spend,
                    "n_treated": int(k),
                }
            )

        # batched reward draw over the union of treated users
        if len(treated_parts) == 1:
            treated_all = treated_parts[0]
        elif treated_parts:
            treated_all = np.concatenate(treated_parts)
        else:
            treated_all = np.empty(0, dtype=np.int64)
        if reward_u is None:
            reward_u = self._rng.random(n)
        reward_draw = reward_u[treated_all] < cohort.tau_r[treated_all]
        pos = 0
        for a, part in enumerate(treated_parts):
            incremental = float(np.count_nonzero(reward_draw[pos : pos + part.shape[0]]))
            pos += part.shape[0]
            outcomes[a]["incremental_revenue"] = incremental
            outcomes[a]["revenue"] += incremental
        return outcomes
