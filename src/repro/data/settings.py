"""The paper's four experimental settings (§V-A).

Settings are the cross product of data sufficiency and covariate shift
between the training set and the calibration/test sets:

* **SuNo** — Sufficient data, No covariate shift;
* **SuCo** — Sufficient data, Covariate shift;
* **InNo** — Insufficient data (0.15 subsample), No covariate shift;
* **InCo** — Insufficient data, Covariate shift.

Per the paper: "the insufficient dataset are randomly taken from the
sufficient dataset with a 0.15 sample rate" and "the covariate shift
... is achieved by altering the distribution of the features only in
the calibration and test sets" — the training set always keeps the
base distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.alibaba import alibaba_lift
from repro.data.criteo import criteo_uplift_v2
from repro.data.meituan import meituan_lift
from repro.data.rct import RCTDataset
from repro.data.shift import exponential_tilt_shift
from repro.runtime import ExecutionBackend
from repro.utils.rng import SeedStream, as_generator

__all__ = [
    "SETTING_NAMES",
    "DATASET_NAMES",
    "SettingData",
    "iter_dataset_chunks",
    "load_dataset",
    "make_setting",
]

SETTING_NAMES = ("SuNo", "SuCo", "InNo", "InCo")
DATASET_NAMES = ("criteo", "meituan", "alibaba")

_GENERATORS = {
    "criteo": criteo_uplift_v2,
    "meituan": meituan_lift,
    "alibaba": alibaba_lift,
}
#: the fewest rows each generator accepts (its own ``n must be >= ...``)
MIN_ROWS = {"criteo": 10, "meituan": 25, "alibaba": 10}

INSUFFICIENT_RATE = 0.15


@dataclass
class SettingData:
    """Train / calibration / test triple for one experimental setting.

    The calibration set plays the role of the paper's "one or two day
    RCT collected right before deployment": it always shares the test
    set's distribution (Assumption 6), shifted or not.
    """

    train: RCTDataset
    calibration: RCTDataset
    test: RCTDataset
    dataset: str
    setting: str

    @property
    def has_shift(self) -> bool:
        return self.setting.endswith("Co")

    @property
    def is_sufficient(self) -> bool:
        return self.setting.startswith("Su")


def load_dataset(
    name: str, n: int, random_state: int | np.random.Generator | None = None
) -> RCTDataset:
    """Generate one of the three analogs by name."""
    if name not in _GENERATORS:
        raise ValueError(f"Unknown dataset {name!r}; choose from {DATASET_NAMES}")
    return _GENERATORS[name](n, random_state=random_state)


def _generate_chunk(name: str, request: int, seed: int) -> RCTDataset:
    """One chunk, a pure function of ``(name, request, seed)``.

    Module-level (and seeded by a plain int) so a
    :class:`~concurrent.futures.ProcessPoolExecutor` can run it in any
    worker, in any order, and still produce exactly the rows the serial
    path would.
    """
    return load_dataset(name, request, random_state=seed)


def _next_request(n: int, produced: int, requested: int, chunk_size: int) -> int:
    """Request size for the next chunk, given all completed chunks so far.

    Adapts to the yield rate observed so far, so under-producing
    generators (meituan keeps ~40% of rows) converge in a handful of
    tail chunks instead of guessing a global oversample factor.  The
    floor of 50 keeps a tiny tail shortfall from producing a request
    below any generator's minimum (meituan needs >= 25).
    """
    yield_rate = produced / requested if requested else 1.0
    return min(chunk_size, max(50, int(np.ceil((n - produced) / max(yield_rate, 0.05)))))


def _check_chunk_cap(name: str, n: int, produced: int, n_chunks: int, max_chunks: int) -> None:
    if n_chunks >= max_chunks:
        raise RuntimeError(
            f"Chunked generation of {name!r} produced {produced} < {n} "
            f"rows after {n_chunks} chunks — generator yield too low"
        )


def iter_dataset_chunks(
    name: str,
    n: int,
    chunk_size: int = 250_000,
    random_state: int | np.random.Generator | None = None,
    backend: ExecutionBackend | None = None,
):
    """Yield dataset chunks until at least ``n`` rows have been produced.

    Million-user cohorts cannot afford the one-shot generators' habit of
    materialising an oversample pool several times the target size (the
    meituan analog keeps only ~40% of generated rows).  This generator
    itself holds only one chunk at a time (consumers that accumulate the
    yielded chunks pay for what they keep): it draws ``chunk_size``-row batches,
    yields whatever each batch actually produced, and adapts the next
    request to the yield rate observed so far, so under-producing
    generators converge in a handful of tail chunks instead of guessing
    a global oversample factor.

    Chunk ``i`` is a pure function of ``(name, request_i, seed_i)``
    where ``seed_i`` comes from a :class:`~repro.utils.rng.SeedStream`
    substream — chunks are independent of each other and of execution
    order.  Fan-out exploits that: full-size chunks are generated
    speculatively on an :class:`~repro.runtime.ExecutionBackend` and
    consumed in index order, falling back to an in-process draw for
    the adaptive tail chunk whose request depends on the observed yield.
    The yielded chunks are **bit-identical** to the serial path's.

    The ``backend`` is borrowed, so the pool it wraps is *reused*
    across calls (one startup per run, however many days' cohorts
    stream through it).

    Parameters
    ----------
    name:
        Dataset analog name (see :data:`DATASET_NAMES`).
    n:
        Total rows required across all yielded chunks (the final chunk
        may overshoot; the consumer trims).
    chunk_size:
        Upper bound on any single generator request.
    random_state:
        Seed/generator.  Exactly one draw is consumed from a passed
        generator (to derive the chunk substream root), identically in
        serial and parallel mode — do not otherwise rely on the
        generator's position afterwards.
    backend:
        A shared :class:`~repro.runtime.ExecutionBackend` to fan
        chunks out on.  The backend is *not* shut down by this
        generator, so one pool can serve every call of a multi-day
        run.  A backend with ``n_workers == 1`` (e.g.
        :class:`~repro.runtime.SerialBackend`) takes the serial path.

    Yields
    ------
    RCTDataset
        Chunks whose row counts sum to >= ``n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if chunk_size < 50:
        raise ValueError(f"chunk_size must be >= 50, got {chunk_size}")
    if name not in _GENERATORS:
        raise ValueError(f"Unknown dataset {name!r}; choose from {DATASET_NAMES}")
    seeds = SeedStream(random_state)
    # generous cap: even a 10%-yield generator fits well inside it
    max_chunks = 20 * (n // chunk_size + 1) + 10
    if backend is not None and backend.n_workers > 1 and n > chunk_size:
        yield from _iter_chunks_parallel(name, n, chunk_size, seeds, backend, max_chunks)
    else:
        yield from _iter_chunks_serial(name, n, chunk_size, seeds, max_chunks)


def _iter_chunks_serial(name, n, chunk_size, seeds, max_chunks):
    produced = 0
    requested = 0
    n_chunks = 0
    while produced < n:
        _check_chunk_cap(name, n, produced, n_chunks, max_chunks)
        request = _next_request(n, produced, requested, chunk_size)
        chunk = _generate_chunk(name, request, seeds.seed(n_chunks))
        requested += request
        produced += chunk.n
        n_chunks += 1
        yield chunk


def _iter_chunks_parallel(name, n, chunk_size, seeds, backend, max_chunks):
    """Speculative parallel execution of the serial chunk schedule.

    Every non-tail chunk of the serial schedule requests exactly
    ``chunk_size`` rows, so those can be submitted ahead of time; only
    a chunk whose adaptive request turns out to differ (the tail, once
    the remaining need shrinks below a full chunk) is recomputed
    in-process with the correct request.  Consuming results strictly in
    index order with per-index substream seeds makes the yielded
    sequence bit-identical to :func:`_iter_chunks_serial`.

    The ``backend`` is borrowed, never shut down here — speculative
    futures that outlive the iterator are cancelled, and the pool
    stays warm for the caller's next chunked draw.
    """
    produced = 0
    requested = 0
    n_chunks = 0
    window = backend.n_workers + 1  # keep the pool busy while the tail is consumed
    pending: dict[int, object] = {}
    next_submit = 0
    try:
        while produced < n:
            _check_chunk_cap(name, n, produced, n_chunks, max_chunks)
            request = _next_request(n, produced, requested, chunk_size)
            if request == chunk_size:
                # speculate no further ahead than the observed yield rate
                # says is needed — over-submitting would generate chunks
                # past the stopping index only to discard them (and
                # block on them at shutdown)
                yield_rate = produced / requested if requested else 1.0
                expected_remaining = int(
                    np.ceil((n - produced) / (chunk_size * max(yield_rate, 0.05)))
                )
                while next_submit < n_chunks + min(window, expected_remaining):
                    pending[next_submit] = backend.submit(
                        _generate_chunk, name, chunk_size, seeds.seed(next_submit)
                    )
                    next_submit += 1
                chunk = pending.pop(n_chunks).result()
            else:
                # adaptive tail: the schedule's request differs from the
                # speculated full-size draw, so generate it in-process
                # (and drop the speculative result if one was submitted)
                future = pending.pop(n_chunks, None)
                if future is not None:
                    future.cancel()
                chunk = _generate_chunk(name, request, seeds.seed(n_chunks))
            requested += request
            produced += chunk.n
            n_chunks += 1
            yield chunk
    finally:
        for future in pending.values():
            future.cancel()


def make_setting(
    dataset: str,
    setting: str,
    n_sufficient: int = 12000,
    calibration_fraction: float = 0.15,
    test_fraction: float = 0.35,
    shift_strength: float = 1.2,
    random_state: int | np.random.Generator | None = None,
) -> SettingData:
    """Build the train/calibration/test triple of one Table-I cell.

    Parameters
    ----------
    dataset:
        ``"criteo"``, ``"meituan"`` or ``"alibaba"``.
    setting:
        ``"SuNo"``, ``"SuCo"``, ``"InNo"`` or ``"InCo"``.
    n_sufficient:
        Base corpus size; the *train* split of an ``In*`` setting is a
        0.15 subsample of the sufficient train split (paper protocol).
    calibration_fraction, test_fraction:
        Split fractions of the base corpus (the rest trains).
    shift_strength:
        Exponential-tilt strength applied to calibration+test in
        ``*Co`` settings.
    random_state:
        Seed/generator; each stage derives an independent stream.

    Returns
    -------
    SettingData
    """
    if setting not in SETTING_NAMES:
        raise ValueError(f"Unknown setting {setting!r}; choose from {SETTING_NAMES}")
    if calibration_fraction + test_fraction >= 1.0:
        raise ValueError("calibration_fraction + test_fraction must be < 1")
    rng = as_generator(random_state)

    # calibration/test are drawn from 2x pools so the *Co settings can
    # tilt-subsample (without replacement) down to the same sizes the
    # *No settings get — the corpus is enlarged accordingly.
    pool_factor = 1.0 + calibration_fraction + test_fraction
    # meituan keeps ~40% of generated rows after binarisation; oversample
    oversample = 2.6 if dataset == "meituan" else 1.0
    n_corpus = int(np.ceil(n_sufficient * pool_factor))
    corpus = load_dataset(dataset, int(n_corpus * oversample), random_state=rng)
    if corpus.n > n_corpus:
        corpus = corpus.subset(np.arange(n_corpus))

    train_fraction = (1.0 - calibration_fraction - test_fraction) / pool_factor
    calib_pool_fraction = 2.0 * calibration_fraction / pool_factor
    test_pool_fraction = 2.0 * test_fraction / pool_factor
    train, calib_pool, test_pool = corpus.split(
        (train_fraction, calib_pool_fraction, test_pool_fraction), random_state=rng
    )

    if setting.startswith("In"):
        train = train.sample_fraction(INSUFFICIENT_RATE, random_state=rng)

    if setting.endswith("Co"):
        calibration = exponential_tilt_shift(
            calib_pool, strength=shift_strength, n_out=calib_pool.n // 2, random_state=rng
        )
        test = exponential_tilt_shift(
            test_pool, strength=shift_strength, n_out=test_pool.n // 2, random_state=rng
        )
    else:
        calibration = calib_pool.sample_fraction(0.5, random_state=rng)
        test = test_pool.sample_fraction(0.5, random_state=rng)

    return SettingData(
        train=train,
        calibration=calibration,
        test=test,
        dataset=dataset,
        setting=setting,
    )
