"""The paper's primary contribution: DRP, its baselines, and rDRP.

* :class:`DRPModel` — Direct ROI Prediction (Zhou et al., AAAI 2023),
  the convex-loss neural model rDRP builds on (Eq. 2);
* :class:`DirectRank` — the DR ranking baseline (Du et al., 2019):
  :class:`DRPModel` trained on DR's ratio loss;
* :class:`RoiStarEstimator` / :func:`binary_search_roi_star` —
  Algorithm 2, locating the loss convergence point ``roi*``;
* :class:`ConformalCalibrator` — Eq. 3 scores + Algorithm 3 intervals;
* :mod:`~repro.core.calibration` — the M4-inspired heuristic forms
  5a–5c and their AUCC-based selection;
* :class:`RobustDRP` — Algorithm 4, the full rDRP pipeline;
* :func:`greedy_allocation` — Algorithm 1, solving C-BTAP from a
  predicted-ROI ranking.
"""

from repro.core.allocation import (
    AllocationResult,
    greedy_allocation,
    greedy_allocation_by_roi,
    spend_down_prefix,
)
from repro.core.calibration import (
    CALIBRATION_FORMS,
    HeuristicCalibration,
    apply_form,
    combine_point_and_std,
)
from repro.core.conformal import (
    ConformalCalibrator,
    conformal_quantile,
    conformal_score,
    empirical_coverage,
    prediction_interval,
)
from repro.core.direct_rank import DirectRank, dr_loss
from repro.core.drp import DRPModel, drp_loss, drp_loss_gradient, drp_pooled_derivative
from repro.core.extensions import IsotonicRoiRecalibration, pav_isotonic
from repro.core.multi_treatment import DivideAndConquerRDRP, MultiAllocationResult
from repro.core.rdrp import RobustDRP
from repro.core.roi_star import RoiStarEstimator, binary_search_roi_star, bisect_monotone

__all__ = [
    "AllocationResult",
    "bisect_monotone",
    "CALIBRATION_FORMS",
    "ConformalCalibrator",
    "DRPModel",
    "DirectRank",
    "DivideAndConquerRDRP",
    "MultiAllocationResult",
    "HeuristicCalibration",
    "IsotonicRoiRecalibration",
    "pav_isotonic",
    "RobustDRP",
    "RoiStarEstimator",
    "apply_form",
    "binary_search_roi_star",
    "combine_point_and_std",
    "conformal_quantile",
    "conformal_score",
    "dr_loss",
    "drp_loss",
    "drp_loss_gradient",
    "drp_pooled_derivative",
    "empirical_coverage",
    "greedy_allocation",
    "greedy_allocation_by_roi",
    "prediction_interval",
    "spend_down_prefix",
]
