"""The password strength meters evaluated in the paper.

Six meters, all sharing the :class:`~repro.meters.base.Meter` interface:

* :class:`~repro.core.meter.FuzzyPSM` — the paper's contribution
  (lives in :mod:`repro.core`, re-exported here for convenience);
* :class:`~repro.meters.pcfg.PCFGMeter` — PCFG-based PSM
  (Weir et al. S&P'09 / Houshmand & Aggarwal ACSAC'12, with letter
  segments learned from training per Ma et al. S&P'14);
* :class:`~repro.meters.markov.MarkovMeter` — Markov-based PSM
  (Castelluccia et al. NDSS'12) with backoff / Laplace / Good-Turing
  smoothing;
* :class:`~repro.meters.zxcvbn.ZxcvbnMeter` — reimplementation of
  Dropbox's zxcvbn;
* :class:`~repro.meters.keepsm.KeePSMMeter` — reimplementation of the
  KeePass quality estimator;
* :class:`~repro.meters.nist.NISTMeter` — NIST SP-800-63 entropy;
* :class:`~repro.meters.ideal.IdealMeter` — the practically ideal
  meter (paper Sec. II-B), the benchmark all others are scored against.
"""

from repro.meters.base import Meter, ProbabilisticMeter, entropy_to_probability
from repro.meters.registry import (
    Capability,
    MeterSpec,
    Persistable,
    TrainContext,
    Trainable,
    Updatable,
    build_meter,
    register_meter,
)
from repro.meters.ideal import IdealMeter
from repro.meters.pcfg import PCFGMeter
from repro.meters.markov import MarkovMeter, Smoothing
from repro.meters.zxcvbn import ZxcvbnMeter
from repro.meters.keepsm import KeePSMMeter
from repro.meters.nist import NISTMeter

# FuzzyPSM itself lives in repro.core (it *is* the paper's contribution);
# import it from there or from the top-level ``repro`` package.

__all__ = [
    "Meter",
    "ProbabilisticMeter",
    "entropy_to_probability",
    "Capability",
    "MeterSpec",
    "Persistable",
    "TrainContext",
    "Trainable",
    "Updatable",
    "build_meter",
    "register_meter",
    "IdealMeter",
    "PCFGMeter",
    "MarkovMeter",
    "Smoothing",
    "ZxcvbnMeter",
    "KeePSMMeter",
    "NISTMeter",
]
