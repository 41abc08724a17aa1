"""Depression classification from facial action-unit (AU) time-series.

Two complementary subsystems score each participant clip:

* clip level: two class-conditional diagonal Gaussian mixtures fitted by EM,
  compared through the clip log-likelihood ratio;
* short term: per-window linear ranking kernels (rank pooling) classified by
  a small MLP, one vote per window.

A weighted fusion of the likelihood gap and the vote count yields the final
decision. ``aufusion.evaluate`` runs the leave-one-out protocol and
``aufusion.cli`` exposes the whole pipeline as subcommands.
"""

__version__ = "0.1.0"

from .ingest import AUClip, Corpus, Label, Segment, SynthConfig  # noqa: F401
from .gmm import EmConfig, GmmModel  # noqa: F401
from .rankpool import RankPoolConfig  # noqa: F401
from .mlp import MlpModel, TrainConfig  # noqa: F401
from .fusion import FusionConfig, FusionResult  # noqa: F401
