"""Layered randomized quantization for communication-efficient private local SGD."""

from .analysis import (BoundInputs, am_qm_factor, bound_bq, bound_dynamic,
                       bound_gau_lrq, bound_lsgd, bound_qg, comm_cost,
                       full_precision_cost, ks_statistic)
from .config import ExperimentConfig, build_simulation, load_config, run_experiment
from .errors import (ConfigError, DivergedError, InvalidParameterError,
                     StreamExhaustedError)
from .normal import inv_norm_cdf
from .orchestrator import (AlgorithmKind, RoundRecord, RunTrace, Simulation,
                           WireMessage, aggregate_and_step, pack_indices,
                           parse_message, sample_clients, serialize_message,
                           unpack_indices)
from .privacy import (ClipConfig, PrivacyBudget, SigmaSchedule, clip_update,
                      epsilon_from_sigmas, median_clip_bound, per_round_epsilon,
                      sigma_fixed, sigma_schedule_dynamic)
from .quantizers import (MIN_STEP_FACTOR, EncodedVector, LayerSample,
                         bit_width, lrq_decode, lrq_encode,
                         lrq_quantize_vector, lrq_reconstruct_vector,
                         sample_layer)
from .streams import DrawStream, SeedMaterial, element_pairs, uniform_pair_block
from .training import (LocalDataset, ModelState, Objective, ObjectiveSpec,
                       local_rounds, stochastic_gradient, synth_partition,
                       weighted_error)

__version__ = "0.1.0"
