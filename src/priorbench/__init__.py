"""Benchmark harness for diffusion and rectified-flow priors over a shared
conditional latent space: matched training, retrieval metrics, and
latency-quality sweeps on synthetic tasks with known statistics."""

from .bench import (DIFFUSION_STEP_RANGE, FLOW_STEP_RANGE, LatencyProtocol,
                    LatencyResult, ParetoPoint, SurrogatePipeline,
                    default_step_range, make_sampler_invocation,
                    measure_latency, pareto_sweep, per_step_cost)
from .config import (RunConfig, RunManifest, load_run_config, manifest_for,
                     resolve_run_dir, run_root)
from .data import (ConditionSpec, Dataset, TaskSettings, default_task,
                   generate_dataset, ground_truth_sample, make_task)
from .errors import (CheckpointError, ConfigError, DegenerateInputError,
                     DivergenceError, EvaluationError, InvalidMatrixError,
                     PriorBenchError, ProtocolError)
from .evaluation import EvalSettings, evaluate, generate_latents
from .linalg import (GaussianStats, estimate_moments, jacobi_eigh,
                     psd_matrix_sqrt)
from .metrics import (EmbeddingSpace, MetricBundle, diversity, ema_smooth,
                      fid, frechet_gaussian, matching_score, multimodality,
                      r_precision)
from .network import (AdamW, PriorNetwork, load_checkpoint, save_checkpoint,
                      time_embedding)
from .objectives import (FlowSample, NoiseSchedule, build_scaled_linear_schedule,
                         diffusion_loss, diffusion_noising, flow_loss,
                         flow_make_sample, sample_logit_normal_t)
from .rng import SeededRng
from .samplers import (StridedTimesteps, ddpm_ancestral_sample, euler_integrate,
                       make_strided_timesteps, rk4_integrate)
from .training import RunRecord, TrainConfig, select_peak_epoch, train

__version__ = "0.1.0"
