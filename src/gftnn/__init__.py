"""Graph-spectral trajectory prediction for highway traffic."""

from .graph import (D_FLOOR, Graph, Laplacian, apply_inverse_distance_weights,
                    build_line_graph, build_mesh_graph, build_spider_graph,
                    cartesian_product, inverse_distance_weights, laplacian)
from .spectral import (ProductBasis, Spectrum, complete_spectrum, eigendecompose,
                       gft_extended, inverse_gft, path_spectrum, star_spectra,
                       symmetric_eigh, unit_star_spectrum)
from .scenario import (BLOCK_ROWS, MANEUVERS, Archive, BalanceError, DatasetSplit,
                       ParseError, RawTrack, Scenario, ScenarioBatch, SchemaError,
                       SplitError, TrackBatch, balance, extract_scenarios, ingest_tracks,
                       label_maneuver, load_archive, open_archive, save_archive,
                       split, synthesize, track_batch)
from .model import (PRESETS, Checkpoint, ModelConfig, ModelParams, NumericError, Trajectory,
                    build_basis, check_grid, decode, decode_batch, decode_partials, forward,
                    gelu, gelu_grad, init_params, load_checkpoint, loss_batch, predict,
                    predict_batch, preset_config, save_checkpoint, scenario_spectra, score,
                    score_blocks, select_channels, truth_trajectory)
from .training import (AdamState, DivergenceError, TrainConfig, TrainResult,
                       adam_step, gradients, train, trajectory_loss)
from .metrics import (EvalReport, ade, ade_euclid_mean, evaluate, fde,
                      histogram, histogram_mode, per_scenario_ade)

__version__ = "0.1.0"
