"""qnip — fixed-point CNN compression and pooled retrieval descriptors.

Conv weights collapse to a per-kernel 8-bit scalar times an m-bit integer
mask (m = 1..5) against a shared layer shift; a quantization-aware
retraining loop recovers the lost accuracy; rotation-invariant grid-pooled
descriptors (whole-image or per-crop) feed a small retrieval harness.
Everything runs on numpy at desk scale.
"""
from importlib.resources import files as _files

from .codec import (CodecError, CompressedModel, CorruptionError, EncodeError,
                    FormatError, ModelSizes, TruncationError,
                    UnsupportedVersionError, build_compressed_model, decode,
                    dequantized_float_model, encode, load_model, model_ratio,
                    model_sizes, parse_profile, ratio_formula, save_model)
from .descriptor import (Descriptor, binarize_descriptor, convert_descriptor,
                         dequantize_descriptor, extract_nip, extract_rnip,
                         load_descriptors, nip_pool, quantize_descriptor,
                         roi_grid, save_descriptors)
from .engine import (accuracy, calibrate_activation_exponents, classify,
                     check_accumulator_bounds, forward)
from .network import (FloatModel, NetworkDefinition, NetworkConfigError,
                      init_float_model, load_float_model, load_network,
                      model_checksum, parse_network, propagate_shapes,
                      save_float_model)
from .ops import (DegenerateCropError, ShapeError, conv2d, crop, fully_connected,
                  maxpool2x2, relu, resize_bilinear, rotate90, softmax_cross_entropy)
from .quantize import (QuantStats, QuantizedLayer, ShiftResult,
                       compute_layer_shift, dequantize_bias, dequantize_layer,
                       dequantize_scalar, quantize_bias, quantize_kernel_1bit,
                       quantize_kernel_multibit, quantize_layer, quantize_scalar)
from .retrieval import (RetrievalIndex, average_precision, build_index, evaluate,
                        ingest_dataset, mean_average_precision, read_ground_truth,
                        read_image, search, write_ground_truth, write_image,
                        write_results_csv)
from .train import (DivergenceError, EpochMetrics, RetrainResult, TrainConfig,
                    TrainResult, gradient_check, retrain_quantized, train_float,
                    write_metrics_csv)

__version__ = "0.1.0"


def config_path(name: str):
    """Path to a bundled architecture config ("vgg16" or "toynet")."""
    return _files("qnip").joinpath(f"configs/{name}.cfg")
