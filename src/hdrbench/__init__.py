"""Bit-depth benchmarking toolkit for HDR video encoders.

Measures rate, quality, CPU time and package energy of encoder variants
that trade internal bit depth for speed, and compares them with
Bjøntegaard-style curve deltas.
"""

from .bitdepth import convert_file, quantization_noise_report
from .curves import Curve, OperatingPoint, bd_delta, compare, find_intersections
from .errors import ExecutionError, ValidationError
from .metrics import psnr_plane, psnr_yuv, score_files
from .yuv import Frame, PlaneFormat, iter_frames, write_frames

__version__ = "0.1.0"

__all__ = [
    "Curve",
    "ExecutionError",
    "Frame",
    "OperatingPoint",
    "PlaneFormat",
    "ValidationError",
    "bd_delta",
    "compare",
    "convert_file",
    "find_intersections",
    "iter_frames",
    "psnr_plane",
    "psnr_yuv",
    "quantization_noise_report",
    "score_files",
    "write_frames",
    "__version__",
]
