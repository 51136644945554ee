"""Bit-depth benchmarking toolkit for HDR video encoders.

Measures rate, quality, CPU time and package energy of encoder variants
that trade internal bit depth for speed, and compares them with
Bjøntegaard-style curve deltas.

The names below are imported from their modules on first access, so that
``python -m hdrbench.mockcodec`` starts without the curve, metric and
child-process code it never uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "Curve": "curves",
    "ExecutionError": "errors",
    "Frame": "yuv",
    "OperatingPoint": "curves",
    "PlaneFormat": "yuv",
    "ValidationError": "errors",
    "bd_delta": "curves",
    "compare": "curves",
    "convert_file": "bitdepth",
    "find_intersections": "curves",
    "iter_frames": "yuv",
    "psnr_plane": "metrics",
    "psnr_yuv": "metrics",
    "quantization_noise_report": "bitdepth",
    "score_files": "metrics",
    "write_frames": "yuv",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
