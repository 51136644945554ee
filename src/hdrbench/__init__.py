"""Bit-depth benchmarking toolkit for HDR video encoders.

Measures rate, quality, CPU time and package energy of encoder variants
that trade internal bit depth for speed, and compares them with
Bjøntegaard-style curve deltas.

Importing the package imports none of its modules, so that
``python -m hdrbench.mockcodec`` starts without the curve, metric and
child-process code it never uses: import each module by name
(``from hdrbench import curves``).
"""

__version__ = "0.1.0"
