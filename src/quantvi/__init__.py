"""Layer-wise unbiased quantization and communication-efficient VI solvers.

The package is organized bottom-up:

``levels``
    Level-sequence definitions, validation, and closed-form variance bounds.
``quantizer``
    Stochastic unbiased quantization of real vectors against a level family.
``codec``
    Prefix coding (canonical Huffman / Elias omega) of quantized vectors
    under two transmission protocols, with code-length accounting.
``adapt``
    Distribution estimation of normalized coordinates, level placement by
    dynamic programming, and the level probabilities Huffman books use.
``vi``
    Synthetic monotone variational-inequality problems, noise oracles, and
    the restricted gap, computed exactly.
``solver``
    The quantized optimistic dual-averaging loop over simulated nodes plus
    an extragradient baseline.
``runner``
    Config parsing, experiment presets, CSV/JSON emission, and the CLI.
"""

from .levels import LevelSequence, LevelFamily, family_stats, variance_bound_eps
from .quantizer import QuantizedVector, quantize_vector, dequantize
from .codec import Codebook, encode, decode

__all__ = [
    "LevelSequence",
    "LevelFamily",
    "family_stats",
    "variance_bound_eps",
    "QuantizedVector",
    "quantize_vector",
    "dequantize",
    "Codebook",
    "encode",
    "decode",
]

__version__ = "0.1.0"
