"""hymad: multi-label detection of overlapping seismic activities.

From-scratch differentiable pipeline: learnable sinc band-pass frontend,
RNN temporal encoder, self/cross-attention fusion, multi-label head, with a
synthetic overlapping-event dataset protocol, training harness, and metrics.
"""

__version__ = "0.2.0"
