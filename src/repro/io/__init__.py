"""The I/O subsystem: the Panasas parallel filesystem behind 12 I/O
nodes per CU (paper §II-B).
"""

from repro.io.panasas import PanasasModel, IoNodeSpec

__all__ = ["PanasasModel", "IoNodeSpec"]
