"""Session setup, loaded before any test module imports numpy.

Tests run with one OpenBLAS thread unless the environment sets another count.
The engine's products are small, so extra BLAS threads only spin, and each
worker process that criterion 2 starts would keep its own pool. The engine
gives the same bits at any count (test_determinism_across_blas_thread_counts).
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
