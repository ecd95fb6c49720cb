"""Make the benchmark's modules and the checkout's modecomb importable."""

import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [PERFBENCH, os.path.join(os.path.dirname(PERFBENCH), "src")]
