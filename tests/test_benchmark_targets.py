"""The benchmark in ``perfbench/`` times modecomb functions by name.

``perfbench/layers.py`` lists them; installing its tracer wraps each one at
every module global of modecomb that binds it and raises if a name is gone
(KeyError) or an unwrapped reference is left behind, such as a dispatch
table holding the original (CoverageError).  This suite imports those two
files unchanged, so a rename or a leak fails here too.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_benchmark_targets_install_and_restore():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        from tracer import Tracer, _resolve, installed
    finally:
        sys.path.remove(PERFBENCH)

    def bound():
        return [getattr(*_resolve(target)) for target in layers.TARGETS]

    before = bound()
    with installed(Tracer(), layers.TARGETS, "modecomb"):
        assert all(hasattr(fn, "__traced_original__") for fn in bound())
    assert all(a is b for a, b in zip(bound(), before))
    assert not any(hasattr(fn, "__traced_original__") for fn in before)
