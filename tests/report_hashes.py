"""Print a short hash of the report JSON of every verdict-table family.

One line per family and seed, ``family/seed sha256[:12]``, for the families
of ``test_verdicts.CASES`` at seeds 0 and 7.  A change that must keep the
report bytes compares these lines with the parent tree's, once on numpy's
default SIMD target and once with its AVX-512 loops off (the report values
may differ by ulps between targets, see ROADMAP item 3):

    python tests/report_hashes.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" python tests/report_hashes.py

The name does not start with ``test_``, so pytest does not collect it.
"""

import hashlib
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parents[1] / "src")]

from qentropy.axioms import CheckConfig, run_full_report  # noqa: E402
from test_verdicts import CASES  # noqa: E402

for name, (family, _) in CASES.items():
    for seed in (0, 7):
        report = run_full_report(family, CheckConfig(seed=seed)).to_json()
        print(f"{name}/{seed} {hashlib.sha256(report.encode()).hexdigest()[:12]}")
