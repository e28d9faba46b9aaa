import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs tests/test_robustness.py, tests/test_indexing.py, the
# two random-program properties of tests/test_finalization.py, the semi-naive
# property of tests/test_semantics.py, the two head-match properties
# (against renaming then unifying, and the compiled match against the
# generic walk) and the negation-freshness property of
# tests/test_engine.py, the term equality, reference-unifier and
# reference-resolver properties of tests/test_terms.py, the retract
# property of tests/test_database.py, the reference-reader property of
# tests/test_parser.py and the memo-table property of tests/test_oracle.py
# once more under this profile
# (pytest --hypothesis-profile=robustness).
settings.register_profile("robustness", max_examples=2000)
