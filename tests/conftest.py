import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs tests/test_robustness.py, tests/test_indexing.py, the
# random-program property of tests/test_finalization.py, the
# semi-naive property of tests/test_semantics.py, the head-match and
# negation-freshness properties of tests/test_engine.py, the term equality
# and reference-unifier properties of tests/test_terms.py, the retract
# property of tests/test_database.py and the reference-reader property of
# tests/test_parser.py once more under this profile
# (pytest --hypothesis-profile=robustness).
settings.register_profile("robustness", max_examples=2000)
