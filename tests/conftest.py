import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs tests/test_robustness.py, tests/test_indexing.py, the
# semi-naive property of tests/test_semantics.py, the head-match and
# negation-freshness properties of tests/test_engine.py, the term equality
# and reference-unifier properties of tests/test_terms.py and the retract
# property of tests/test_database.py once more under this profile
# (pytest --hypothesis-profile=robustness).
settings.register_profile("robustness", max_examples=2000)
