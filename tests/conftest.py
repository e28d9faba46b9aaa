import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs tests/test_robustness.py, tests/test_indexing.py, the
# semi-naive property of tests/test_semantics.py and the negation-freshness
# property of tests/test_engine.py once more under this profile
# (pytest --hypothesis-profile=robustness).
settings.register_profile("robustness", max_examples=2000)
