import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs the properties that the robustness steps of
# .github/workflows/tests.yml name once more under this profile
# (pytest --hypothesis-profile=robustness); the workflow is their one list.
settings.register_profile("robustness", max_examples=2000)
