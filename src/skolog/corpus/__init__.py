"""Bundled example programs and oracle answer scripts."""

from importlib import resources
from pathlib import Path


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled corpus file."""
    return Path(str(resources.files(__name__) / name))


def corpus_text(name: str) -> str:
    return (resources.files(__name__) / name).read_text()


PROGRAMS = ("append.pl", "course.pl", "twins.pl")
