"""One hypothesis profile for the whole suite: examples are derived from
each test rather than drawn at random, there is no per-example deadline,
and no example database is kept, so every run tries the same inputs."""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("strcat", derandomize=True, deadline=None, database=None)
settings.load_profile("strcat")


def pytest_configure(config):
    # hypothesis still caches the constants it reads from the source; keep
    # that inside pytest's own cache rather than in a .hypothesis/ directory
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
