"""Hypothesis draws its examples from a fixed seed, so that every run of the
suite checks the same cases and takes about the same time."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
