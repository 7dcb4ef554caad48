from hypothesis import settings

# Derandomized and without an example database: every run draws the same
# examples.  A failing example still writes a patch under
# .hypothesis/patches/, which is git-ignored.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
