from hypothesis import settings

# Derandomized and without an example database: every run draws the same
# examples and nothing is written to .hypothesis/.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
