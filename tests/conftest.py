from hypothesis import settings

# Settings of every hypothesis property in these tests: derandomized, so
# a run draws the same examples each time, and without a deadline, since
# some examples run the quadrature oracles.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
