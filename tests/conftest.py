"""Hypothesis profiles for the test suite.

The default profile is Hypothesis's own.  ``--hypothesis-profile=ci`` runs
500 examples per property, which CI uses to stress the polynomial kernel.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500)
