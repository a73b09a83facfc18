"""Hypothesis settings shared by every property test: the default profile without
its explain phase.

After a property test fails and its example is shrunk, the explain phase runs the
shrunk example again under line tracing to report which lines it covered.  It
checks nothing and only adds to the report of a failure, but it takes several
times as long as finding and shrinking the failure did.
"""

from hypothesis import Phase, settings

settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")
