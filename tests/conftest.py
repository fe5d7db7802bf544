"""Hypothesis profiles; tests run under hypothesis' default one.

"mutants", which tools/mutants.py selects with --hypothesis-profile, skips
the shrink phase: any failing example kills a mutant, and shrinking one
from scratch can take minutes.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
