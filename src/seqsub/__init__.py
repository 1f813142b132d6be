"""Greedy maximization of submodular sequence functions.

Sequence algebra and generic greedy drivers live in `seqcore`; `adalloc`
instantiates them on fluid budgeted ad allocation, `qrewrite` on query
rewriting, `stochsim` cross-checks the fluid model against simulated query
streams, and `oracle` supplies exact small-instance optima for ratio tests.
"""

__version__ = "0.1.0"
