"""The experiment layer: campaigns, the store's dataframes and report,
and the harnesses behind the EXPERIMENTS.md block.

Import each name from its submodule (``repro.analysis.campaign``,
``.dataframes``, ``.report``, ``.tables``, ``.figures``,
``.experiments``, ``.stats``); invariant checkers live in
:mod:`repro.verify`. The package itself exports nothing, so importing
one submodule loads only what that submodule needs.
"""
