"""Parametrised lenses over finite and smooth carriers.

Two instantiations share one core.  Over numeric carriers the library
differentiates computation graphs in reverse mode and expresses training
loops, including adversarial ones, as lens composition.  Over finite
carriers it assembles normal-form games from per-player decisions and
solves them with selection relations, with exact rational payoffs.
"""
