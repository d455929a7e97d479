"""Behavioral testing for machine translation systems.

Generate capability-targeted test cases from an aligned parallel corpus by
masking editable segments and asking a chat model to fill them, then judge an
MT system's behavior on the perturbed inputs and report where it breaks.
"""

__version__ = "0.1.0"
