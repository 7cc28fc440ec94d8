"""Whole-repo static analysis for the repro system.

Eleven registered rules over one shared parse: the five original contract
lints (``parity-tests``, ``no-input-mutation``, ``seeded-rng``,
``span-outside-memo``, ``plan-reference-twins``), the
``integrity-primitive`` guard, and five semantic passes
(``memo-key-soundness``, ``precision-flow``, ``env-gate-registry``,
``obs-naming-contract``, ``purity-propagation``).

Entry points: :func:`run_analysis` (programmatic),
``python -m repro.cli analyze`` (CLI, with baseline enforcement and
JSON/SARIF output).  See ``docs/ANALYSIS.md`` for the rule catalogue and
the suppression/baseline workflow.
"""

from __future__ import annotations

from .core import (  # noqa: F401
    RULES,
    AnalysisContext,
    Finding,
    Rule,
    run_analysis,
    validate_rule_ids,
)

# importing the rule modules populates the registry
from . import contracts  # noqa: E402,F401
from . import envcheck  # noqa: E402,F401
from . import memokey  # noqa: E402,F401
from . import obscheck  # noqa: E402,F401
from . import precision  # noqa: E402,F401
from . import purity  # noqa: E402,F401

from .baseline import (  # noqa: E402,F401
    BaselineDiff,
    diff_baseline,
    load_baseline,
    write_baseline,
)
from .emit import to_json, to_sarif  # noqa: E402,F401

__all__ = [
    "AnalysisContext",
    "BaselineDiff",
    "Finding",
    "RULES",
    "Rule",
    "diff_baseline",
    "load_baseline",
    "run_analysis",
    "to_json",
    "to_sarif",
    "validate_rule_ids",
    "write_baseline",
]
