"""Rule modules — importing this package populates the registry.

Each module groups the rules guarding one contract family:

========  =======================  ==========================================
rule      module                   invariant
========  =======================  ==========================================
RL001     ``cache_keys``           every spec field flows into its key payload
RL002     ``cache_keys``           keys are backend-agnostic; shape ⇒ version
RL003     ``determinism``          no ambient entropy in result-bearing code
RL004     ``determinism``          sets are sorted before ordered consumption
RL005     ``io_discipline``        journal writes flush + fsync before ack
RL006     ``fault_sites``          fault-site namespace is closed & exercised
RL007     ``api_coherence``        backend kwargs resolve via instance_sweep
========  =======================  ==========================================
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for registration side effects)
    api_coherence,
    cache_keys,
    determinism,
    fault_sites,
    io_discipline,
)
