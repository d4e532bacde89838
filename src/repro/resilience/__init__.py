"""Resilience primitives: deadlines, retries, and fault injection.

The production-service north star (ROADMAP.md) needs three guarantees
the compute stack cannot give on its own:

* a request must be able to say *"answer within this wall-clock
  budget"* and get a partial, well-labelled result instead of a hang —
  :mod:`repro.resilience.deadline`;
* transient failures (a crashed worker, a repairable geometry error)
  must be retried a bounded, observable number of times —
  :mod:`repro.resilience.retry`;
* both behaviours must be provable under *deterministic* injected
  faults, in-process and across process pools —
  :mod:`repro.resilience.faults`.

Everything here is zero-dependency standard library, mirrors the
:mod:`repro.obs` install/current/scoped-context conventions, and costs
one ``None`` check per call site when disabled.
"""

from repro.errors import DeadlineExceeded, InjectedFault
from repro.resilience.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
    remaining_budget,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    corrupt_region,
    current_injector,
    injecting,
    install_injector,
    uninstall_injector,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "corrupt_region",
    "current_deadline",
    "current_injector",
    "deadline_scope",
    "injecting",
    "install_injector",
    "remaining_budget",
    "uninstall_injector",
]
