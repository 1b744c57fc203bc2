"""The vulnerability plugin interface (SEPAR's plugin-based architecture).

Each known inter-app vulnerability is distilled into a formally-specified
signature: an Alloy-style singleton signature whose ``one``-multiplicity
fields name the participating elements (the victim component, the
postulated malicious component, the attack Intent, ...), plus a signature
fact capturing the semantics of the exploit.  Solving for an instance of
the conjoined bundle + framework + signature constraints *synthesizes* a
concrete exploit scenario; the field bindings in the instance are the
scenario's roles.

Users extend SEPAR by subclassing :class:`VulnerabilitySignature` and
registering it (:func:`repro.core.vulnerabilities.register`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.app_to_spec import BundleSpec
from repro.relational import ast as rast
from repro.relational.instance import Instance
from repro.relational.sigs import Field, Sig


@dataclass
class ExploitScenario:
    """One synthesized exploit: the output of the analysis engine."""

    vulnerability: str
    roles: Dict[str, str]  # role name -> witness atom
    intent: Optional[Dict] = None  # attack/vulnerable Intent attributes
    malicious_filter: Optional[Dict] = None  # synthesized hijacking filter
    description: str = ""

    @property
    def victim_component(self) -> Optional[str]:
        return self.roles.get("victim")

    @property
    def victim_app(self) -> Optional[str]:
        victim = self.victim_component
        if victim is None:
            return None
        return victim.split("/", 1)[0]


@dataclass
class SignatureInstantiation:
    """What a plugin contributes to one solve: the goal conjunction, the
    anonymous-atom scopes, a decoder from instances to scenarios, and the
    role fields over which enumeration should diversify (each successive
    scenario must re-bind at least one of them -- typically producing one
    scenario per victim)."""

    goal: rast.Formula
    extra_scopes: Dict[Sig, int]
    decode: Callable[[Instance], ExploitScenario]
    diversity_fields: List[Field] = field(default_factory=list)


class VulnerabilitySignature(abc.ABC):
    """Base class for vulnerability signatures."""

    #: Stable identifier; used in reports, policies, and the registry.
    name: str = "abstract"

    @abc.abstractmethod
    def instantiate(self, spec: BundleSpec) -> SignatureInstantiation:
        """Declare the signature into ``spec.module`` and return the goal.

        Called once per analysis run on a freshly built
        :class:`~repro.core.app_to_spec.BundleSpec` (modules are mutated in
        place, so instantiations are never shared between plugins)."""

    # Shared helpers -----------------------------------------------------
    @staticmethod
    def role_atom(instance: Instance, fld: Field) -> Optional[str]:
        tuples = instance.tuples(fld.relation)
        for _, value in tuples:
            return value
        return None

    @staticmethod
    def impossible() -> SignatureInstantiation:
        """An instantiation whose goal is the FALSE constant.

        Returned when the extracted facts already rule the signature out
        (no call edges, no dynamic filters, ...): the constant folds at
        translation, so the shared encoding dead-gates the group and the
        per-signature oracle gets a trivially unsatisfiable problem -- both
        for free, with no signature atoms added to the universe."""
        return SignatureInstantiation(
            goal=rast.FALSE_F,
            extra_scopes={},
            decode=lambda instance: None,
            diversity_fields=[],
        )
