"""Validation reports with witnesses.

Every validator returns a ValidationReport: a list of named axiom-group
checks, each carrying the basis tuples where the axiom fails together
with the residual value at that tuple.  An empty witness list in every
group means the structure is valid.

The four structure validators start from the passing report of their
checks (``ValidationReport.of``) and fill in witnesses only when the
integer Jacobiator kernel (``lie.lie_table_holds``) finds that a law fails
(``lie.decided``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Witness:
    where: tuple
    residual: object

    def describe(self) -> str:
        return f"at {self.where}: residual {self.residual}"


@dataclass
class Check:
    name: str
    witnesses: list[Witness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def add(self, where, residual):
        self.witnesses.append(Witness(tuple(where), residual))


@dataclass
class ValidationReport:
    subject: str
    checks: list[Check] = field(default_factory=list)

    @classmethod
    def of(cls, subject: str, names) -> "ValidationReport":
        """The report on subject with the named checks and no witnesses."""
        return cls(subject, [Check(name) for name in names])

    def new_check(self, name: str) -> Check:
        check = Check(name)
        self.checks.append(check)
        return check

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        total = len(self.checks)
        passed = sum(1 for c in self.checks if c.ok)
        verdict = "VALID" if self.ok else "INVALID"
        return f"{self.subject}: {verdict} ({passed}/{total} axiom groups)"

    def lines(self, max_witnesses: int = 5) -> list[str]:
        out = [self.summary()]
        for check in self.checks:
            if check.ok:
                out.append(f"  [ok]   {check.name}")
            else:
                out.append(f"  [FAIL] {check.name} ({len(check.witnesses)} witnesses)")
                for w in check.witnesses[:max_witnesses]:
                    out.append(f"         {w.describe()}")
                if len(check.witnesses) > max_witnesses:
                    out.append(f"         ... {len(check.witnesses) - max_witnesses} more")
        return out

    def to_json(self) -> dict:
        from .scalars import format_rational

        def fmt(value):
            if isinstance(value, list):
                return [fmt(v) for v in value]
            try:
                return format_rational(value)
            except Exception:
                return repr(value)

        return {
            "subject": self.subject,
            "valid": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "witnesses": [
                        {"where": list(w.where), "residual": fmt(w.residual)}
                        for w in c.witnesses
                    ],
                }
                for c in self.checks
            ],
        }

